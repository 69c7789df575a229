"""Decode-once instruction records for the issue path.

Every issued instruction used to be re-classified at issue time: opcode
tests for its pipe, its scoreboard operands, whether it needs a global
MSHR, its result latency, and an opcode if-chain in the executor.  None of
that depends on the warp, so :func:`decode_kernel` does it once per
(kernel, executor, latencies) and the SM keeps a list of
:class:`Decoded` records indexed by PC.

A record carries what the issue path reads:

* ``kind`` — one of the issue kinds below; the SM's control/timing switch
  and the trace frontend both dispatch on it;
* the scoreboard key ``srcs, sb_dst, pred, pred_is_dst`` (``sb_dst`` is
  ``None`` when the instruction writes no register or predicate);
* ``needs_mem`` — a global LD/ST, which needs a free MSHR to issue;
* ``writes`` / ``latency`` — for :data:`ALU` records, which scoreboard the
  result lands on and how many cycles after issue;
* ``run(warp, memory)`` — the executor's closure computing the
  instruction's effect for one warp against the device's global memory
  (see :meth:`repro.simt.executor.FunctionalExecutor.decode`).  The memory
  is an argument, not captured: warps keep their records, and a result's
  blocks keep their warps, so a captured memory would outlive its run.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..isa.instructions import FuncUnit, Instruction, MemSpace, Opcode

#: Issue kinds.  ``ALU`` covers every instruction whose only timing effect
#: is a scoreboard write (arithmetic, SFU, SETP/SELP, SREG, NOP, RECONV).
ALU = 0
MEM = 1
BRA = 2
BAR = 3
EXIT = 4

_KINDS = {Opcode.LD: MEM, Opcode.ST: MEM, Opcode.BRA: BRA,
          Opcode.BAR: BAR, Opcode.EXIT: EXIT}

#: ``Decoded.writes`` values.
WRITES_NONE = 0
WRITES_REG = 1
WRITES_PRED = 2


class Decoded:
    """One static instruction, classified once for the issue path."""

    __slots__ = ("inst", "pc", "kind", "srcs", "sb_dst", "pred", "pred_is_dst",
                 "needs_mem", "is_load", "writes", "latency", "run")

    def __init__(self, inst: Instruction, alu_latency: int, sfu_latency: int) -> None:
        self.inst = inst
        self.pc = inst.pc
        self.kind = _KINDS.get(inst.op, ALU)
        pred_is_dst = inst.writes_predicate
        self.srcs = inst.srcs
        self.sb_dst = inst.dst if (inst.writes_register or pred_is_dst) else None
        self.pred = inst.pred
        self.pred_is_dst = pred_is_dst
        self.needs_mem = inst.is_memory and inst.space is MemSpace.GLOBAL
        self.is_load = inst.is_load
        if self.kind != ALU:
            self.writes, self.latency = WRITES_NONE, 0
        elif pred_is_dst:
            self.writes, self.latency = WRITES_PRED, alu_latency
        elif inst.writes_register:
            self.writes = WRITES_REG
            self.latency = sfu_latency if inst.unit is FuncUnit.SFU else alu_latency
        else:
            self.writes, self.latency = WRITES_NONE, 0
        #: ``run(warp, memory) -> ExecResult``; bound by the executor.
        self.run: Optional[Callable] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Decoded(kind={self.kind}, {self.inst!r})"


def decode_kernel(kernel, bind: Callable[[Decoded], Callable],
                  alu_latency: int, sfu_latency: int) -> List[Decoded]:
    """Decode every instruction of ``kernel``; ``bind`` supplies ``run``."""
    code = []
    for inst in kernel.instructions:
        record = Decoded(inst, alu_latency, sfu_latency)
        record.run = bind(record)
        code.append(record)
    return code


def decode_one(inst: Instruction, bind: Callable[[Decoded], Callable]) -> Decoded:
    """Decode a lone instruction, outside any kernel (latencies unused)."""
    record = Decoded(inst, 0, 0)
    record.run = bind(record)
    return record


class DecodeCache:
    """Per-executor memo of decoded kernels.

    Keyed on the kernel's identity (kernels are mutable dataclasses, so not
    hashable); the kernel is kept alive in the entry so a recycled ``id``
    can never return another kernel's code.  ``bind`` is passed per call,
    not stored: a bound method of the owning executor kept here would make
    a reference cycle that holds the whole device until a GC pass.
    """

    __slots__ = ("_programs",)

    def __init__(self) -> None:
        self._programs: dict = {}

    def program(self, kernel, bind: Callable[[Decoded], Callable],
                alu_latency: int, sfu_latency: int) -> List[Decoded]:
        key = (id(kernel), alu_latency, sfu_latency)
        entry = self._programs.get(key)
        if entry is None or entry[0] is not kernel:
            entry = (kernel, decode_kernel(kernel, bind, alu_latency, sfu_latency))
            self._programs[key] = entry
        return entry[1]
