"""Functional (value-level) execution of instructions.

The executor computes architectural results for all active lanes of a warp
at issue time using numpy; the SM pipeline separately accounts for *when*
those results become visible (latency, memory system).  This split — values
now, timing later — is the standard performance-simulator trade and keeps
the Python inner loop proportional to issued instructions.

Each static instruction is decoded once (:mod:`repro.simt.decode`) into a
record whose ``run`` closure, built by :meth:`FunctionalExecutor.decode`,
already holds the instruction's operands, its value function and its
destination; :meth:`FunctionalExecutor.execute` only calls it.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

import numpy as np

from ..errors import SimulationError
from ..isa.instructions import CmpOp, Instruction, MemSpace, Opcode
from .decode import ALU, BAR, BRA, MEM, Decoded, DecodeCache, decode_one
from .mask import bools_from_mask, mask_from_bools


class ExecResult(NamedTuple):
    """Outcome of functionally executing one instruction for one warp.

    Immutable: instructions without a payload share the module constants
    :data:`NO_EFFECT`, :data:`BARRIER_REACHED` and :data:`EXIT_REACHED`.

    Attributes:
        taken_mask: for branches, lanes (within the incoming active mask)
            whose predicate selected the branch target.
        mem_addrs: for LD/ST, per-lane byte addresses (full warp width;
            only lanes in ``mem_mask`` are meaningful).
        mem_mask: lanes that actually access memory (active mask further
            restricted by the instruction's guard predicate).
        mem_lines: pre-coalesced line addresses, supplied only by the
            trace-replay frontend (:class:`repro.trace.replay.TraceExecutor`);
            when set, the LSU skips coalescing and uses them directly.
        is_exit: EXIT reached.
        is_barrier: BAR reached.
    """

    taken_mask: int = 0
    mem_addrs: Optional[np.ndarray] = None
    mem_mask: int = 0
    mem_lines: Optional[list] = None
    is_exit: bool = False
    is_barrier: bool = False


NO_EFFECT = ExecResult()
BARRIER_REACHED = ExecResult(is_barrier=True)
EXIT_REACHED = ExecResult(is_exit=True)


class FunctionalExecutor:
    """Executes instructions against warp register state and data memory."""

    def __init__(self, global_mem, warp_size: int) -> None:
        self._mem = global_mem
        self._warp_size = warp_size
        self._full = (1 << warp_size) - 1
        self._programs = DecodeCache()

    def decode(self, kernel, alu_latency: int, sfu_latency: int) -> list:
        """``kernel``'s decoded records, indexed by PC (memoized)."""
        return self._programs.program(kernel, self._bind, alu_latency, sfu_latency)

    def execute(self, inst, warp) -> ExecResult:
        """Execute ``inst`` for ``warp``'s currently active lanes.

        ``inst`` is a :class:`~repro.simt.decode.Decoded` record from
        :meth:`decode` (the issue path) or a bare
        :class:`~repro.isa.instructions.Instruction`, decoded on the spot.
        """
        if inst.__class__ is not Decoded:
            inst = decode_one(inst, self._bind)
        return inst.run(warp, self._mem)

    # ------------------------------------------------------------------
    # Binding: one closure per static instruction
    # ------------------------------------------------------------------
    def _bind(self, record: Decoded) -> Callable:
        kind = record.kind
        inst = record.inst
        if kind == ALU:
            if inst.op is Opcode.NOP or inst.op is Opcode.RECONV:
                return no_effect
            return self._bind_value(inst)
        if kind == MEM:
            return self._bind_memory(inst)
        if kind == BRA:
            return self._bind_branch(inst)
        if kind == BAR:
            return barrier_reached
        return exit_reached

    def _bind_branch(self, inst: Instruction) -> Callable:
        if inst.pred is None:
            def run(warp, mem):
                return ExecResult(warp.stack.active_mask)
            return run
        pred = inst.pred
        neg = inst.pred_neg
        full = self._full

        def run(warp, mem):
            taken = mask_from_bools(warp.rf.preds[pred])
            if neg:
                taken = ~taken & full
            return ExecResult(taken & warp.stack.active_mask)
        return run

    def _bind_memory(self, inst: Instruction) -> Callable:
        srcs = inst.srcs
        is_load = inst.op is Opcode.LD
        if not srcs or (not is_load and len(srcs) < 2):
            return _raiser(f"malformed {inst.op.value} operands at pc={inst.pc}")
        base_reg = srcs[0]
        value_reg = srcs[1] if not is_load else None
        dst = inst.dst
        offset = np.int64(0.0 if inst.imm is None else inst.imm)
        shared = inst.space is MemSpace.SHARED
        guard, neg = inst.pred, inst.pred_neg
        width = self._warp_size

        def run(warp, mem):
            rf = warp.rf
            active = warp.stack.active_mask
            mask_bools = bools_from_mask(active, width)
            if guard is None:
                effect = active
            else:
                pvals = rf.preds[guard]
                mask_bools = mask_bools & (~pvals if neg else pvals)
                effect = mask_from_bools(mask_bools)
            addrs = rf.regs[base_reg].astype(np.int64) + offset
            if effect:
                if is_load:
                    if shared:
                        values = warp.block.shared_load(addrs, mask_bools)
                    else:
                        values = mem.load(addrs, mask_bools)
                    np.copyto(rf.regs[dst], values, where=mask_bools)
                elif shared:
                    warp.block.shared_store(addrs, rf.regs[value_reg], mask_bools)
                else:
                    mem.store(addrs, rf.regs[value_reg], mask_bools)
            return ExecResult(0, addrs, effect)
        return run

    def _bind_value(self, inst: Instruction) -> Callable:
        """Closure for an instruction that writes one register/predicate.

        ``compute(rf, warp)`` returns the lane values; ``fast(rf)``, when
        the op has one, writes them in place for an unguarded, fully
        active warp (a ufunc with ``out=``, or a broadcast) — the same
        values as ``compute`` followed by an unmasked copy.
        """
        op = inst.op
        compute, fast = _value_functions(inst, self._warp_size)
        dst = inst.dst
        to_pred = op is Opcode.SETP
        # SELP's predicate selects between its operands; it never guards.
        guard = None if op is Opcode.SELP else inst.pred
        neg = inst.pred_neg
        full = self._full
        width = self._warp_size

        def run(warp, mem):
            rf = warp.rf
            active = warp.stack.active_mask
            if guard is None:
                if active == full:
                    if fast is not None:
                        fast(rf)
                        return NO_EFFECT
                    mask_bools = None
                else:
                    mask_bools = bools_from_mask(active, width)
            else:
                pvals = rf.preds[guard]
                mask_bools = bools_from_mask(active, width) & (~pvals if neg else pvals)
            values = compute(rf, warp)
            target = (rf.preds if to_pred else rf.regs)[dst]
            if mask_bools is None:
                np.copyto(target, values)
            else:
                np.copyto(target, values, where=mask_bools)
            return NO_EFFECT
        return run


def no_effect(warp, mem) -> ExecResult:
    """``run`` of an instruction with no functional effect."""
    return NO_EFFECT


def barrier_reached(warp, mem) -> ExecResult:
    """``run`` of BAR."""
    return BARRIER_REACHED


def exit_reached(warp, mem) -> ExecResult:
    """``run`` of EXIT."""
    return EXIT_REACHED


def _raiser(message: str) -> Callable:
    """A ``run``/``compute`` stand-in that raises when executed."""
    def fail(*_args):
        raise SimulationError(message)
    return fail


def _value_functions(inst: Instruction, width: int):
    """``(compute, fast)`` for a value-producing instruction.

    Malformed operand lists decode to a ``compute`` that raises when the
    instruction executes, as the opcode switch it replaces did.
    """
    op = inst.op
    srcs = inst.srcs
    imm = inst.imm
    dst = inst.dst

    if op is Opcode.SREG:
        special = inst.special

        def compute(rf, warp):
            return warp.special_values(special)
        return compute, None

    if op is Opcode.MAD:
        if imm is not None and len(srcs) == 2:
            a_reg, c_reg = srcs
            b = np.float64(imm)

            def compute(rf, warp):
                regs = rf.regs
                return regs[a_reg] * b + regs[c_reg]
        elif len(srcs) == 3:
            a_reg, b_reg, c_reg = srcs

            def compute(rf, warp):
                regs = rf.regs
                return regs[a_reg] * regs[b_reg] + regs[c_reg]
        else:
            return _raiser(f"malformed MAD operands at pc={inst.pc}"), None
        return compute, None

    unary = _UNARY.get(op)
    if unary is not None:
        if srcs:
            a_reg = srcs[0]

            def compute(rf, warp):
                return unary(rf.regs[a_reg])
            if op is Opcode.MOV:
                def fast(rf):
                    regs = rf.regs
                    regs[dst] = regs[a_reg]
            elif isinstance(unary, np.ufunc):
                def fast(rf):
                    regs = rf.regs
                    unary(regs[a_reg], out=regs[dst])
            else:
                fast = None
            return compute, fast
        if imm is None:
            return _raiser(f"missing operand at pc={inst.pc}"), None
        const = np.full(width, imm, dtype=np.float64)
        const.setflags(write=False)
        if op is Opcode.MOV:
            def fast(rf):
                rf.regs[dst] = const
        else:
            fast = None

        def compute(rf, warp):
            return unary(const)
        return compute, fast

    if op is Opcode.SETP:
        binary = _COMPARES[inst.cmp]
    elif op is Opcode.SELP:
        binary = None
    else:
        binary = _BINARY.get(op)
        if binary is None:
            return _raiser(f"unimplemented opcode {op!r} at pc={inst.pc}"), None

    if len(srcs) == 2:
        a_reg, b_reg = srcs

        def operands(regs):
            return regs[a_reg], regs[b_reg]
    elif len(srcs) == 1 and imm is not None:
        a_reg = srcs[0]
        b_imm = np.float64(imm)

        def operands(regs):
            return regs[a_reg], b_imm
    else:
        return _raiser(f"malformed operands at pc={inst.pc}"), None

    if op is Opcode.SELP:
        sel = inst.pred

        def compute(rf, warp):
            a, b = operands(rf.regs)
            return np.where(rf.preds[sel], a, b)
        return compute, None

    def compute(rf, warp):
        a, b = operands(rf.regs)
        return binary(a, b)
    if not isinstance(binary, np.ufunc):
        return compute, None

    if op is Opcode.SETP:
        def fast(rf):
            a, b = operands(rf.regs)
            binary(a, b, out=rf.preds[dst])
    else:
        def fast(rf):
            regs = rf.regs
            a, b = operands(regs)
            binary(a, b, out=regs[dst])
    return compute, fast


def _to_int(x: np.ndarray) -> np.ndarray:
    return np.asarray(x, dtype=np.float64).astype(np.int64)


def _safe_div(a: np.ndarray, b) -> np.ndarray:
    b_arr = np.broadcast_to(np.asarray(b, dtype=np.float64), np.shape(a)).copy()
    zero = b_arr == 0
    b_arr[zero] = 1.0
    out = a / b_arr
    out = np.where(zero, 0.0, out)
    return out


def _safe_mod(a: np.ndarray, b) -> np.ndarray:
    b_arr = np.broadcast_to(np.asarray(b, dtype=np.float64), np.shape(a)).copy()
    zero = b_arr == 0
    b_arr[zero] = 1.0
    out = np.mod(a, b_arr)
    return np.where(zero, 0.0, out)


def _safe_unary(fn, domain_fix):
    def wrapped(a: np.ndarray) -> np.ndarray:
        with np.errstate(all="ignore"):
            out = fn(domain_fix(a))
        return np.nan_to_num(out, nan=0.0, posinf=0.0, neginf=0.0)

    return wrapped


# Ops that are plain ufuncs also get the in-place write (``out=``) for a
# fully active, unguarded warp.
_UNARY = {
    Opcode.MOV: lambda a: a,
    Opcode.ABS: np.abs,
    Opcode.NEG: np.negative,
    Opcode.NOT: lambda a: (~_to_int(a)).astype(np.float64),
    Opcode.FLOOR: np.floor,
    Opcode.SQRT: _safe_unary(np.sqrt, lambda a: np.maximum(a, 0.0)),
    Opcode.RSQRT: _safe_unary(lambda a: 1.0 / np.sqrt(a), lambda a: np.maximum(a, 1e-300)),
    Opcode.RCP: _safe_unary(lambda a: 1.0 / a, lambda a: np.where(a == 0, 1e-300, a)),
    Opcode.EXP: _safe_unary(np.exp, lambda a: np.clip(a, -700, 700)),
    Opcode.LOG: _safe_unary(np.log, lambda a: np.maximum(a, 1e-300)),
    Opcode.SIN: np.sin,
    Opcode.COS: np.cos,
}

_BINARY = {
    Opcode.ADD: np.add,
    Opcode.SUB: np.subtract,
    Opcode.MUL: np.multiply,
    Opcode.DIV: _safe_div,
    Opcode.MOD: _safe_mod,
    Opcode.MIN: np.minimum,
    Opcode.MAX: np.maximum,
    Opcode.AND: lambda a, b: (_to_int(a) & _to_int(b)).astype(np.float64),
    Opcode.OR: lambda a, b: (_to_int(a) | _to_int(b)).astype(np.float64),
    Opcode.XOR: lambda a, b: (_to_int(a) ^ _to_int(b)).astype(np.float64),
    Opcode.SHL: lambda a, b: (_to_int(a) << np.clip(_to_int(b), 0, 62)).astype(np.float64),
    Opcode.SHR: lambda a, b: (_to_int(a) >> np.clip(_to_int(b), 0, 62)).astype(np.float64),
}

_COMPARES = {
    CmpOp.LT: np.less,
    CmpOp.LE: np.less_equal,
    CmpOp.GT: np.greater,
    CmpOp.GE: np.greater_equal,
    CmpOp.EQ: np.equal,
    CmpOp.NE: np.not_equal,
}
