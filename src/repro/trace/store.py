"""Persistent trace store under ``.repro_cache/traces/``.

Traces live next to the PR-1 result cache and follow the same directory
resolution (``REPRO_CACHE_DIR`` / :func:`repro.experiments.result_cache.set_cache_dir`),
but are keyed on the **functional** config fingerprint only
(:meth:`repro.config.GPUConfig.functional_fingerprint`): timing-only knobs —
scheduler, scheme, cache sizes, latencies, issue core — do *not* invalidate
a trace, so one recording serves the whole scheme sweep.  Workload identity,
scale, and any workload kwargs are part of the key because they change the
generated kernel and data.

Stale traces (wrong format version, wrong functional fingerprint, corrupt
bytes) are refused by :mod:`repro.trace.format` at load; the non-strict
:func:`load_program` used by the auto-record path converts that refusal
into a miss (and drops the dead file) so the runner transparently
re-records.
"""

from __future__ import annotations

import hashlib
import json
from collections import OrderedDict
from pathlib import Path
from typing import Optional, Tuple

from .. import fslock
from ..config import GPUConfig
from ..errors import TraceError, TraceFormatError, TraceMismatchError
from ..experiments.result_cache import cache_dir
from .format import TraceProgram

#: Subdirectory of the result cache holding trace files.
TRACE_SUBDIR = "traces"
#: File extension for stored traces (zlib-compressed JSON).
TRACE_SUFFIX = ".trace"

#: In-process memo of parsed programs, LRU-bounded.  Decompressing and
#: parsing a trace costs a noticeable fraction of a replay; a scheme
#: sweep (and doubly so a *sampled* sweep, whose per-cell replay is tiny)
#: loads the same file once per cell without this.  Entries validate
#: against the file's (mtime_ns, size) on every hit, so an overwritten or
#: deleted trace is never served stale.  Shared programs are read-only by
#: contract: replay and subsampling never mutate record lists.
_PROGRAM_MEMO: "OrderedDict[str, Tuple[int, int, TraceProgram]]" = OrderedDict()
_PROGRAM_MEMO_CAP = 4


def trace_dir() -> Path:
    """Directory holding persistent traces (inside the result cache dir)."""
    return cache_dir() / TRACE_SUBDIR


def trace_key(
    workload: str,
    scale: float,
    functional_fp: str,
    workload_kwargs: Optional[dict] = None,
) -> str:
    """Deterministic file stem for one recorded workload."""
    payload = json.dumps(
        {
            "workload": workload,
            # ``float``: ``1`` and ``1.0`` record the same trace.
            "scale": float(scale),
            "functional_fp": functional_fp,
            "kwargs": sorted((workload_kwargs or {}).items()),
        },
        sort_keys=True,
        default=str,
    )
    digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]
    safe = workload.replace("/", "_").replace("+", "p")
    return f"{safe}-{digest}"


def trace_path(
    workload: str,
    scale: float,
    config: GPUConfig,
    workload_kwargs: Optional[dict] = None,
) -> Path:
    return trace_dir() / (
        trace_key(workload, scale, config.functional_fingerprint(), workload_kwargs)
        + TRACE_SUFFIX
    )


def load_program(
    workload: str,
    scale: float,
    config: GPUConfig,
    workload_kwargs: Optional[dict] = None,
    strict: bool = False,
) -> Optional[TraceProgram]:
    """Load the stored trace for one workload cell, or ``None`` on miss.

    Non-strict (the auto-record path): a corrupt, version-incompatible, or
    fingerprint-mismatched file is deleted and reported as a miss so the
    caller re-records.  Strict (``repro trace replay``): those conditions
    raise the underlying :class:`~repro.errors.TraceError` with its precise
    explanation instead of silently re-simulating.
    """
    path = trace_path(workload, scale, config, workload_kwargs)
    memo_key = str(path)
    try:
        info = path.stat()
        file_id: Optional[Tuple[int, int]] = (info.st_mtime_ns, info.st_size)
    except OSError:
        file_id = None
    cached = _PROGRAM_MEMO.get(memo_key)
    if cached is not None:
        if file_id is not None and (cached[0], cached[1]) == file_id:
            _PROGRAM_MEMO.move_to_end(memo_key)
            return cached[2]
        _PROGRAM_MEMO.pop(memo_key, None)
    try:
        program = TraceProgram.load(path, config.functional_fingerprint())
        if file_id is not None:
            _PROGRAM_MEMO[memo_key] = (file_id[0], file_id[1], program)
            while len(_PROGRAM_MEMO) > _PROGRAM_MEMO_CAP:
                _PROGRAM_MEMO.popitem(last=False)
        return program
    except FileNotFoundError:
        if strict:
            raise TraceMismatchError(
                f"no recorded trace for workload {workload!r} at scale {scale} "
                f"(expected {path}); record one with `repro trace record "
                f"--workload {workload}`"
            ) from None
        return None
    except (TraceFormatError, TraceMismatchError):
        if strict:
            raise
        try:
            path.unlink()
        except OSError:
            pass
        return None
    except OSError:
        if strict:
            raise
        return None


def store_program(
    program: TraceProgram,
    workload: str,
    scale: float,
    config: GPUConfig,
    workload_kwargs: Optional[dict] = None,
) -> Optional[Path]:
    """Persist ``program``; returns the path, or ``None`` if unwritable."""
    path = trace_path(workload, scale, config, workload_kwargs)
    _PROGRAM_MEMO.pop(str(path), None)
    try:
        program.save(path)
    except OSError:
        # A read-only or full filesystem must never break a simulation run.
        return None
    return path


def list_traces() -> list:
    """``(path, TraceProgram | TraceError)`` for every stored trace file."""
    directory = trace_dir()
    entries = []
    if directory.is_dir():
        for path in sorted(directory.glob(f"*{TRACE_SUFFIX}")):
            try:
                entries.append((path, TraceProgram.load(path)))
            except TraceError as exc:
                entries.append((path, exc))
    return entries


def clear() -> int:
    """Delete every stored trace; returns the number of files removed."""
    _PROGRAM_MEMO.clear()
    directory = trace_dir()
    removed = 0
    if directory.is_dir():
        for path in sorted(directory.glob(f"*{TRACE_SUFFIX}")):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
    return removed


def stats() -> dict:
    """Entry count and byte total for the trace store."""
    directory = trace_dir()
    out = fslock.dir_stats(directory, f"*{TRACE_SUFFIX}")
    out["dir"] = str(directory)
    return out


def gc(
    max_age_seconds: Optional[float] = None,
    max_entries: Optional[int] = None,
    blocking: bool = True,
) -> int:
    """Lock-safe garbage collection of stale traces.

    Same contract as :func:`repro.experiments.result_cache.gc`: the
    enumerate-and-delete section holds the trace directory's advisory GC
    lock; writers stay lock-free because :meth:`TraceProgram.save` is
    already atomic (temp file + ``os.replace``) and a deleted trace is
    indistinguishable from a miss, which the runner answers by
    re-recording.
    """
    directory = trace_dir()
    if not directory.is_dir():
        return 0
    lock = fslock.lock_path(directory)
    if blocking:
        with fslock.locked(lock):
            return fslock.gc_entries(
                directory, f"*{TRACE_SUFFIX}", max_age_seconds, max_entries
            )
    with fslock.try_locked(lock) as acquired:
        if not acquired:
            return 0
        return fslock.gc_entries(
            directory, f"*{TRACE_SUFFIX}", max_age_seconds, max_entries
        )
