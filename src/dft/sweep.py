"""Batch verification sweep: classifier verdict vs. the rank oracle.

The JSONL output is written as the sweep goes: a header with a hash of
the mathematically relevant configuration, then one record per symbol in
enumeration order, each flushed once known, and a summary last.  Records
are deterministic (the timing field aside), so files are byte-comparable
across runs and parallelism degrees.  A stopped sweep (an error, an
exceeded bound, a kill) leaves the header and the records before the
stop.  Resume re-uses the records of an earlier run with the same hash,
finished or not; without it an existing output file is truncated.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import sys
import time
from contextlib import ExitStack
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import bounds
from .classify import small_type
from .fqm import build_form
from .lifts import lift_span
from .symbols import enumerate_symbols, parse_symbol

MAX_WITNESSES = 8
FORMAT_VERSION = 2


class _Record:
    """The fields of one sweep record, set as attributes.

    A caller may keep every record.  The ``__dict__`` of instances of
    one class share a single key table (PEP 412), so ``vars(record)``, a
    plain dict, stores only its values: about 200 bytes in CPython 3.11,
    against about 470 for a dict literal of the same 13 fields.  Every
    record sets its fields in one order, so that the shared table never
    has to change; a full span's record then drops the witness fields.
    """


# The witnesses are the first elements outside the span, so a few lists
# of them recur across a sweep's records, as do the rules: {2,3,5} <= 64
# gives 54 distinct witness lists among 1,061 and 46 distinct rules among
# 1,073 records.  Each record refers to one shared copy of its witnesses
# (from this table) and of its rule (through sys.intern).  The table keeps
# each distinct list for the life of the process; the lists are the
# records' own tuples, so it adds only its slots.
_WITNESSES: dict[tuple, tuple] = {}


@dataclass
class SweepConfig:
    max_order: int
    primes: tuple[int, ...]
    span_order: int = field(default_factory=bounds.max_span_order)
    jobs: int = 1
    out: str = "sweep.jsonl"
    resume: bool = False

    def math_config(self) -> dict:
        return {
            "format": FORMAT_VERSION,
            "max_order": self.max_order,
            "primes": sorted(self.primes),
            "span_order": self.span_order,
        }

    def config_hash(self) -> str:
        blob = json.dumps(self.math_config(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def evaluate_symbol(text: str, span_order: int | None = None) -> dict:
    """Self-contained verification record for one symbol; ``span_order``
    overrides the process-wide span bound."""
    t0 = time.perf_counter()
    sym = parse_symbol(text)
    form = build_form(sym)
    verdict = small_type(sym)
    span = lift_span(form, span_order)
    missing = np.flatnonzero(~span.membership)
    record = _Record()
    record.kind = "record"
    record.symbol = text
    record.order = form.order
    record.level = form.level
    record.signature = form.signature
    record.small = verdict.small
    record.rule = sys.intern(verdict.rule)
    record.image_rank = span.rank
    record.full_image = span.full
    record.agreement = verdict.small == (not span.full)
    record.witness_count = len(missing)
    # tuples: the JSON is the same as for lists, and they are smaller
    witnesses = tuple(map(form.element, missing[:MAX_WITNESSES].tolist()))
    record.witnesses = _WITNESSES.setdefault(witnesses, witnesses)
    if span.full:
        del record.witness_count, record.witnesses
    record.elapsed_ms = round(1000 * (time.perf_counter() - t0), 3)
    return vars(record)


def _load_existing(fh, config_hash: str) -> dict[str, dict]:
    """The records an earlier run left in ``fh``, by symbol.  A line
    without its newline, as a kill mid-write leaves, is ignored; a cut
    header counts as an empty file."""
    fh.seek(0)
    first = fh.readline()
    if not first.endswith("\n"):
        return {}
    header = _json_object(first)
    if header.get("kind") != "header" or header.get("hash") != config_hash:
        raise ValueError("existing sweep file has a different configuration")
    records = {}
    for line in fh:
        if not line.endswith("\n"):
            continue
        r = _json_object(line)
        if r.get("kind") == "record":
            if "symbol" not in r:
                raise ValueError("existing sweep file has a record without "
                                 "a symbol")
            records[r["symbol"]] = r
    return records


def _json_object(line: str) -> dict:
    """The JSON object on one line of a sweep file; any other line raises
    ``ValueError``, as malformed JSON does."""
    obj = json.loads(line)
    if not isinstance(obj, dict):
        raise ValueError("existing sweep file has a line that is not a "
                         "JSON object")
    return obj


def _record_or_error(text: str, span_order: int) -> dict | Exception:
    """``evaluate_symbol``, returning a failure rather than raising it,
    which would fail its whole chunk of pool tasks and lose the records
    before it; from a pool worker the failure comes without traceback."""
    try:
        return evaluate_symbol(text, span_order)
    except Exception as exc:
        return exc


def _blas_threads_setter():
    """numpy's bundled ``scipy_openblas_set_num_threads64_`` through
    ctypes, or None when numpy has no such library."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        setter = lib.scipy_openblas_set_num_threads64_
    except (AttributeError, OSError):
        return None
    setter.argtypes, setter.restype = [ctypes.c_int], None
    return setter


def _one_blas_thread() -> None:
    """Pool initializer: one OpenBLAS thread in the worker, which would
    otherwise keep its parent's count and oversubscribe the cores."""
    _blas_threads_setter()(1)


def _write(fh, obj: dict) -> None:
    fh.write(json.dumps(obj, sort_keys=True) + "\n")
    fh.flush()


def run_sweep(config: SweepConfig, log=None) -> dict:
    """Run the sweep, streaming its JSONL output into ``config.out``, and
    return the summary.  Bad options raise ``ValueError`` before the file
    is touched, and so does a resume of another configuration."""
    if config.jobs < 1:
        raise ValueError(f"jobs = {config.jobs}: the sweep needs a worker")
    t0 = time.perf_counter()
    symbols = [str(s) for s in enumerate_symbols(config.max_order,
                                                 config.primes)]
    chash = config.config_hash()
    try:
        fh = open(config.out, "a+", encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot write {config.out}: {exc.strerror}") from None
    with fh, ExitStack() as stack:
        existing = _load_existing(fh, chash) if config.resume else {}
        fh.seek(0)
        fh.truncate()
        todo = [s for s in symbols if s not in existing]
        if log:
            log(f"sweep: {len(symbols)} symbols, reused "
                f"{len(symbols) - len(todo)}, {len(todo)} to compute, "
                f"jobs={config.jobs}")
        _write(fh, {"kind": "header", "hash": chash,
                    "config": config.math_config()})
        task = partial(_record_or_error, span_order=config.span_order)
        if config.jobs > 1 and len(todo) > 1:
            # imported only here: a one-process sweep does not pay for it
            from concurrent.futures import ProcessPoolExecutor
            init = _one_blas_thread if _blas_threads_setter() else None
            if init is None:
                print("sweep: no OpenBLAS thread setter in numpy; workers "
                      "keep the default BLAS threads", file=sys.stderr)
            pool = ProcessPoolExecutor(max_workers=config.jobs,
                                       initializer=init)
            # a stop drops the tasks not yet started
            stack.callback(pool.shutdown, cancel_futures=True)
            fresh = pool.map(task, todo, chunksize=8)
        else:
            fresh = map(task, todo)
        disagreements, deficient = [], 0
        for s in symbols:
            rec = existing.pop(s) if s in existing else next(fresh)
            if isinstance(rec, Exception):
                raise rec
            _write(fh, rec)
            deficient += not rec["full_image"]
            if not rec["agreement"]:
                disagreements.append(s)
        summary = {
            "kind": "summary",
            "records": len(symbols),
            "deficient": deficient,
            "disagreements": disagreements,
            "elapsed_ms": round(1000 * (time.perf_counter() - t0), 3),
        }
        _write(fh, summary)
    return summary
