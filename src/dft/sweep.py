"""Batch verification sweep: classifier verdict vs. the rank oracle.

One JSONL record per enumerated symbol, preceded by a header line that
carries a hash of the mathematically relevant configuration and followed
by a summary line.  Record content is deterministic (the timing field
aside), so files are byte-comparable across runs and parallelism
degrees; resume re-uses records whose symbols are already present under
a matching config hash.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
from contextlib import suppress
from dataclasses import dataclass, field
from functools import partial

from . import bounds
from .classify import small_type
from .fqm import build_form
from .lifts import lift_span
from .symbols import enumerate_symbols, parse_symbol

MAX_WITNESSES = 8
FORMAT_VERSION = 2


class _Record:
    """The fields of one sweep record, set as attributes.

    A sweep holds one record per symbol.  The ``__dict__`` of instances of
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
    missing = [int(i) for i in (~span.membership).nonzero()[0]]
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
    witnesses = tuple(map(form.element, missing[:MAX_WITNESSES]))
    record.witnesses = _WITNESSES.setdefault(witnesses, witnesses)
    if span.full:
        del record.witness_count, record.witnesses
    record.elapsed_ms = round(1000 * (time.perf_counter() - t0), 3)
    return vars(record)


def _load_existing(path: str, config_hash: str) -> dict[str, dict]:
    existing: dict[str, dict] = {}
    if not os.path.exists(path):
        return existing
    with open(path, encoding="utf-8") as fh:
        first = fh.readline()
        if not first:
            return existing
        header = json.loads(first)
        if header.get("kind") != "header" or header.get("hash") != config_hash:
            raise ValueError("existing sweep file has a different configuration")
        for line in fh:
            rec = json.loads(line)
            if rec.get("kind") == "record":
                existing[rec["symbol"]] = rec
    return existing


def run_sweep(config: SweepConfig, log=None) -> dict:
    """Execute the sweep, write the JSONL output, return the summary."""
    if config.jobs < 1:
        raise ValueError(f"jobs = {config.jobs}: the sweep needs a worker")
    tmp = _claim_output(config.out)
    try:
        return _sweep(config, tmp, log)
    finally:
        # gone after a finished run's os.replace; any other exit drops it
        with suppress(FileNotFoundError):
            os.remove(tmp)


def _claim_output(out: str) -> str:
    """Create the empty temporary file the sweep writes before it replaces
    ``out``, so that an unwritable ``out`` fails before any work;
    ``ValueError`` when it cannot be created or ``out`` is a directory."""
    if os.path.isdir(out):
        raise ValueError(f"output path {out} is a directory")
    tmp = out + ".tmp"
    try:
        open(tmp, "w", encoding="utf-8").close()
    except OSError as exc:
        raise ValueError(f"cannot write {tmp}: {exc.strerror}") from None
    return tmp


def _sweep(config: SweepConfig, tmp: str, log) -> dict:
    """Compute the records, write them to ``tmp`` and move it onto
    ``config.out``."""
    t0 = time.perf_counter()
    symbols = [str(s) for s in enumerate_symbols(config.max_order,
                                                 config.primes)]
    chash = config.config_hash()
    existing = _load_existing(config.out, chash) if config.resume else {}
    todo = [s for s in symbols if s not in existing]
    if log:
        log(f"sweep: {len(symbols)} symbols, {len(todo)} to compute, "
            f"jobs={config.jobs}")
    evaluate = partial(evaluate_symbol, span_order=config.span_order)
    if config.jobs > 1 and len(todo) > 1:
        # imported only here: a one-process sweep does not pay for it
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            fresh = list(pool.map(evaluate, todo, chunksize=8))
    else:
        fresh = [evaluate(s) for s in todo]
    records = dict(existing)
    records.update({rec["symbol"]: rec for rec in fresh})

    disagreements = [s for s in symbols if not records[s]["agreement"]]
    deficient = sum(1 for s in symbols if not records[s]["full_image"])
    if log:
        log(f"sweep: computed {len(todo)}, reused {len(existing)}")
    summary = {
        "kind": "summary",
        "records": len(symbols),
        "deficient": deficient,
        "disagreements": disagreements,
        "elapsed_ms": round(1000 * (time.perf_counter() - t0), 3),
    }
    header = {"kind": "header", "hash": chash, "config": config.math_config()}
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for s in symbols:
            fh.write(json.dumps(records[s], sort_keys=True) + "\n")
        fh.write(json.dumps(summary, sort_keys=True) + "\n")
    os.replace(tmp, config.out)
    return summary
