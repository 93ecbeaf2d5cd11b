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
import time
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
    record.rule = verdict.rule
    record.image_rank = span.rank
    record.full_image = span.full
    record.agreement = verdict.small == (not span.full)
    record.witness_count = len(missing)
    # tuples: the JSON is the same as for lists, and they are smaller
    record.witnesses = [form.element(i) for i in missing[:MAX_WITNESSES]]
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
    tmp = config.out + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for s in symbols:
            fh.write(json.dumps(records[s], sort_keys=True) + "\n")
        fh.write(json.dumps(summary, sort_keys=True) + "\n")
    os.replace(tmp, config.out)
    return summary
