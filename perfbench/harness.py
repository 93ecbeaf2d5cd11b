"""Workload-independent parts of the benchmark: item subsets and order,
the timed loop, latency statistics and the run environment."""

from __future__ import annotations

import os
import platform
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable


@dataclass
class Item:
    """One unit of timed work.

    ``cost`` is a sort key that orders items by expected cost; it is used
    only to pick a subset that keeps the spread of costs, never to pick
    which answers are checked.
    ``expected`` is the stored reference answer.
    """

    id: str
    cost: tuple
    args: tuple
    expected: Any


# ---------------------------------------------------------------------------
# item subsets and order
# ---------------------------------------------------------------------------


def cost_subset(items: list[Item], step: int) -> list[Item]:
    """Every ``step``-th item in order of cost.

    A fixed subset that keeps the spread of costs of the whole list; it is
    the same for every seed, so runs with different seeds time the same
    work.
    """
    return sorted(items, key=lambda it: (it.cost, it.id))[::step]


def shuffled(items: list[Item], rng: random.Random) -> list[int]:
    """One pass over all items in an order drawn from ``rng``."""
    return rng.sample(range(len(items)), len(items))


# ---------------------------------------------------------------------------
# latency statistics
# ---------------------------------------------------------------------------


def percentile(samples, pct: float) -> float:
    """Linear-interpolated percentile of a non-empty sample."""
    xs = sorted(samples)
    if not xs:
        raise ValueError("percentile of an empty sample")
    pos = (len(xs) - 1) * pct / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def supports(n: int, pct: int) -> bool:
    """Whether ``n`` samples leave at least 10 beyond the ``pct`` percentile."""
    return n * (100 - pct) >= 1000


def tail_pct(n: int) -> int | None:
    """The highest of p99 and p90 with at least 10 samples beyond it, or
    None (use the slowest item) for runs of fewer than 100 items."""
    for pct in (99, 90):
        if supports(n, pct):
            return pct
    return None


def item_ms_tail(samples_ms, fixed_pct: int | None) -> tuple[float, str]:
    """Tail latency and the label of the statistic used.

    ``fixed_pct`` is the percentile the workload fixes; a run too short to
    support it falls back to the highest percentile it does support, and a
    run of fewer than 100 items reports its slowest item.
    """
    n = len(samples_ms)
    pct = fixed_pct if fixed_pct is not None and supports(n, fixed_pct) \
        else tail_pct(n)
    if pct is None:
        return max(samples_ms), "max"
    return percentile(samples_ms, pct), f"p{pct}"


# ---------------------------------------------------------------------------
# the timed loop
# ---------------------------------------------------------------------------

# On a shared host the speed a process gets changes by itself: on a 2-vCPU
# cloud VM (Intel Xeon) it swung by up to 1.8x, in spells from under a
# second to over a minute, so a spell can cover a whole run.  A fixed
# reference work, timed between the items, slows and speeds up with the
# host; program times multiplied by REFERENCE_MS over its current time
# read the same in slow and fast spells.
REFERENCE_LOOP = 4000
REFERENCE_MS = 1.0      # scaled times assume the reference work takes this
GAUGE_EVERY = 10        # items between two timings of the reference work


@dataclass
class Outcome:
    item: Item
    ms: float
    ok: bool
    error: str | None = None
    pass_no: int = 0


def _run_item(item, run, clock):
    t0 = clock()
    try:
        answer, error = run(item), None
    except Exception as exc:  # a failing item is counted, not fatal
        answer, error = None, f"{type(exc).__name__}: {exc}"
    return item, 1000 * (clock() - t0), answer, error


def _check(answers, check) -> list[Outcome]:
    outcomes = []
    for item, ms, answer, error in answers:
        ok = error is None and check(item, answer)
        if error is None and not ok:
            error = "answer differs from the stored reference"
        outcomes.append(Outcome(item, ms, ok, error))
    return outcomes


def reference_work() -> int:
    """A fixed pure-Python loop of integer and dict work."""
    seen: dict[int, int] = {}
    acc = 0
    for i in range(REFERENCE_LOOP):
        v = (i * i + 7 * i) % 997
        seen[v] = seen.get(v, 0) + 1
        acc += v
    return acc + len(seen)


def reference_ms(clock=time.perf_counter) -> float:
    """Time in ms of one run of the reference work."""
    t0 = clock()
    reference_work()
    return 1000 * (clock() - t0)


def measure(items: list[Item], next_order: Callable[[], list[int]],
            run: Callable[[Item], Any], check: Callable[[Item, Any], bool],
            seconds: float, gauge: Callable[[], float] = reference_ms,
            clock=time.perf_counter
            ) -> tuple[list[Outcome], list[float], list[float]]:
    """Closed loop of passes over ``items`` until ``seconds`` have passed.

    Each pass runs every item once, in the order ``next_order()`` returns.
    The first pass always completes; a later one stops when the time is
    up.  Before every ``GAUGE_EVERY``-th item of a pass, ``gauge()`` times
    the reference work.  An item that raises, or whose answer ``check``
    rejects against the stored reference, counts as failed and the loop
    goes on; answers are checked after the loop.

    Returns the outcome of every run (``pass_no`` says in which pass), the
    seconds each complete pass spent in its items, and for each pass the
    median of its reference-work times in ms.
    """
    answers = []
    pass_of = []
    pass_seconds = []
    pass_reference_ms = []
    start = clock()
    while not pass_seconds or clock() - start < seconds:
        gauged = []
        busy = 0.0
        for n, k in enumerate(next_order()):
            if pass_seconds and clock() - start >= seconds:
                break
            if n % GAUGE_EVERY == 0:
                gauged.append(gauge())
            answers.append(_run_item(items[k], run, clock))
            pass_of.append(len(pass_reference_ms))
            busy += answers[-1][1] / 1000
        else:
            pass_seconds.append(busy)
        if gauged:
            pass_reference_ms.append(statistics.median(gauged))
    outcomes = _check(answers, check)
    for o, p in zip(outcomes, pass_of):
        o.pass_no = p
    return outcomes, pass_seconds, pass_reference_ms


def measure_paired(items: list[Item], order: list[int],
                   run: Callable[[Item], Any], traced: Callable[[Item], Any],
                   check: Callable[[Item, Any], bool],
                   clock=time.perf_counter):
    """Each item of ``order`` once untraced and once traced, alternating
    which goes first, so that both see the same warm process-wide caches.
    Returns the outcomes and the two wall times."""
    answers = []
    walls = [0.0, 0.0]
    for k, index in enumerate(order):
        for side in ((0, 1) if k % 2 == 0 else (1, 0)):
            answers.append(_run_item(items[index], (run, traced)[side], clock))
            walls[side] += answers[-1][1] / 1000
    return _check(answers, check), walls[0], walls[1]


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from ``.git`` without starting git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: Path, blas_threads: dict) -> dict:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # show_config layout differs across numpy versions
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": blas_threads,
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "git_commit": _git_commit(root),
        "argv": sys.argv[1:],
    }
