"""Benchmark of the ``dft`` package: one workload per process.

    python3 perfbench/run.py --workload {sweep,checks} \
        --seed N --seconds S --trace {0,1}

Run from anywhere; the package is imported from ``src/`` next to this
directory.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it records the run's environment and details.

``--trace 0`` measures the end-to-end metrics.  Each workload has a fixed
list of items; the run makes passes over it in a closed loop, one item at
a time, each pass in a new order drawn from the seed, until ``S`` seconds
have passed (the first pass always completes).  ``items_per_s`` is the
median over the complete passes of items per second of the time the pass
spent in its items; the latency percentiles are taken over every item
run.  ``setup_s`` is the median over three fresh processes of the time
from the start of this script through importing numpy and ``dft`` and
building the item list.

The item time metrics are given at the host's reference speed: the times
of each pass are multiplied by ``harness.REFERENCE_MS`` over the time a
fixed reference work took beside them (see ``harness.measure``), because
a shared host's speed can swing by up to 1.8x for spells as long as a
run.  The info line gives the same figures unscaled, under ``unscaled``.
``setup_s`` is not scaled: a fresh process's import time followed the
reference work less closely than its own run-to-run noise.

``--trace 1`` measures the per-layer metrics over one pass: it runs each
item once untraced and once with a span around each call into a layer,
reports each layer's self time and counts, and reports the difference of
the two wall times as the tracing overhead.  The spans are written to
``perfbench/out/`` when the run ends.
"""

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 120
# The echelon's matrix products are blocks of at most 512 rows: a second
# BLAS thread on a two-CPU machine adds noise, not speed.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}

END_TO_END = (
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("item_ms_p50", "ms"),
    ("item_ms_tail", "ms"),
    ("peak_rss_mb", "MB"),
)

# (metric, unit, better)
PER_LAYER = (
    ("symbols.enumerate_s", "s", "lower"),
    ("symbols.parse_s", "s", "lower"),
    ("fqm.build_form_s", "s", "lower"),
    ("fqm.signature_s", "s", "lower"),
    ("fqm.quotient_form_s", "s", "lower"),
    ("fqm.quotient_form_calls", "count", "lower"),
    ("lifts.prime_order_subgroups_s", "s", "lower"),
    ("lifts.lines", "count", "lower"),
    ("lifts.span_columns_s", "s", "lower"),
    ("lifts.columns", "count", "lower"),
    ("lifts.lift_span_s", "s", "lower"),
    ("lifts.isotropic_subgroups_s", "s", "lower"),
    ("lifts.isotropic_subgroups", "count", "lower"),
    ("lifts.spans_agree_s", "s", "lower"),
    ("lifts.check_transitivity_s", "s", "lower"),
    ("lifts.transitivity_pairs", "count", "lower"),
    ("exact.span_s", "s", "lower"),
    ("exact.span_calls", "count", "lower"),
    ("exact.deficient", "count", "lower"),
    ("exact.kernel_vectors", "count", "lower"),
    ("exact.columns_per_rank", "ratio", "lower"),
    ("classify.small_type_s", "s", "lower"),
    ("classify.graph_s", "s", "lower"),
    ("classify.graph_edges", "count", "lower"),
    ("weil.check_relations_s", "s", "lower"),
    ("weil.check_relations_calls", "count", "lower"),
    ("weil.equivariance_s", "s", "lower"),
    ("weil.equivariance_pairs", "count", "lower"),
    ("sweep.evaluate_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.probe_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
)

class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["sweep", "checks"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="build the item list, print the seconds since this "
                    "script started and exit (used to time set-up)")
    return ap.parse_args(argv)


def prepare_environment() -> None:
    """Refuse configurations that change what is computed, pin BLAS to one
    thread and put the package from ``src/`` on the import path."""
    bound_vars = sorted(k for k in os.environ if k.startswith("DFT_MAX_"))
    if bound_vars:
        raise BenchError(
            f"{', '.join(bound_vars)} set: these change what dft computes "
            "(see src/dft/bounds.py); unset them to benchmark the defaults")
    os.environ.update(BLAS_THREADS)
    src = ROOT / "src"
    if not (src / "dft" / "__init__.py").is_file():
        raise BenchError(f"no dft package under {src}; run from a checkout "
                         "of the repository")
    sys.path[:0] = [str(src), str(HERE)]
    import dft
    if Path(dft.__file__).resolve().parent != (src / "dft").resolve():
        raise BenchError(f"imported dft from {dft.__file__}, not from {src}")


def metric(value, unit):
    return {"value": value, "unit": unit}


def setup_runs(args) -> list[float]:
    """Set-up times of ``SETUP_REPEATS`` fresh processes, one at a time."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(cmd, capture_output=True, text=True, check=True,
                              timeout=SETUP_TIMEOUT_S)
        times.append(float(proc.stdout.split()[-1]))
    return times


def time_figures(n_items, outcomes, pass_seconds, pass_scale):
    """The item time metrics, with the times of pass p multiplied by
    ``pass_scale[p]``."""
    from harness import item_ms_tail
    from workloads import TAIL_PCT
    ms = [o.ms * pass_scale[o.pass_no] for o in outcomes]
    tail, tail_label = item_ms_tail(ms, TAIL_PCT)
    return {
        "items_per_s": statistics.median(
            n_items / (s * pass_scale[p]) for p, s in enumerate(pass_seconds)),
        "item_ms_p50": statistics.median(ms),
        "item_ms_tail": tail,
    }, tail_label


def end_to_end(wl, args, import_s):
    from harness import REFERENCE_MS, measure, peak_rss_mb, shuffled
    setups = setup_runs(args)
    items = wl.setup()
    rng = random.Random(args.seed)
    start = time.perf_counter()
    outcomes, pass_seconds, pass_reference = measure(
        items, lambda: shuffled(items, rng), wl.run, wl.check, args.seconds)
    wall = time.perf_counter() - start
    measured = (len(items), outcomes, pass_seconds)
    values, tail_label = time_figures(
        *measured, [REFERENCE_MS / r for r in pass_reference])
    values["setup_s"] = statistics.median(setups)
    values["peak_rss_mb"] = peak_rss_mb()
    unscaled, _ = time_figures(*measured, [1.0] * len(pass_reference))
    details = {"tail": tail_label, "unscaled": unscaled, "wall_s": wall,
               "passes_s": pass_seconds, "reference_ms": pass_reference,
               "items": len(items), "setup_runs_s": setups,
               "import_s": import_s}
    return outcomes, {name: metric(values[name], unit)
                      for name, unit in END_TO_END}, details


def per_layer(wl, args):
    from harness import measure_paired, shuffled
    from tracer import Tracer, layer_totals
    tr = Tracer()
    with tr.span("setup"):
        items = wl.setup(tr)
    order = shuffled(items, random.Random(args.seed))

    def traced(item):
        with tr.span("item", item=item.id):
            return wl.traced(item, tr)

    outcomes, plain_wall, traced_wall = measure_paired(
        items, order, wl.run, traced, wl.check)
    totals = layer_totals(tr.spans)
    values = {}
    for name, unit, _ in PER_LAYER:
        base = name[:-2]
        if unit == "s" and base in totals:
            values[name] = totals[base][0]
    values.update(tr.counts)
    values["fqm.quotient_form_calls"] = totals.get("fqm.quotient_form", (0, 0))[1]
    rank = tr.counts["exact.rank"]
    values["exact.columns_per_rank"] = tr.counts["exact.columns"] / rank \
        if rank else 0.0
    values["trace.overhead_s"] = traced_wall - plain_wall
    values["trace.overhead_frac"] = traced_wall / plain_wall - 1
    values["trace.probe_s"] = sum(s.duration for s in tr.spans if s.probe)
    values["trace.spans"] = len(tr.spans)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    trace_file = out_dir / f"trace-{wl.name}-seed{args.seed}.jsonl"
    tr.write(trace_file)
    details = {"items": len(order), "untraced_wall_s": plain_wall,
               "traced_wall_s": traced_wall,
               "trace_file": str(trace_file.relative_to(ROOT))}
    return outcomes, {name: metric(values.get(name, 0.0), unit)
                      for name, unit, _ in PER_LAYER}, details


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        prepare_environment()
        from harness import environment
        from workloads import WORKLOADS
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _T_START
    wl = WORKLOADS[args.workload]
    if args.setup_only:
        wl.setup()
        print(time.perf_counter() - _T_START)
        return 0
    if args.trace:
        outcomes, metrics, details = per_layer(wl, args)
    else:
        outcomes, metrics, details = end_to_end(wl, args, import_s)
    failures = [o for o in outcomes if not o.ok]
    for o in failures[:10]:
        print(f"perfbench: FAILED {o.item.id}: {o.error}", file=sys.stderr)
    info = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "attempted": len(outcomes),
            "failed_frac": len(failures) / len(outcomes), **details,
            "env": environment(ROOT, BLAS_THREADS)}
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": not failures, "attempted": len(outcomes),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
