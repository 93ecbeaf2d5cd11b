import ctypes
import json
import os
import subprocess
import sys
from dataclasses import replace
from functools import partial
from itertools import takewhile
from pathlib import Path

import numpy as np
import pytest

import dft
from dft import sweep
from dft.classify import IsotropyGraph, build_graph_cached
from dft.cli import main
from dft.errors import BoundExceeded
from dft.exact import _certified_span
from dft.fqm import build_form
from dft.lifts import lift_span, prime_order_subgroups, span_columns
from dft.sweep import SweepConfig, run_sweep
from dft.symbols import enumerate_symbols, parse_symbol
from dft.verify import _certified_lift_span


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_info(capsys):
    code, out = run_cli(capsys, "info", "3^-1")
    assert code == 0
    assert out["order"] == 3 and out["level"] == 3 and out["signature"] == 2
    code, out = run_cli(capsys, "info", "1")
    assert code == 0
    assert (out["order"], out["level"], out["signature"]) == (1, 1, 0)


def test_info_invalid_symbol_exits_2(capsys):
    code, out = run_cli(capsys, "info", "2^+1")
    assert code == 2
    assert out["error"]["type"] == "ValidityError"


def test_syntax_error_exits_2(capsys):
    code, out = run_cli(capsys, "classify", "2_^1")
    assert code == 2
    assert out["error"]["type"] == "SymbolSyntaxError"


def test_classify(capsys):
    code, out = run_cli(capsys, "classify", "2_2^+6")
    assert code == 0 and out["small"] is True
    assert out["rule"].startswith("D3:")
    code, out = run_cli(capsys, "classify", "3^+6")
    assert code == 0 and out["small"] is False
    code, out = run_cli(capsys, "classify", "2_1^+1.3^-1")
    assert out["small"] is True and set(out["per_prime"]) == {"2", "3"}


def test_image(capsys):
    code, out = run_cli(capsys, "image", "2_II^+2", "--witnesses")
    assert code == 0
    assert out["rank"] == 2 and out["full_image"] is False
    assert out["graph_agrees"] is True
    assert [0, 0] in out["witnesses"] and [1, 1] in out["witnesses"]
    # two pair columns on four rows: two bipartite components, a path of
    # three rows and an isolated row, answered by one labelling
    assert (out["pair_components"], out["primes_used"], out["blocks"]) == (
        2, 0, 0)
    # the certified route on the same columns: two columns on four rows,
    # deficient, certified by the guided kernel without a prime
    form = build_form(parse_symbol("2_II^+2"))
    span = _certified_span(form.order,
                           span_columns(form, prime_order_subgroups(form)))
    assert (span.primes_used, span.guided_blocks) == (0, 1)
    assert (span.fallback_used, span.blocks, span.cholesky_blocks) == (
        False, 1, 0)
    assert span.pair_components == 0
    code, out = run_cli(capsys, "image", "2_II^-6")
    assert out["rank"] == 64 and out["full_image"] is True
    # 729 rows in three components of q, one group each, each certified
    # by the Cholesky test without a prime
    code, out = run_cli(capsys, "image", "3^+6")
    assert out["rank"] == 729 and out["full_image"] is True
    assert out["pair_components"] == 0
    assert (out["primes_used"], out["fallback_used"], out["blocks"]) == (
        0, False, 3)
    assert (out["cholesky_blocks"], out["guided_blocks"]) == (3, 0)
    # three components, none a copy of another
    assert (out["components"], out["distinct_components"]) == (3, 3)
    # 225 components: 216 lone columns, answered in closed form, and 9
    # copies of 1, one group of representatives
    code, out = run_cli(capsys, "image", "27^-2")
    assert out["rank"] == 297 and out["full_image"] is False
    assert (out["components"], out["distinct_components"]) == (9, 1)
    assert out["lone_columns"] == 216
    # of 9 rows and 9 columns, full rank: the Cholesky test certifies it
    assert (out["blocks"], out["primes_used"], out["guided_blocks"]) == (
        1, 0, 0)
    assert out["cholesky_blocks"] == 1
    # three groups: two full rank by the Cholesky test, one deficient
    # certified by the guided kernel; no prime at all
    code, out = run_cli(capsys, "image", "3^-5")
    assert (out["rank"], out["blocks"], out["cholesky_blocks"]) == (237, 3, 2)
    assert (out["guided_blocks"], out["primes_used"]) == (1, 0)


def test_image_graph_agrees_can_fail(capsys, monkeypatch):
    # the graph is compared with the certified route, not with the span
    # read off the graph itself: one flipped member is seen
    certified = dft.cli._certified_lift_span

    def flipped(form):
        span = certified(form)
        membership = span.membership.copy()
        membership[0] = not membership[0]
        return replace(span, membership=membership)

    monkeypatch.setattr(dft.cli, "_certified_lift_span", flipped)
    code, out = run_cli(capsys, "image", "2_II^+2")
    assert code == 0 and out["graph_agrees"] is False


def _count_calls(monkeypatch, fn) -> list:
    """The calls of ``fn`` from now on, through every name a ``dft``
    module binds it to."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "dft" or name.startswith("dft."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counted)
    return calls


@pytest.mark.parametrize("via_cli", [True, False])
def test_columns_and_labelling_are_built_once(capsys, monkeypatch, via_cli):
    # the span, the graph and the certified route (graph_agrees) share
    # the columns the form keeps, and the graph reads the span's labelling
    columns = _count_calls(monkeypatch, dft.lifts.span_columns)
    labellings = _count_calls(monkeypatch, dft.exact.bipartite_components)
    if via_cli:
        code, out = run_cli(capsys, "image", "2_II^+4")
        assert code == 0 and out["graph_agrees"] is True
    else:
        form = build_form(parse_symbol("2_II^+4"))
        build_graph_cached(form)
        lift_span(form)
        _certified_lift_span(form)
    assert (len(columns), len(labellings)) == (1, 1)


def test_image_per_element(capsys):
    code, out = run_cli(capsys, "image", "2_II^+2", "--per-element")
    assert code == 0
    assert out["members"]["(1, 1)"] is False


def _no_build(sym):
    raise AssertionError(f"{sym} was built")


def test_bound_exceeded_exits_3(capsys, monkeypatch):
    monkeypatch.setenv("DFT_MAX_SPAN_ORDER", "16")
    code, out = run_cli(capsys, "image", "2_II^+6")
    assert code == 3
    assert out["error"]["type"] == "BoundExceeded"
    # the bound is checked before the form is built
    monkeypatch.delenv("DFT_MAX_SPAN_ORDER")
    monkeypatch.setattr("dft.cli.build_form", _no_build)
    for argv in (("image", "3^+12"), ("graph", "2_II^+14")):
        code, out = run_cli(capsys, *argv)
        assert code == 3 and out["error"]["type"] == "BoundExceeded"


@pytest.mark.parametrize("command", ["info", "weil"])
def test_form_order_bound_exits_3(capsys, command):
    # 2^40 elements: refused from the symbol before any table is built
    code = main([command, "2_II^+40"])
    captured = capsys.readouterr()
    assert code == 3
    assert json.loads(captured.out)["error"]["type"] == "BoundExceeded"
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("value", ["abc", "0"])
def test_bad_bound_value_exits_2(capsys, monkeypatch, value):
    monkeypatch.setenv("DFT_MAX_SPAN_ORDER", value)
    code, out = run_cli(capsys, "image", "3^+1")
    assert code == 2
    assert out["error"]["type"] == "ValidityError"


def test_sweep_passes_bounds_without_touching_environment(tmp_path,
                                                          monkeypatch):
    monkeypatch.delenv("DFT_MAX_SPAN_ORDER", raising=False)
    monkeypatch.delenv("DFT_MAX_ENUM_ORDER", raising=False)
    before = dict(os.environ)
    run_sweep(SweepConfig(max_order=9, primes=(3,), span_order=9,
                          out=str(tmp_path / "s.jsonl")))
    assert dict(os.environ) == before
    # the workers see the configured bound: |D| = 9 exceeds a span bound 4
    for jobs in (1, 2):
        with pytest.raises(BoundExceeded):
            run_sweep(SweepConfig(max_order=9, primes=(3,), span_order=4,
                                  jobs=jobs, out=str(tmp_path / "t.jsonl")))
    assert dict(os.environ) == before


def test_sweep_hash_ignores_enumeration_and_cyclotomic_bounds(monkeypatch):
    # no sweep record reads either bound, so neither may split resume files
    config = SweepConfig(max_order=9, primes=(3,))
    before = config.config_hash()
    monkeypatch.setenv("DFT_MAX_ENUM_ORDER", "7")
    monkeypatch.setenv("DFT_MAX_CYCLO_ORDER", "5")
    assert SweepConfig(max_order=9, primes=(3,)).config_hash() == before


def test_graph_command(capsys, tmp_path, monkeypatch):
    dot = tmp_path / "g.dot"
    code, out = run_cli(capsys, "graph", "2_II^+2", "--dot", str(dot))
    assert code == 0
    assert out["components"] == 2 and out["vertices"] == 4
    assert out["edges"] == 2
    assert dot.read_text().startswith("graph isotropy {")
    # without --dot the summary comes from the edge array alone
    monkeypatch.setattr(IsotropyGraph, "neighbors", property(
        lambda self: pytest.fail("per-vertex lists were built")))
    code, out = run_cli(capsys, "graph", "2_II^+2")
    assert (code, out["edges"], out["components"]) == (0, 2, 2)


def test_graph_rejects_odd_level(capsys, monkeypatch):
    code, out = run_cli(capsys, "graph", "3^-1")
    assert code == 1 and out["error"]["type"] == "NotTwoAdic"
    assert out["error"]["message"] == "level 3 is not a power of 2"
    monkeypatch.setattr("dft.cli.build_form", _no_build)
    code, out = run_cli(capsys, "graph", "3^+12")
    assert code == 1 and out["error"]["type"] == "NotTwoAdic"


def test_weil_check(capsys):
    code, out = run_cli(capsys, "weil", "2_1^+1", "--check")
    assert code == 0 and out["all_pass"] is True


def test_verify_unknown_suite_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nonsense"])
    assert exc.value.code == 2


def _strip_timing(path):
    """The lines of a sweep file without their ``elapsed_ms`` fields."""
    lines = []
    for line in path.read_text().splitlines():
        rec = json.loads(line)
        rec.pop("elapsed_ms", None)
        lines.append(json.dumps(rec, sort_keys=True))
    return lines


def test_sweep_cli_and_determinism(tmp_path, capsys):
    out1 = tmp_path / "a.jsonl"
    out2 = tmp_path / "b.jsonl"
    code, summary = run_cli(capsys, "classify-sweep", "--max-order", "27",
                            "--primes", "3", "--out", str(out1))
    assert code == 0
    assert summary["disagreements"] == []
    code, _ = run_cli(capsys, "classify-sweep", "--max-order", "27",
                      "--primes", "3", "--out", str(out2), "--jobs", "3")
    assert code == 0
    assert _strip_timing(out1) == _strip_timing(out2)


def test_sweep_resume_equals_fresh(tmp_path):
    fresh = tmp_path / "fresh.jsonl"
    run_sweep(SweepConfig(max_order=16, primes=(2,), out=str(fresh)))
    partial = tmp_path / "partial.jsonl"
    # seed a partial file: header plus a strict subset of records
    lines = fresh.read_text().splitlines()
    partial.write_text("\n".join(lines[:5]) + "\n")
    reused = []
    summary = run_sweep(SweepConfig(max_order=16, primes=(2,),
                                    out=str(partial), resume=True),
                        log=reused.append)
    assert summary["disagreements"] == []
    assert any("reused 4" in line for line in reused)
    assert _strip_timing(fresh) == _strip_timing(partial)


def test_sweep_resume_config_mismatch(tmp_path, capsys):
    out = tmp_path / "s.jsonl"
    run_sweep(SweepConfig(max_order=9, primes=(3,), out=str(out)))
    code, err = run_cli(capsys, "classify-sweep", "--max-order", "27",
                        "--primes", "3", "--out", str(out), "--resume")
    assert code == 2 and err["error"]["type"] == "ConfigError"


@pytest.mark.parametrize("option, value", [("--primes", "x"),
                                           ("--primes", "2,,3"),
                                           ("--primes", ""),
                                           ("--primes", "1"),
                                           ("--primes", "2,4"),
                                           ("--jobs", "0"),
                                           ("--out", "no/such/dir/o.jsonl"),
                                           ("--out", "d")])
def test_sweep_bad_option_exits_2(tmp_path, capsys, monkeypatch, option,
                                  value):
    # refused before any record is computed; an --out value is a path
    # under tmp_path, where "d" is a directory
    def refuse(*args, **kwargs):
        raise AssertionError("a record was computed")

    monkeypatch.setattr(sweep, "evaluate_symbol", refuse)
    (tmp_path / "d").mkdir()
    argv = {"--max-order": "9", "--primes": "3",
            "--out": str(tmp_path / "s.jsonl")}
    argv[option] = str(tmp_path / value) if option == "--out" else value
    code = main(["classify-sweep"] + [x for kv in argv.items() for x in kv])
    captured = capsys.readouterr()
    assert code == 2
    assert json.loads(captured.out)["error"]["type"] == "ConfigError"
    assert "Traceback" not in captured.err
    assert [p.name for p in tmp_path.rglob("*")] == ["d"]


def test_sweep_bound_exit_keeps_its_records(tmp_path, capsys, monkeypatch):
    # the sweep stops at the first |D| = 32 symbol; the header and the
    # records before it stay, and no summary is written
    monkeypatch.setenv("DFT_MAX_SPAN_ORDER", "16")
    out = tmp_path / "s.jsonl"
    code, err = run_cli(capsys, "classify-sweep", "--max-order", "32",
                        "--primes", "2", "--out", str(out))
    assert code == 3 and err["error"]["type"] == "BoundExceeded"
    header, *records = map(json.loads, out.read_text().splitlines())
    assert header["kind"] == "header"
    within = takewhile(lambda s: s.order <= 16, enumerate_symbols(32, (2,)))
    assert [rec["symbol"] for rec in records] == [str(s) for s in within]
    assert records and all(rec["kind"] == "record" for rec in records)


_evaluate = sweep.evaluate_symbol


def _evaluate_or_fail(bad, text, span_order=None):
    """``evaluate_symbol``, raising at the symbol ``bad``: a partial of it
    pickles, and forked pool workers fail at the same symbol."""
    if text == bad:
        raise RuntimeError(f"injected failure at {text}")
    return _evaluate(text, span_order)


@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_failure_keeps_records_and_resumes(tmp_path, monkeypatch, jobs):
    fresh = tmp_path / "fresh.jsonl"
    config = SweepConfig(max_order=81, primes=(3,), jobs=jobs, out=str(fresh))
    run_sweep(config)
    symbols = [json.loads(line)["symbol"]
               for line in fresh.read_text().splitlines()[1:-1]]
    # inside the second chunk of eight tasks of a pool
    k = 11
    assert len(symbols) > k + 8
    out = tmp_path / "s.jsonl"
    monkeypatch.setattr(sweep, "evaluate_symbol",
                        partial(_evaluate_or_fail, symbols[k]))
    with pytest.raises(RuntimeError, match="injected failure"):
        run_sweep(replace(config, out=str(out)))
    header, *records = map(json.loads, out.read_text().splitlines())
    assert header["kind"] == "header"
    assert [rec["symbol"] for rec in records] == symbols[:k]

    monkeypatch.setattr(sweep, "evaluate_symbol", _evaluate)
    log = []
    run_sweep(replace(config, out=str(out), resume=True), log=log.append)
    assert f"reused {k}," in log[0]
    assert _strip_timing(out) == _strip_timing(fresh)


def _blas_threads():
    lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
    get = lib.scipy_openblas_get_num_threads64_
    get.argtypes, get.restype = [], ctypes.c_int
    return get()


def _evaluate_with_threads(text, span_order=None):
    """``evaluate_symbol``, with the BLAS threads of the process that ran
    it."""
    return {**_evaluate(text, span_order), "blas_threads": _blas_threads()}


@pytest.mark.skipif(sweep._blas_threads_setter() is None,
                    reason="numpy has no bundled OpenBLAS")
def test_sweep_workers_run_one_blas_thread(tmp_path, monkeypatch):
    before = _blas_threads()
    monkeypatch.setattr(sweep, "evaluate_symbol", _evaluate_with_threads)
    out = tmp_path / "s.jsonl"
    run_sweep(SweepConfig(max_order=27, primes=(3,), jobs=2, out=str(out)))
    records = [json.loads(line) for line in out.read_text().splitlines()[1:-1]]
    assert len(records) > 1
    assert {rec["blas_threads"] for rec in records} == {1}
    assert _blas_threads() == before


@pytest.mark.parametrize("keep", [5, 0])
def test_sweep_resumes_past_a_cut_line(tmp_path, keep):
    # a kill mid-write leaves a last line without its newline: a record
    # after the header and four records, or the header itself
    fresh = tmp_path / "fresh.jsonl"
    config = SweepConfig(max_order=16, primes=(2,), out=str(fresh))
    run_sweep(config)
    lines = fresh.read_text().splitlines(keepends=True)
    out = tmp_path / "s.jsonl"
    out.write_text("".join(lines[:keep]) + lines[keep][:-9])
    log = []
    run_sweep(replace(config, out=str(out), resume=True), log=log.append)
    assert f"reused {max(keep - 1, 0)}," in log[0]
    assert _strip_timing(out) == _strip_timing(fresh)


def test_sweep_records_do_not_import_numpy_ma():
    # numpy.ma costs about 1.25 MB of resident memory in a sweep process;
    # the first one-dimensional np.unique (or np.isin through it) loads it
    code = ("import sys\n"
            "from dft.sweep import evaluate_symbol\n"
            "for text in ('2_II^+4.4_II^-2', '3^-6', '25^+2', '2_1^+1.3^-1'):\n"
            "    evaluate_symbol(text)\n"
            "print('numpy.ma' in sys.modules)\n")
    src = str(Path(dft.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_sweep_records_share_witnesses_and_rules():
    # a sweep holds every record: a witness list or rule seen before is
    # the same object (the JSON is checked by the determinism tests)
    first, again = (sweep.evaluate_symbol("3^-3") for _ in range(2))
    assert first["witness_count"] > 0
    assert again["witnesses"] is first["witnesses"]
    assert again["rule"] is first["rule"]


_SWEEP = ["classify-sweep", "--max-order", "9", "--primes", "3",
          "--out", "{tmp}/s.jsonl"]
_OTHER = "{tmp}/other.jsonl"        # a finished sweep of another config
# a resume of the configuration of other.jsonl, then the file to resume
_RESUME_OTHER = ["classify-sweep", "--max-order", "4", "--primes", "2",
                 "--resume", "--out"]
# resume files whose lines are valid JSON but no sweep lines: a header,
# then a record, that is no JSON object, and a record without a symbol;
# {header} is the header of other.jsonl
_DAMAGED = {"bad-header.jsonl": "[1]\n",
            "bad-record.jsonl": "{header}5\n",
            "no-symbol.jsonl": '{header}{{"kind": "record"}}\n'}

# (environment, argv, exit code, JSON error type); None for an argparse
# usage error, which prints its message on stderr and no JSON
_CONTRACT = [
    ({}, ["classify", "2_^1"], 2, "SymbolSyntaxError"),
    ({}, ["info", "6^+1"], 2, "ValidityError"),
    ({}, ["classify", "2_1^-1"], 2, "ValidityError"),
    ({}, ["info", "2_II^+40"], 3, "BoundExceeded"),
    ({}, ["image", "2_II^+14"], 3, "BoundExceeded"),
    ({}, ["graph", "2_II^+14"], 3, "BoundExceeded"),
    ({}, ["graph", "3^+1"], 1, "NotTwoAdic"),
    ({}, ["graph", "2_II^+2", "--dot", "{tmp}/no/such/x.dot"], 2,
     "ConfigError"),
    ({}, ["graph", "2_II^+2", "--dot", "{tmp}/d"], 2, "ConfigError"),
    ({"DFT_MAX_SPAN_ORDER": "abc"}, ["image", "3^+1"], 2, "ValidityError"),
    ({"DFT_MAX_ENUM_ORDER": "abc"}, ["info", "3^+1"], 2, "ValidityError"),
    ({"DFT_MAX_CYCLO_ORDER": "0"}, ["weil", "3^+1", "--check"], 2,
     "ValidityError"),
    ({"DFT_MAX_SPAN_ORDER": "-3"}, _SWEEP, 2, "ValidityError"),
    ({}, _SWEEP + ["--primes", "x"], 2, "ConfigError"),
    ({}, _SWEEP + ["--primes", "1"], 2, "ConfigError"),
    ({}, _SWEEP + ["--primes", "2,4"], 2, "ConfigError"),
    ({}, _SWEEP + ["--jobs", "0"], 2, "ConfigError"),
    ({}, _SWEEP + ["--out", "{tmp}/no/such/o.jsonl"], 2, "ConfigError"),
    ({}, _SWEEP + ["--out", "{tmp}/no/such/o.jsonl", "--resume"], 2,
     "ConfigError"),
    ({}, _SWEEP + ["--out", "{tmp}/d"], 2, "ConfigError"),
    ({}, _SWEEP + ["--out", "{tmp}/d", "--resume"], 2, "ConfigError"),
    ({}, _SWEEP + ["--out", _OTHER, "--resume"], 2, "ConfigError"),
    *(({}, _RESUME_OTHER + ["{tmp}/" + name], 2, "ConfigError")
      for name in _DAMAGED),
    ({}, ["verify", "--suite", "nope"], 2, None),
]


@pytest.mark.parametrize(
    "env, argv, code, error", _CONTRACT,
    ids=[" ".join([*(f"{k}={v}" for k, v in env.items()), *argv[:1],
                   *argv[len(_SWEEP) if argv[0] == "classify-sweep" else 1:]])
         for env, argv, _, _ in _CONTRACT])
def test_exit_code_contract(tmp_path, capsys, monkeypatch, env, argv, code,
                            error):
    for name in ("DFT_MAX_SPAN_ORDER", "DFT_MAX_ENUM_ORDER",
                 "DFT_MAX_CYCLO_ORDER"):
        monkeypatch.delenv(name, raising=False)
    (tmp_path / "d").mkdir()
    other = tmp_path / "other.jsonl"
    run_sweep(SweepConfig(max_order=4, primes=(2,), out=str(other)))
    header = other.read_text().splitlines(keepends=True)[0]
    for name, text in _DAMAGED.items():
        (tmp_path / name).write_text(text.format(header=header))
    files = sorted(p.name for p in tmp_path.iterdir())
    before = {name: (tmp_path / name).read_bytes()
              for name in files if name != "d"}
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    monkeypatch.setattr(sweep, "evaluate_symbol", _no_build)
    try:
        got = main([a.replace("{tmp}", str(tmp_path)) for a in argv])
    except SystemExit as exc:
        got = exc.code
    captured = capsys.readouterr()
    assert got == code
    if error:
        assert json.loads(captured.out)["error"]["type"] == error
    else:
        assert not captured.out and "usage:" in captured.err
    assert "Traceback" not in captured.err
    # no file is made, and a refused resume leaves its file as it was
    assert sorted(p.name for p in tmp_path.iterdir()) == files
    assert {name: (tmp_path / name).read_bytes() for name in before} == before
