import numpy as np
import pytest

from dft import verify
from dft.errors import HypothesisFailed
from dft.fqm import build_form
from dft.lifts import isotropic_subgroups
from dft.symbols import enumerate_symbols, parse_symbol


def test_suites_name_registered_checks():
    names = [name for suite in verify.SUITES.values() for name in suite]
    assert sorted(names) == sorted(verify.CHECKS)


# the registry entries no other test runs, at their CLI defaults
@pytest.mark.parametrize("name", [
    "membership-needs-two-lines", "orthogonal-pair-forces-membership",
    "odd-p-membership-iff-pair", "rank7-never-small",
    "conductor-independence", "pair-span-matches-certified"])
def test_check_passes_at_its_default(name):
    res = verify.CHECKS[name]()
    assert res.passed, res.detail


def test_failing_check_reports_its_registry_name(monkeypatch):
    def broken():
        raise HypothesisFailed("planted")

    monkeypatch.setitem(verify.CHECKS, "lift-equivariance", broken)
    monkeypatch.setitem(verify.SUITES, "relations", ("lift-equivariance",))
    [res] = verify.run_suite("relations", log=None)
    assert res == verify.CheckResult("lift-equivariance", False,
                                     "HypothesisFailed: planted")


def test_odd_p_hypothesis_mask_matches_definition():
    for p in (3, 5):
        for sym in enumerate_symbols(125, {p}):
            form = build_form(sym)
            want = []
            for e in form.elements:
                o = form.element_order(e)
                qv = form.q(e)
                want.append(o <= p or
                            qv.numerator * (o // qv.denominator) % p == 0)
            assert np.array_equal(verify._odd_p_hypothesis_mask(form, p),
                                  want), str(sym)


def _nested_pairs_by_isin(form):
    """The pairwise loop: one containment test per ordered pair."""
    subs = isotropic_subgroups(form)
    return [(H, K) for H in subs for K in subs
            if K.order > H.order and np.isin(H.indices, K.indices).all()]


def test_nested_pairs_match_the_pairwise_loop():
    pairs = 0
    for sym in enumerate_symbols(64, {2, 3, 5}):
        form = build_form(sym)
        got = [(H.indices.tobytes(), K.indices.tobytes())
               for H, K in verify._nested_pairs(form)]
        want = [(H.indices.tobytes(), K.indices.tobytes())
                for H, K in _nested_pairs_by_isin(form)]
        assert got == want, str(sym)
        pairs += len(got)
    assert pairs > 4000


def test_form_cache_lives_for_one_suite_or_one_check(monkeypatch):
    sym = parse_symbol("3^+2")
    seen = []

    def probe():
        seen.append((verify.form_of(sym), verify.form_of(sym)))
        return True, "probe"

    verify._check("probe")(probe)
    monkeypatch.setitem(verify.CHECKS, "probe", verify.CHECKS["probe"])
    monkeypatch.setitem(verify.SUITES, "relations", ("probe", "probe"))
    verify.run_suite("relations", log=None)
    verify.CHECKS["probe"]()
    (a, b), (c, _), (d, e) = seen
    # one form per suite run, and one per check run on its own
    assert a is b is c and d is e and d is not a
    # nothing is kept once they return, and no scope is open outside them
    assert verify._forms is None
    assert verify.form_of(sym) is not verify.form_of(sym)
