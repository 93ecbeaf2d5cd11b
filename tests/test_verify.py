import numpy as np
import pytest

from dft import verify
from dft.errors import HypothesisFailed
from dft.fqm import build_form
from dft.symbols import enumerate_symbols


def test_suites_name_registered_checks():
    names = [name for suite in verify.SUITES.values() for name in suite]
    assert sorted(names) == sorted(verify.CHECKS)


# the registry entries no other test runs, at their CLI defaults
@pytest.mark.parametrize("name", [
    "membership-needs-two-lines", "orthogonal-pair-forces-membership",
    "odd-p-membership-iff-pair", "rank7-never-small",
    "conductor-independence"])
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
