"""check() against the mutants of tests/mutants.py over sweep(5)."""

from collections import Counter

import pytest

from qcalc.engine import check, sweep_dims
from qcalc.quiver import enumerate_rank_arrays
from mutants import MUTANTS


def _flags(report) -> list[str]:
    """The report fields that read False."""
    laws = {"degree_ok": report.degree_ok, "leading_ok": report.leading_ok}
    return [name for name, ok in {**report.equal, **laws}.items() if not ok]


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_mutants(mutant):
    """Under each mutant, as many reports fail as its row says, and each
    report field flags as many orbits; a control changes no report.
    One mutant over the 214 orbits takes about 0.2 s."""
    ranks = [r for dims in sweep_dims(5) for r in enumerate_rank_arrays(dims)]
    assert len(ranks) == 214
    with mutant.patch():
        reports = [check(r) for r in ranks]
    assert sum(not report.ok for report in reports) == mutant.failed
    assert Counter(f for report in reports for f in _flags(report)) == Counter(mutant.flags)
    if mutant.control:
        for report, r in zip(reports, ranks):
            assert report.polynomials == check(r).polynomials, r
