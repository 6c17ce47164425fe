"""check() against the mutants of tests/mutants.py over sweep(5)."""

from collections import Counter

import pytest

from qcalc.engine import check, sweep_dims
from qcalc.quiver import enumerate_rank_arrays
from mutants import MUTANTS


@pytest.fixture(scope="module")
def unpatched():
    """The ranks of sweep(5) and the polynomials of each, unpatched."""
    ranks = [r for dims in sweep_dims(5) for r in enumerate_rank_arrays(dims)]
    assert len(ranks) == 214
    return ranks, [check(r).polynomials for r in ranks]


def _flags(report) -> list[str]:
    """The verdicts of the report that read False."""
    return [name for name, ok in {**report.equal, **report.laws}.items() if not ok]


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_mutants(mutant, unpatched):
    """Under each mutant, as many reports fail as its row says, each
    verdict flags as many orbits, and as many orbits' polynomials differ
    from the unpatched ones; a control changes no report.  One mutant
    over the 214 orbits takes about 0.2 s."""
    ranks, polynomials = unpatched
    with mutant.patch():
        reports = [check(r) for r in ranks]
    assert sum(not report.ok for report in reports) == mutant.failed
    assert Counter(f for report in reports for f in _flags(report)) == Counter(mutant.flags)
    assert sum(report.polynomials != p for report, p in zip(reports, polynomials)) == mutant.changed
    # a row that changes polynomials unflagged names the item to catch it
    assert bool(mutant.missed_until) == (mutant.changed > 0 and mutant.failed == 0)
