"""Pipe dream tracing, enumeration, and both pipe dream formulas."""

import re
from itertools import combinations

import pytest

from qcalc.blockperm import composite, regions, target_states, zelevinsky_permutation
from qcalc.pipedream import (
    DHomViolation,
    PipeDream,
    RegionViolation,
    csm_pd,
    enumerate_pipe_dreams,
    quiver_poly_pd,
    region_cells,
)
from qcalc.poly import Poly, xvar
from qcalc.quiver import Dims, RankArray, hom_rank_array
from pipedream_reference import trace
from subword_reference import subword_subsets, taken


def _all_cells(d):
    return [(q, p) for q in range(1, d + 1) for p in range(1, d + 1) if q + p <= d]


def test_cross_region_check():
    with pytest.raises(RegionViolation):
        PipeDream(Dims((1, 1)), frozenset([(1, 2)]))
    with pytest.raises(RegionViolation):
        PipeDream(Dims((2, 1)), frozenset([(0, 1)]))


def test_trace_empty_is_identity():
    for d in range(1, 6):
        dream = PipeDream(Dims((d,)) if d == 1 else Dims((1, d - 1)), frozenset())
        assert trace(dream) == tuple(range(1, d + 1))


def test_trace_equals_subword_composite_exhaustive():
    """The trace of any dream is the ordered product of its cross letters,
    rows read bottom to top and west to east (all dreams with d <= 5)."""
    for r in [(5,), (1, 4), (2, 3), (1, 1, 3), (1, 2, 2), (1, 1, 1, 1, 1)]:
        dims = Dims(r)
        d = dims.d
        if d > 5:
            continue
        cells = _all_cells(d)
        order = sorted(cells, key=lambda c: (-c[0], c[1]))
        for size in range(len(cells) + 1):
            for chosen in combinations(cells, size):
                dream = PipeDream(dims, frozenset(chosen))
                word = tuple(q + p - 1 for q, p in order if (q, p) in dream.crosses)
                assert trace(dream) == composite(word, d)


def test_region_cells_reading_order():
    cells = region_cells(Dims((1, 2)), "full")
    assert cells == [(2, 1), (1, 1), (1, 2)]
    with pytest.raises(ValueError):
        region_cells(Dims((1, 2)), "banana")


def test_enumeration_oldpd_counts():
    dims = Dims((1, 3, 3, 1))
    r = RankArray(
        dims, {(0, 1): 1, (0, 2): 1, (0, 3): 0, (1, 2): 2, (1, 3): 1, (2, 3): 1}
    )
    z = zelevinsky_permutation(r)
    assert len(enumerate_pipe_dreams(dims, z, "full")) == 21
    assert len(enumerate_pipe_dreams(dims, z, "strict")) == 9


def test_enumeration_rejects_a_v_that_is_not_a_permutation():
    """v must be a permutation of 1..d; a short, a padded or an
    out-of-range v is named in a ValueError, not enumerated."""
    for v in [(2, 1), (0, 1, 2), (1, 2, 4), (1, 1, 2), (1, 2, 3, 4)]:
        for region in ("strict", "full"):
            with pytest.raises(ValueError, match=r"v = .* d = 3"):
                enumerate_pipe_dreams(Dims((1, 2)), v, region)
    assert len(enumerate_pipe_dreams(Dims((1, 2)), [1, 3, 2], "full")) == 2


def test_enumeration_traces_match():
    dims = Dims((2, 2, 1))
    r = RankArray(dims, {(0, 1): 1, (0, 2): 0, (1, 2): 1})
    z = zelevinsky_permutation(r)
    for dream in enumerate_pipe_dreams(dims, z, "strict"):
        assert trace(dream) == z
        assert len(dream.crosses) == len(
            [c for c in dream.crosses]
        )  # crosses are a set
    cells = region_cells(dims, "strict")
    letters = tuple(q + p - 1 for q, p in cells)
    found = list(subword_subsets(letters, dims.d, frozenset([z]), False))
    assert [J for J, _ in found] == list(taken(target_states(letters, z, False)))
    for J, v in found:
        assert trace(PipeDream(dims, frozenset(cells[k] for k in J))) == v == z


def test_csm_pd_121_hom():
    dims = Dims((1, 2, 1))
    a = Poly.var(xvar(0, 1))
    b1 = Poly.var(xvar(1, 1))
    b2 = Poly.var(xvar(1, 2))
    c = Poly.var(xvar(2, 1))
    h = Poly.hbar()
    expected = (
        h**4
        + h**2 * (a - b2) * (b2 - c)
        + h**2 * (a - b1) * (b1 - c)
        + h**3 * (a - b1)
        + h**3 * (b1 - c)
    )
    assert csm_pd(hom_rank_array(dims)) == expected


def test_dhom_violation(monkeypatch):
    """csm_pd raises DHomViolation when a dream of the orbit misses a
    D_Hom cell.  No orbit has one, so regions is patched, where the
    per-dims D_Hom mask reads it, to declare D_Hom a strict cell that an
    accepted subset skips."""
    from qcalc import localization
    from qcalc.blockperm import Regions, perm_set
    from qcalc.localization import grid_word

    r = hom_rank_array(Dims((1, 2, 1)))
    word = grid_word(r.dims)
    real = regions(r.dims)
    J, _ = next(subword_subsets(word.letters, r.dims.d, frozenset(perm_set(r)), False))
    cell = next(c for k, c in enumerate(word.cells) if k not in J)
    assert cell not in real.dhom_cells
    fake = Regions(real.strict_cells, real.dhom_cells | {cell})
    localization._dhom_mask.cache_clear()
    monkeypatch.setattr(localization, "regions", lambda dims: fake)
    try:
        with pytest.raises(DHomViolation, match=re.escape(f"miss cells {[cell]}")):
            csm_pd(r)
    finally:
        localization._dhom_mask.cache_clear()


def test_quiver_poly_pd_final_example():
    dims = Dims((2, 2, 1))
    r = RankArray(dims, {(0, 1): 1, (0, 2): 0, (1, 2): 1})
    a1 = Poly.var(xvar(0, 1))
    a2 = Poly.var(xvar(0, 2))
    b1 = Poly.var(xvar(1, 1))
    b2 = Poly.var(xvar(1, 2))
    c = Poly.var(xvar(2, 1))
    expected = (a1 - b2) * (a2 - b2) + (a2 - b1) * (b2 - c) + (a1 - b2) * (b2 - c)
    assert quiver_poly_pd(r) == expected


def test_leading_hbar_recovers_quiver_poly():
    from qcalc.blockperm import length

    for dims in [Dims((1, 2, 1)), Dims((2, 2, 1)), Dims((2, 1, 2))]:
        from qcalc.quiver import enumerate_rank_arrays

        reg = regions(dims)
        for r in enumerate_rank_arrays(dims):
            z = zelevinsky_permutation(r)
            csm = csm_pd(r)
            assert csm.hbar_coefficient(reg.L - length(z)) == quiver_poly_pd(r)
