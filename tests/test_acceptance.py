"""End-to-end acceptance: every worked example and every property suite.

Each test covers one acceptance criterion and prints a single PASS line
when it succeeds; a failing criterion shows up as an ordinary pytest
failure for that test.
"""

from itertools import combinations, permutations

from cgpd_reference import cgpd_infinity
from qcalc.blockperm import composite, length, perm_set, regions, zelevinsky_permutation
from qcalc.cgpd import csm_cgpd, enumerate_cgpd, quiver_poly_cgpd
from qcalc.engine import check, sweep
from qcalc.localization import Word, ajs_billey, csm_restriction, grid_word, roots
from qcalc.pipedream import (
    PipeDream,
    csm_pd,
    enumerate_pipe_dreams,
    quiver_poly_pd,
)
from qcalc.localization import csm_ratio, quiver_poly_ratio
from qcalc.poly import Poly, xvar
from qcalc.quiver import (
    Dims,
    LaceArray,
    RankArray,
    enumerate_rank_arrays,
    hom_rank_array,
    lace_array,
    rank_array,
    zelevinsky_matrix,
)
from blockperm_reference import all_reduced_words, rothe_diagram
from pipedream_reference import trace
from quiver_reference import generic_representative, nw_rank_profile
from subword_reference import subword_subsets


def _report(n: int, text: str):
    print(f"criterion {n} PASS: {text}")


def test_criterion_1_lace_example():
    dims = Dims((4, 3, 3, 2))
    r = RankArray(
        dims, {(0, 1): 2, (0, 2): 1, (0, 3): 0, (1, 2): 2, (1, 3): 0, (2, 3): 1}
    )
    s = lace_array(r)
    expected = LaceArray(
        dims,
        {
            (0, 0): 2,
            (0, 1): 1,
            (0, 2): 1,
            (0, 3): 0,
            (1, 1): 0,
            (1, 2): 1,
            (1, 3): 0,
            (2, 2): 0,
            (2, 3): 1,
            (3, 3): 1,
        },
    )
    assert s == expected
    assert rank_array(s) == r
    _report(1, "dims (4,3,3,2) lace array matches entry for entry and inverts")


def test_criterion_2_zelevinsky_example():
    dims = Dims((3, 3, 2))
    z = zelevinsky_permutation(hom_rank_array(dims))
    assert z == (3, 4, 5, 1, 2, 6, 7, 8)
    diagram = rothe_diagram(z)
    assert len(diagram) == 6
    assert diagram == regions(dims).dhom_cells
    _report(2, "z(Hom) of dims (3,3,2) is 34512678 with the 6-cell Rothe diagram")


def test_criterion_3_oldpd_example():
    dims = Dims((1, 3, 3, 1))
    r = RankArray(
        dims, {(0, 1): 1, (0, 2): 1, (0, 3): 0, (1, 2): 2, (1, 3): 1, (2, 3): 1}
    )
    z = zelevinsky_permutation(r)
    assert z == (5, 2, 3, 6, 1, 4, 8, 7)
    assert len(enumerate_pipe_dreams(dims, z, "full")) == 21
    assert len(enumerate_pipe_dreams(dims, z, "strict")) == 9
    a1 = Poly.var(xvar(0, 1))
    b1, b2, b3 = (Poly.var(xvar(1, k)) for k in (1, 2, 3))
    c1, c2, c3 = (Poly.var(xvar(2, k)) for k in (1, 2, 3))
    d1 = Poly.var(xvar(3, 1))
    expected = ((a1 - b3) + (b3 - c3) + (c3 - d1)) * ((b1 - c3) + (b2 - c2) + (b3 - c1))
    assert quiver_poly_pd(r) == expected
    assert quiver_poly_ratio(r) == expected
    _report(3, "dims (1,3,3,1) pipe dream counts and quiver polynomial match")


def test_criterion_4_a3_example():
    dims = Dims((1, 2, 1))
    r = hom_rank_array(dims)
    assert sorted(perm_set(r)) == [
        (2, 1, 3, 4),
        (2, 3, 1, 4),
        (3, 1, 2, 4),
        (3, 2, 1, 4),
    ]
    targets = frozenset(perm_set(r))
    subsets = list(subword_subsets(grid_word(dims).letters, dims.d, targets, False))
    assert len(subsets) == 5
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
    assert csm_pd(r) == expected
    assert len(enumerate_cgpd(r)) == 3
    assert csm_cgpd(r) == expected
    assert csm_ratio(r) == expected
    _report(4, "dims (1,2,1) CSM class agrees across all three formulas")


def test_criterion_5_final_example():
    dims = Dims((2, 2, 1))
    r = RankArray(dims, {(0, 1): 1, (0, 2): 0, (1, 2): 1})
    z = zelevinsky_permutation(r)
    assert len(enumerate_pipe_dreams(dims, z, "strict")) == 3
    assert len(cgpd_infinity(r)) == 3
    a1, a2 = Poly.var(xvar(0, 1)), Poly.var(xvar(0, 2))
    b1, b2 = Poly.var(xvar(1, 1)), Poly.var(xvar(1, 2))
    c = Poly.var(xvar(2, 1))
    expected = (a1 - b2) * (a2 - b2) + (a2 - b1) * (b2 - c) + (a1 - b2) * (b2 - c)
    assert quiver_poly_pd(r) == expected
    assert quiver_poly_cgpd(r) == expected
    _report(5, "dims (2,2,1) counts and quiver polynomial match")


def test_criterion_6_perm_set_example():
    r = RankArray(Dims((1, 2)), {(0, 1): 1})
    assert sorted(perm_set(r)) == [(1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1)]
    _report(6, "dims (1,2) perm set is the four displayed permutations")


def test_criterion_7_property_sweep():
    reports = sweep(8)
    bad = [report for report in reports if not report.ok]
    assert not bad, [report.rank for report in bad]
    # dhom <= crosses holds for every enumerated dream: csm_pd raises on a
    # violation, and every report above ran it; spot re-check explicitly
    for dims in (Dims((1, 2, 1)), Dims((2, 2, 1)), Dims((1, 1, 1, 1))):
        dhom = regions(dims).dhom_cells
        word = grid_word(dims)
        for r in enumerate_rank_arrays(dims):
            targets = frozenset(perm_set(r))
            for J, _ in subword_subsets(word.letters, dims.d, targets, False):
                assert dhom <= {word.cells[k] for k in J}
    _report(7, f"budget-8 sweep: {len(reports)} orbits, six-way agreement and both laws")


def _restrictions_by_traversal(word: Word, d: int, reduced: bool) -> dict:
    """Restriction values at the word for every permutation at once."""
    betas = roots(word)
    hbar = Poly.hbar()
    L = len(word.letters)
    targets = frozenset(permutations(range(1, d + 1)))
    out: dict[tuple, Poly] = {}
    for J, v in subword_subsets(word.letters, d, targets, reduced):
        term = Poly.one() if reduced else hbar ** (L - len(J))
        for j in J:
            term = term * betas[j]
        out[v] = out.get(v, Poly.zero()) + term
    return out


def test_criterion_8a_word_independence():
    zvars4 = tuple(xvar(0, q) for q in (1, 2, 3, 4))
    zvars5 = tuple(xvar(0, q) for q in (1, 2, 3, 4, 5))
    cases = [(4, zvars4, tuple(w)) for w in permutations(range(1, 5))]
    cases += [
        (5, zvars5, tuple(w))
        for w in permutations(range(1, 6))
        if length(tuple(w)) <= 7
    ]
    for d, zvars, w in cases:
        words = all_reduced_words(w)
        baseline_red = baseline_all = None
        for letters in words:
            word = Word(letters, zvars)
            values_red = _restrictions_by_traversal(word, d, reduced=True)
            values_all = _restrictions_by_traversal(word, d, reduced=False)
            if baseline_red is None:
                baseline_red, baseline_all = values_red, values_all
                # the traversal reproduces the restriction operations
                for v in (w, tuple(range(1, d + 1))):
                    assert values_red.get(v, Poly.zero()) == ajs_billey(v, word)
                    assert values_all.get(v, Poly.zero()) == csm_restriction(v, word)
            else:
                assert values_red == baseline_red, (w, letters)
                assert values_all == baseline_all, (w, letters)
    _report(8, "(a) both restrictions are word independent for all words, l <= 7")


def test_criterion_8b_trace_is_subword_composite():
    for d in range(1, 6):
        dims = Dims((1,) * d) if d > 1 else Dims((1,))
        cells = [(q, p) for q in range(1, d + 1) for p in range(1, d + 1) if q + p <= d]
        order = sorted(cells, key=lambda c: (-c[0], c[1]))
        for size in range(len(cells) + 1):
            for chosen in combinations(cells, size):
                dream = PipeDream(dims, frozenset(chosen))
                word = tuple(q + p - 1 for q, p in order if (q, p) in dream.crosses)
                assert trace(dream) == composite(word, d)
    _report(8, "(b) trace equals the bottom-up subword composite for all d <= 5")


def test_criterion_8c_nw_rank_agreement():
    for dims in (Dims((3, 3, 2)), Dims((1, 2, 1))):
        d = dims.d
        for r in enumerate_rank_arrays(dims):
            z = zelevinsky_permutation(r)
            zmat = [
                [1 if z[q - 1] == p else 0 for p in range(1, d + 1)]
                for q in range(1, d + 1)
            ]
            rep = generic_representative(lace_array(r))
            assert nw_rank_profile(zelevinsky_matrix(rep)) == nw_rank_profile(zmat), r
    _report(8, "(c) generic orbit points realize the z(r) northwest rank profile")


def test_criterion_8d_zperm_is_minimal():
    def dims_up_to(total):
        out = []

        def rec(prefix, left):
            if len(prefix) >= 2:
                out.append(Dims(tuple(prefix)))
            for nxt in range(1, left + 1):
                rec(prefix + [nxt], left - nxt)

        for first in range(1, total + 1):
            rec([first], total - first)
        return out

    for dims in dims_up_to(6):
        for r in enumerate_rank_arrays(dims):
            z = zelevinsky_permutation(r)
            members = list(perm_set(r))
            shortest = min(length(v) for v in members)
            minimal = [v for v in members if length(v) == shortest]
            assert minimal == [z], r
    _report(8, "(d) z(r) is the unique minimal-length member of perm(r), d <= 6")
