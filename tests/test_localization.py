"""Fixed-point restrictions of Schubert and Schubert-cell classes and the
ratio formulas built from them."""

import hashlib
import re
from itertools import groupby, permutations

import pytest

from qcalc import localization
from qcalc.blockperm import (
    composite,
    length,
    perm_set,
    regions,
    subword_states,
    target_states,
    zelevinsky_permutation,
)
from qcalc.cgpd import _tile_weights
from qcalc.engine import METHODS, check, sweep_dims
from qcalc.localization import (
    DHomViolation,
    NotReducedWord,
    Word,
    _cancel_hom,
    _forced_sum,
    _grid_takes,
    _hom_factored,
    ajs_billey,
    csm_ratio,
    csm_restriction,
    grid_word,
    orbit_reduced_states,
    orbit_states,
    quiver_poly_ratio,
    roots,
    subword_pairs,
)
from qcalc.pipedream import _cell_pairs, csm_pd, quiver_poly_pd
from qcalc.poly import Poly, format_poly, xvar
from qcalc.quiver import (
    Dims,
    Orbit,
    RankArray,
    enumerate_rank_arrays,
    hom_rank_array,
    parse_input,
)
from qcalc.states import state_sum
from blockperm_reference import all_reduced_words, block_w0, compose, w0
from poly_reference import items
from test_blockperm import QPOLY_LARGE
from subword_reference import subword_subsets, taken


def generic_word(letters: tuple[int, ...], d: int) -> Word:
    """A word over the flat alphabet z_q = x^0_q, for convention tests."""
    return Word(tuple(letters), tuple(xvar(0, q) for q in range(1, d + 1)))


def test_grid_word_value():
    for dims in [Dims((1, 1)), Dims((1, 2, 1)), Dims((3, 3, 2)), Dims((1, 3, 3, 1))]:
        word = grid_word(dims)
        assert word.value() == compose(w0(dims.d), block_w0(dims))
        assert length(word.value()) == len(word.letters)


def test_grid_roots_are_cell_labels():
    """The root at each grid word position is that cell's row label minus
    its column label."""
    for dims in [Dims((1, 2, 1)), Dims((2, 2)), Dims((1, 1, 2)), Dims((2, 2, 1))]:
        word = grid_word(dims)
        betas = roots(word)
        assert word.cells is not None
        for (q, p), beta in zip(word.cells, betas):
            assert beta == Poly.var(xvar(*dims.rows[q - 1])) - Poly.var(xvar(*dims.cols[p - 1]))


def test_restrictions_reject_non_reduced_words():
    word = generic_word((1, 1), 2)
    with pytest.raises(NotReducedWord):
        ajs_billey((2, 1), word)
    with pytest.raises(NotReducedWord):
        csm_restriction((2, 1), word)


def test_restriction_of_identity():
    word = generic_word((1, 2, 1), 3)
    assert ajs_billey((1, 2, 3), word) == Poly.one()
    h = Poly.hbar()
    z1, z2, z3 = (Poly.var(xvar(0, q)) for q in (1, 2, 3))
    # the empty subword and the non-reduced subword at positions {0, 2}
    assert csm_restriction((1, 2, 3), word) == h**3 + (z1 - z2) * (z2 - z3) * h


def test_vanishing_above_the_word():
    """The restriction of a Schubert class at a shorter fixed point is 0."""
    word = generic_word((1, 2), 3)  # value 231? the product s1 s2
    for v in permutations(range(1, 4)):
        if length(tuple(v)) > 2:
            assert ajs_billey(tuple(v), word) == Poly.zero()
            assert csm_restriction(tuple(v), word) == Poly.zero()


def test_word_independence_s4():
    """Restrictions depend only on the word's value, not the word."""
    for wperm in permutations(range(1, 5)):
        words = all_reduced_words(tuple(wperm))
        if len(words) < 2:
            continue
        first = Word(words[0], tuple(xvar(0, q) for q in (1, 2, 3, 4)))
        for other in words[1:]:
            word = Word(other, first.zvars)
            for v in permutations(range(1, 5)):
                assert ajs_billey(tuple(v), word) == ajs_billey(tuple(v), first)
                assert csm_restriction(tuple(v), word) == csm_restriction(
                    tuple(v), first
                )


def test_quiver_poly_ratio_11():
    dims = Dims((1, 1))
    zero = RankArray(dims, {(0, 1): 0})
    a = Poly.var(xvar(0, 1))
    b = Poly.var(xvar(1, 1))
    assert quiver_poly_ratio(zero) == a - b
    assert quiver_poly_ratio(hom_rank_array(dims)) == Poly.one()


def test_csm_ratio_121_hom():
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
    assert csm_ratio(hom_rank_array(dims)) == expected


def test_ratio_agrees_with_pipe_dreams():
    for dims in [Dims((1, 2, 1)), Dims((2, 2, 1)), Dims((2, 1, 2))]:
        for r in enumerate_rank_arrays(dims):
            assert quiver_poly_ratio(r) == quiver_poly_pd(r)
            assert csm_ratio(r) == csm_pd(r)


def test_csm_restriction_h_grading():
    """Each subword with |J| letters contributes degree |J| in the roots
    and L - |J| in h, so every term has total degree L."""
    word = generic_word((1, 2, 1), 3)
    for v in permutations(range(1, 4)):
        p = csm_restriction(tuple(v), word)
        assert all(
            sum(e for _, e in mono) == 3 for mono, _ in items(p)
        )


def test_orbit_subwords_order_pinned():
    """States.paths walks the strict subwords in a fixed order,
    which `qcalc enum --what pd` prints; polynomial checks cannot see
    it.  The digest was captured at commit a8098bf from the subword
    search that subword_reference keeps, which lists the same (J, v)
    pairs in the same order, over
    both walks of each orbit: target_states toward z(r), reduced, and
    subword_states toward perm(r), all subsets, v the product of J."""
    ranks = [r for dims in sweep_dims(5) for r in enumerate_rank_arrays(dims)]
    ranks.append(parse_input({"dims": [2, 3, 3], "rank": {"0,1": 1, "0,2": 0, "1,2": 1}}))
    digest = hashlib.sha256()
    pairs = 0
    for r in ranks:
        letters = grid_word(r.dims).letters
        z = zelevinsky_permutation(r)
        reduced = [(J, z) for J in taken(target_states(letters, z, True))]
        every = [
            (J, composite(tuple(letters[k] for k in J), r.dims.d))
            for J in taken(subword_states(letters, r))
        ]
        for found in (reduced, every):
            pairs += len(found)
            digest.update(repr(found).encode())
    assert (len(ranks), pairs) == (215, 1915)
    assert digest.hexdigest() == (
        "c05701e3c40ee681cbb9294a2afd1716c1c47b69aad0a4f689d80f823dff8195"
    )


def _subset_sum(subsets: list, weights: list, L: int, skip: Poly) -> Poly:
    """The sum over the listed subsets J of the product of weights[j]
    over j in J times skip^(L - |J|), grouped by common prefixes: the
    subsets starting with position f share the factor
    skip^(f - start) weights[f].  Nothing is merged that the subsets do
    not share."""

    def rec(suffixes: list, start: int) -> Poly:
        parts = []
        for f, group in groupby(sorted(suffixes), key=lambda J: J[0] if J else L):
            if f == L:
                parts.append(skip ** (L - start))
            else:
                rest = rec([J[1:] for J in group], f + 1)
                parts.append(skip ** (f - start) * weights[f] * rest)
        return Poly.sum(parts)

    return rec(subsets, 0)


def test_state_sum_matches_subset_sum():
    """All four subword formulas sum over states; the reference lists the
    subsets with subword_subsets and weighs each one.  csm_pd and
    csm_ratio: every subset toward perm(r), a skipped position weighing
    h.  quiver_poly_pd and quiver_poly_ratio: the reduced subwords
    toward {z(r)}, a skipped position weighing 1.  The positions every
    subset takes (the D_Hom cells among them) weigh 1 in the sum and are
    multiplied in afterwards, for pd as cell labels, for ratio by the
    Hom cancellation; pd weighs a D_Hom cell by 1 throughout.  The cell
    labels are the roots, so one sum serves both.  Every orbit of
    sweep(6) and of dims (2,3,3).

    The CSM walk takes its weights divided by h, a take weight 1 left
    undivided (subword_pairs).  It is exact there too where some subset
    skips the letter: on sweep(6), the walk with the common positions
    and the first skipped one weighing Poly.one() and every other the
    label over h is the subset sum with those takes weighing 1."""
    ranks = [r for dims in sweep_dims(6) for r in enumerate_rank_arrays(dims)]
    small = len(ranks)
    ranks += enumerate_rank_arrays(Dims((2, 3, 3)))
    for n, r in enumerate(ranks):
        dims = r.dims
        word = grid_word(dims)
        L = len(word.letters)
        dhom = regions(dims).dhom_cells
        labels = [
            Poly.var_diff(xvar(*dims.rows[q - 1]), xvar(*dims.cols[p - 1])) for q, p in word.cells
        ]
        assert labels == roots(word)
        report = check(r) if n < small else None
        for reduced, skip in ((False, Poly.hbar()), (True, Poly.one())):
            targets = [zelevinsky_permutation(r)] if reduced else perm_set(r)
            found = subword_subsets(word.letters, dims.d, frozenset(targets), reduced)
            subsets = [J for J, _ in found]
            common = frozenset(subsets[0]).intersection(*subsets[1:])
            assert dhom <= {word.cells[j] for j in common}
            weights = [1 if j in common else w for j, w in enumerate(labels)]
            rest = _subset_sum(subsets, weights, L, skip)
            pd_ref = rest
            for j in sorted(common):
                if word.cells[j] not in dhom:
                    pd_ref = pd_ref * labels[j]
            ratio_ref = _cancel_hom(dims, tuple(sorted(common)), rest)
            if not reduced and n < small and len(common) < L:
                ones = common | {min(set(range(L)) - common)}
                divided = [
                    Poly.one() if j in ones else w.times_hbar(-1) for j, w in enumerate(labels)
                ]
                weights = [1 if j in ones else w for j, w in enumerate(labels)]
                pairs = subword_pairs(divided, False)
                assert state_sum(orbit_states(Orbit(r)).levels, pairs) == _subset_sum(
                    subsets, weights, L, skip
                ), r
            pd, ratio = (quiver_poly_pd, quiver_poly_ratio) if reduced else (csm_pd, csm_ratio)
            assert format_poly(pd(r)) == format_poly(pd_ref), (r, reduced)
            assert format_poly(ratio(r)) == format_poly(ratio_ref), (r, reduced)
            # check() reports the totals of the two state sets as rp_star
            # and p_total
            if report is not None:
                total = report.counts["rp_star" if reduced else "p_total"]
            else:
                total = (orbit_reduced_states if reduced else orbit_states)(Orbit(r)).total
            assert total == len(subsets), (r, reduced)


def test_restrictions_reject_a_v_that_is_not_a_permutation():
    word = generic_word((1, 2, 1), 3)
    for v in [(1, 2), (1, 2, 3, 4), (2, 2, 3), (0, 1, 2)]:
        for restriction in (ajs_billey, csm_restriction):
            with pytest.raises(ValueError, match=r"v = .* d = 3"):
                restriction(v, word)


def test_hom_restriction_is_the_dhom_roots():
    """The Hom orbit's restriction is the product of the roots at the
    D_Hom cells: z(Hom) has one reduced subword in the grid word, so every
    position outside D_Hom is skipped and the rest of the sum is 1."""
    for dims in sweep_dims(8):
        common, rest = _hom_factored(dims)
        dhom = regions(dims).dhom_cells
        assert rest == Poly.one(), dims
        assert common == tuple(j for j, c in enumerate(grid_word(dims).cells) if c in dhom), dims


def test_cancel_hom_rejects_a_sum_that_skips_a_dhom_position(monkeypatch):
    """_cancel_hom divides by cancelling the D_Hom roots, so a sum whose
    forced positions miss one, or a Hom restriction that is not the
    D_Hom roots times 1, is a fault: DHomViolation, not a ValueError.
    No orbit reaches either, so both are driven directly."""
    assert not issubclass(DHomViolation, ValueError)
    dims = Dims((1, 1, 1))
    dhom, _ = _hom_factored(dims)
    betas = roots(grid_word(dims))
    others = tuple(j for j in range(len(betas)) if j not in dhom)
    assert _cancel_hom(dims, dhom, Poly.hbar()) == Poly.hbar()
    with pytest.raises(DHomViolation, match=re.escape(f"skip D_Hom positions {list(dhom)}")):
        _cancel_hom(dims, others, Poly.hbar())
    localization._dhom_positions.cache_clear()
    monkeypatch.setattr(localization, "_hom_factored", lambda dims: (dhom, betas[dhom[0]]))
    try:
        with pytest.raises(DHomViolation, match="Hom restriction"):
            _cancel_hom(dims, dhom, Poly.hbar())
    finally:
        localization._dhom_positions.cache_clear()


def _multiply_back(dims: Dims, common, rest: Poly) -> Poly:
    """_cancel_hom's quotient as it was taken before the forced roots
    were multiplied into one factor: each root at common outside the
    D_Hom cells multiplied onto rest one product at a time, in word
    order."""
    word, dhom = grid_word(dims), regions(dims).dhom_cells
    betas = roots(word)
    for j in common:
        if word.cells[j] not in dhom:
            rest = rest * betas[j]
    return rest


def test_cancel_hom_matches_the_one_at_a_time_multiply_back():
    """_cancel_hom gives the class of the one-at-a-time multiply-back,
    for both targets.  On every orbit of sweep_dims(6) and on the 339
    orbits of the qpoly_large dims, the quiver polynomial's forced
    positions and walk sum are the orbit's own.  For the CSM target the
    orbit's own walk sum is taken on sweep_dims(6); on the qpoly_large
    dims, whose CSM walks take minutes together, the CSM states' forced
    positions are taken with two sums in place of the walk's: 1, and the
    quiver polynomial's walk sum."""
    for dims in sweep_dims(6):
        for r in enumerate_rank_arrays(dims):
            for states in (orbit_reduced_states(r), orbit_states(r)):
                common, rest = _forced_sum(states, dims)
                assert _cancel_hom(dims, common, rest) == _multiply_back(dims, common, rest), r
    for dims in map(Dims, QPOLY_LARGE):
        L = len(grid_word(dims).letters)
        for r in enumerate_rank_arrays(dims):
            common, rest = _forced_sum(orbit_reduced_states(r), dims)
            assert _cancel_hom(dims, common, rest) == _multiply_back(dims, common, rest), r
            skipped = orbit_states(r).skipped
            forced = tuple(j for j in range(L) if not skipped >> j & 1)
            for sum_ in (Poly.one(), rest):
                assert _cancel_hom(dims, forced, sum_) == _multiply_back(dims, forced, sum_), r


def test_cancel_hom_of_a_sum_of_one_is_a_fresh_root():
    """A walk sum of 1 with one forced root outside D_Hom: the quotient
    is that root, as a new Poly, not the cached take weight."""
    dims = Dims((1, 1, 1))
    dhom, _ = _hom_factored(dims)
    j = min(set(range(len(grid_word(dims).letters))) - set(dhom))
    got = _cancel_hom(dims, tuple(sorted(dhom + (j,))), Poly.one())
    cached = _grid_takes(dims, False)[j]
    assert got == roots(grid_word(dims))[j] == cached
    assert got is not cached and got.terms is not cached.terms


def _per_orbit_pairs(states, dims: Dims) -> list:
    """The ratio walk's (skip, take) weights as they were built before
    the per-dims tables: on every orbit, the grid word's take weights
    with Poly.one() at each position every subset takes, through
    subword_pairs, which folds h^D into the last letter of a CSM walk."""
    one, skipped = Poly.one(), states.skipped
    takes = _grid_takes(dims, not states.reduced)
    walk = [w if skipped >> j & 1 else one for j, w in enumerate(takes)]
    return subword_pairs(walk, states.reduced)


def test_ratio_pairs_match_the_per_orbit_build(monkeypatch):
    """_forced_sum walks the per-dims pairs of _ratio_pairs, the forced
    pair where no subset skips a position and _last_pair's fold last: the
    pairs of the per-orbit build, weight for weight, each 1 the shared
    Poly.one() exactly where it was.  Both targets, on every orbit of
    sweep_dims(6) and of the qpoly_large dims; the walk itself is left
    out, since the CSM walks of the larger dims take minutes."""
    walked = []
    monkeypatch.setattr(localization, "state_sum", lambda levels, pairs: walked.append(pairs))
    one = Poly.one()
    orbits = [r for dims in sweep_dims(6) for r in enumerate_rank_arrays(dims)]
    orbits += [r for dims in map(Dims, QPOLY_LARGE) for r in enumerate_rank_arrays(dims)]
    for r in map(Orbit, orbits):
        for states in (orbit_reduced_states(r), orbit_states(r)):
            _forced_sum(states, r.dims)
            pairs, expected = walked.pop(), _per_orbit_pairs(states, r.dims)
            assert pairs == expected, (r, states.reduced)
            assert [[w is one for w in p] for p in pairs] == [
                [w is one for w in p] for p in expected
            ], (r, states.reduced)
    assert len(orbits) == 551 + 339


def test_no_formula_returns_an_object_a_weight_table_holds():
    """A state-sum node whose child's sum is 1 takes its edge's weight
    as its sum, uncopied, and _cancel_hom may be left with one cached
    root: neither may leave a formula, whose caller could then share a
    weight table's Poly or its terms.  The shared Poly.one(), which is
    never written, is the one exception.  Every formula on every orbit
    of sweep_dims(6) and of (2,3,3), against the tables of pd
    (_cell_pairs), ratio (_grid_takes, _ratio_pairs and every D of
    _last_pair) and cgpd (_tile_weights)."""
    one = Poly.one()
    dims_list = sweep_dims(6) + [Dims((2, 3, 3))]
    for dims in dims_list:
        held = list(_grid_takes(dims, False) + _grid_takes(dims, True))
        for reduced in (False, True):
            free, forced = localization._ratio_pairs(dims, reduced)
            held += [w for pair in (*_cell_pairs(dims, reduced), *free, forced) for w in pair]
            held += [w for weights in _tile_weights(dims, reduced) for w in weights.values()]
        if L := len(grid_word(dims).letters):
            held += [w for D in range(L + 1) for free in (False, True)
                     for w in localization._last_pair(dims, D, free)]
        ids = {i for w in held if w is not one for i in (id(w), id(w.terms))}
        for r in map(Orbit, enumerate_rank_arrays(dims)):
            for table in METHODS.values():
                for fn in table.values():
                    p = fn(r)
                    assert p is one or not {id(p), id(p.terms)} & ids, (r, fn.__name__)
