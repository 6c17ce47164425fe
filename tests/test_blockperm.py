"""Permutations, reduced words, block structure, and subword states."""

import hashlib
import random
from itertools import permutations, product

from qcalc.blockperm import (
    Permutation,
    block_counts,
    composite,
    identity,
    left_mul_s,
    length,
    perm_count,
    perm_set,
    regions,
    subword_states,
    target_states,
    zelevinsky_hom,
    zelevinsky_permutation,
)
from qcalc.engine import sweep_dims
from qcalc.localization import grid_word
from qcalc.pipedream import region_cells
from qcalc.quiver import Dims, RankArray, enumerate_rank_arrays, hom_rank_array
from blockperm_reference import (
    all_reduced_words,
    block_w0,
    compose,
    inverse,
    regions_by_cells,
    rothe_diagram,
    w0,
)
from subword_reference import forward_subword_states, subword_subsets, taken


def simple(t: int, d: int) -> Permutation:
    v = list(range(1, d + 1))
    v[t - 1], v[t] = v[t], v[t - 1]
    return tuple(v)


def is_reduced_word(word: tuple[int, ...], d: int) -> bool:
    v = identity(d)
    for t in word:
        sv = left_mul_s(t, v)
        if length(sv) <= length(v):
            return False
        v = sv
    return True


def counts_of(v: Permutation, dims: Dims) -> dict[tuple[int, int], int]:
    """Block 1-counts of an arbitrary permutation (filter-semantics oracle)."""
    m: dict[tuple[int, int], int] = {}
    for q, p in enumerate(v, start=1):
        key = (dims.rows[q - 1][0], dims.cols[p - 1][0])
        m[key] = m.get(key, 0) + 1
    for i in range(dims.n + 1):
        for j in range(dims.n + 1):
            m.setdefault((i, j), 0)
    return m


def test_group_axioms_s4():
    perms = [tuple(p) for p in permutations(range(1, 5))]
    e = identity(4)
    for v in perms:
        assert compose(v, e) == v and compose(e, v) == v
        assert compose(v, inverse(v)) == e
        assert length(inverse(v)) == length(v)
    assert compose((2, 1, 3, 4), (1, 3, 2, 4)) == (2, 3, 1, 4)


def test_length_counts_inversions():
    assert length((1, 2, 3)) == 0
    assert length((3, 2, 1)) == 3
    assert length(w0(4)) == 6


def test_left_mul_s_swaps_values():
    v = (3, 1, 2)
    assert left_mul_s(1, v) == (3, 2, 1)  # swaps the values 1 and 2
    assert left_mul_s(2, v) == (2, 1, 3)
    assert simple(2, 4) == (1, 3, 2, 4)


def test_composite_and_reduced_words():
    assert composite((1, 2, 1), 3) == w0(3)
    assert is_reduced_word((1, 2, 1), 3)
    assert not is_reduced_word((1, 1), 3)
    assert sorted(all_reduced_words(w0(3))) == [(1, 2, 1), (2, 1, 2)]
    for v in permutations(range(1, 5)):
        for word in all_reduced_words(tuple(v)):
            assert len(word) == length(tuple(v))
            assert composite(word, 4) == tuple(v)


def test_block_w0():
    assert block_w0(Dims((1, 2, 1))) == (1, 3, 2, 4)
    assert block_w0(Dims((2, 2))) == (2, 1, 4, 3)


def test_rothe_diagram():
    assert rothe_diagram((2, 1, 3)) == {(1, 1)}
    assert len(rothe_diagram(w0(4))) == 6
    # |rothe| = length, exhaustively in S_4
    for v in permutations(range(1, 5)):
        assert len(rothe_diagram(tuple(v))) == length(tuple(v))


def test_regions_332():
    reg = regions(Dims((3, 3, 2)))
    assert reg.L == len(reg.strict_cells)
    assert reg.dhom_cells < reg.strict_cells
    assert len(reg.dhom_cells) == 6


def test_regions_match_the_cell_loop():
    """regions, which lists each row block's cells against the column
    blocks it meets, against the loop over all d^2 cells."""
    for dims in sweep_dims(7) + [Dims((2, 3, 3, 2)), Dims((1200,))]:
        assert regions(dims) == regions_by_cells(dims), dims


def test_zelevinsky_permutation_examples():
    assert zelevinsky_permutation(hom_rank_array(Dims((3, 3, 2)))) == (3, 4, 5, 1, 2, 6, 7, 8)
    r = RankArray(
        Dims((1, 3, 3, 1)),
        {(0, 1): 1, (0, 2): 1, (0, 3): 0, (1, 2): 2, (1, 3): 1, (2, 3): 1},
    )
    assert zelevinsky_permutation(r) == (5, 2, 3, 6, 1, 4, 8, 7)
    r2 = RankArray(Dims((1, 2, 1)), {(0, 1): 1, (0, 2): 0, (1, 2): 1})
    assert zelevinsky_permutation(r2) == (2, 1, 4, 3)
    assert zelevinsky_hom(Dims((3, 3, 2))) == (3, 4, 5, 1, 2, 6, 7, 8)


def test_perm_set_12():
    r = RankArray(Dims((1, 2)), {(0, 1): 1})
    assert sorted(perm_set(r)) == [(1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1)]


def test_perm_set_121_hom():
    r = hom_rank_array(Dims((1, 2, 1)))
    assert sorted(perm_set(r)) == [(2, 1, 3, 4), (2, 3, 1, 4), (3, 1, 2, 4), (3, 2, 1, 4)]


def test_perm_set_counts_and_minimum():
    for dims in [Dims((1, 2, 1)), Dims((2, 2)), Dims((1, 1, 2)), Dims((2, 2, 1)), Dims((3, 3))]:
        for r in enumerate_rank_arrays(dims):
            z = zelevinsky_permutation(r)
            members = list(perm_set(r))
            assert z in members
            assert members == [
                v
                for v in permutations(range(1, dims.d + 1))
                if counts_of(v, dims) == block_counts(r)
            ]
            # z(r) is the unique minimal-length member
            assert [v for v in members if length(v) == length(z)] == [z]
            assert perm_count(r) == len(members)


def test_zelevinsky_permutation_heads_the_perm_set():
    """z(r), built from the block counts, is the greedy fill that heads
    perm(r) in lexicographic order: the whole sorted set on sweep_dims(6),
    and the first permutation of its search on sweep_dims(8) and five
    larger dims."""
    for dims in sweep_dims(6):
        for r in enumerate_rank_arrays(dims):
            assert zelevinsky_permutation(r) == min(perm_set(r))
    larger = [(3, 3, 3), (2, 3, 3, 2), (2, 2, 2, 2, 2), (1, 2, 3, 2, 1), (4, 3, 3, 2)]
    for dims in sweep_dims(8) + [Dims(r) for r in larger]:
        for r in enumerate_rank_arrays(dims):
            assert zelevinsky_permutation(r) == next(perm_set(r))


def brute_force_subsets(letters, d, targets, reduced):
    """Every (J, v) with v a target, by filtering all 2^L index subsets."""
    out = []
    for mask in range(1 << len(letters)):
        J = tuple(k for k in range(len(letters)) if mask >> k & 1)
        word = tuple(letters[k] for k in J)
        if reduced and not is_reduced_word(word, d):
            continue
        v = composite(word, d)
        if v in targets:
            out.append((J, v))
    return sorted(out)


def test_subword_subsets_against_brute_force():
    cases = [((1, 2, 1, 2), 3, frozenset([t])) for t in permutations(range(1, 4))]
    # seeded random words, with target sets of every size from empty to all of S_d
    rng = random.Random(4)
    for d in range(2, 6):
        perms = list(permutations(range(1, d + 1)))
        for size in range(len(perms) + 1):
            letters = tuple(rng.randint(1, d - 1) for _ in range(rng.randint(0, 9)))
            cases.append((letters, d, frozenset(rng.sample(perms, size))))
    for letters, d, targets in cases:
        for reduced in (True, False):
            got = sorted(subword_subsets(letters, d, targets, reduced))
            assert got == brute_force_subsets(letters, d, targets, reduced), (
                letters,
                sorted(targets),
                reduced,
            )


def test_subword_subsets_multi_target():
    letters = (2, 1, 3, 2, 1)
    d = 4
    targets = frozenset([(2, 1, 3, 4), (1, 3, 2, 4), (2, 3, 1, 4)])
    pairs = list(subword_subsets(letters, d, targets, reduced=False))
    for J, v in pairs:
        assert v in targets
        assert composite(tuple(letters[k] for k in J), d) == v
    singles = [
        (J, v)
        for t in targets
        for J, v in subword_subsets(letters, d, frozenset([t]), reduced=False)
    ]
    assert sorted(pairs) == sorted(singles)


def _skipped(subsets, L: int) -> int:
    """The OR, over the subsets, of the mask of the positions each skips."""
    mask = 0
    for J in subsets:
        mask |= ((1 << L) - 1) ^ sum(1 << k for k in J)
    return mask


def test_subsets_walk_against_brute_force():
    """The paths of the subword states are the accepted subsets that a
    brute-force filter finds, in the reference search's order, and the
    skipped mask is the OR of the positions they skip: target_states
    toward each permutation, reduced and all subsets, and subword_states
    toward perm(r) for every orbit of a few dims, on seeded random
    words."""
    rng = random.Random(11)
    for d in range(2, 5):
        perms = list(permutations(range(1, d + 1)))
        for _ in range(6):
            letters = tuple(rng.randint(1, d - 1) for _ in range(rng.randint(0, 9)))
            for v in perms:
                for reduced in (True, False):
                    states = target_states(letters, v, reduced)
                    got = list(taken(states))
                    ref = [J for J, _ in subword_subsets(letters, d, frozenset([v]), reduced)]
                    assert got == ref, (letters, v, reduced)
                    brute = [J for J, _ in brute_force_subsets(letters, d, {v}, reduced)]
                    assert sorted(got) == brute
                    assert states.skipped == _skipped(brute, len(letters)), (letters, v, reduced)
    for dims in (Dims((1, 2, 1)), Dims((2, 2)), Dims((2, 1, 1)), Dims((1, 1, 1, 1))):
        for r in enumerate_rank_arrays(dims):
            targets = frozenset(perm_set(r))
            for _ in range(4):
                letters = tuple(rng.randint(1, dims.d - 1) for _ in range(rng.randint(0, 10)))
                states = subword_states(letters, r)
                got = list(taken(states))
                ref = [J for J, _ in subword_subsets(letters, dims.d, targets, False)]
                assert got == ref, (r, letters)
                brute = [J for J, _ in brute_force_subsets(letters, dims.d, targets, False)]
                assert sorted(got) == sorted(brute)
                assert states.skipped == _skipped(brute, len(letters)), (r, letters)


def demazure(word: tuple[int, ...], d: int) -> Permutation:
    """The Demazure product of a word: its value (composite), each letter
    applied only when it raises length."""
    v = identity(d)
    for t in word:
        sv = left_mul_s(t, v)
        if length(sv) > length(v):
            v = sv
    return v


def bruhat_below(d: int) -> dict:
    """y -> the set of x <= y in Bruhat order on S_d, by its definition:
    the order generated by x < x t for the transpositions t with
    l(x) < l(x t)."""
    below = {}
    for y in sorted(permutations(range(1, d + 1)), key=length):
        down = {y}
        for a in range(d):
            for b in range(a + 1, d):
                if y[a] > y[b]:  # y t_ab is shorter, so it is already done
                    yt = list(y)
                    yt[a], yt[b] = y[b], y[a]
                    down |= below[tuple(yt)]
        below[y] = down
    return below


def rows_below(x: Permutation, y: Permutation) -> bool:
    """Each prefix count #{a <= i : x(a) > j} of x is at most y's: the
    rows target_states packs and compares."""
    d = len(x)
    return all(
        sum(a > j for a in x[:i]) <= sum(b > j for b in y[:i])
        for i in range(1, d + 1)
        for j in range(1, d + 1)
    )


def test_subword_property_of_the_demazure_product():
    """The lemma target_states rests on, by brute force over every word
    of length <= 6 on d <= 4 and every x: x <= delta(Q) in Bruhat order
    exactly when some reduced subword of Q spells x, and every subword of
    Q spells some x <= delta(Q).  Bruhat order is also the comparison of
    the prefix-count rows."""
    for d in range(1, 5):
        below = bruhat_below(d)
        for y, down in below.items():
            assert down == {x for x in below if rows_below(x, y)}, y
        for L in range(7):
            for word in product(range(1, d), repeat=L):
                reduced, spelled = set(), set()
                for mask in range(1 << L):
                    sub = tuple(t for k, t in enumerate(word) if mask >> k & 1)
                    x = composite(sub, d)
                    spelled.add(x)
                    if length(x) == len(sub):
                        reduced.add(x)
                down = below[demazure(word, d)]
                assert reduced == down, word
                assert spelled <= down, word


def _assert_live(states) -> None:
    """Every state at every level lies on a path from the root at level
    0 to the last level: level 0 holds at most one state, each level's
    states are exactly the ends of the edges from the level above, and
    every state above the last level has an edge."""
    levels = states.levels
    assert len(levels[0]) <= 1
    reached = set(levels[0])
    for k, level in enumerate(levels):
        assert set(level) == reached, k
        assert all(level.values()) if k + 1 < len(levels) else not any(level.values()), k
        reached = {t for edges in level.values() for _, t in edges}


def test_target_states_against_the_reference_on_larger_d():
    """target_states against subword_subsets on seeded words for d = 5..8
    (at d = 8 the packed field widens from 4 to 5 bits), toward products
    of random subwords and random permutations, in both modes.  In both
    modes every state it keeps is live."""

    def against_the_reference(letters, v):
        d = len(v)
        for reduced in (True, False):
            states = target_states(letters, v, reduced)
            ref = [J for J, _ in subword_subsets(letters, d, frozenset([v]), reduced)]
            assert list(taken(states)) == ref, (letters, v, reduced)
            assert states.total == len(ref)
            assert states.skipped == _skipped(ref, len(letters)), (letters, v, reduced)
            _assert_live(states)

    rng = random.Random(23)
    for d in range(5, 9):
        for _ in range(6):
            letters = tuple(rng.randint(1, d - 1) for _ in range(rng.randint(8, 16)))
            targets = [composite(tuple(t for t in letters if rng.random() < 0.5), d) for _ in range(3)]
            targets.append(tuple(rng.sample(range(1, d + 1), d)))
            for v in targets:
                against_the_reference(letters, v)
    # the grid word and the full-region word of one d, alternately, toward
    # each z(r): the per-word plans are keyed by the letters as well as by d
    for dims in (Dims((2, 3)), Dims((2, 2, 2))):
        full = tuple(q + p - 1 for q, p in region_cells(dims, "full"))
        for r in enumerate_rank_arrays(dims):
            for letters in (grid_word(dims).letters, full):
                against_the_reference(letters, zelevinsky_permutation(r))


# the dims of the benchmark's qpoly_large workload, d = 8 to 12
QPOLY_LARGE = [(3, 3, 2), (2, 3, 3), (3, 3, 3), (2, 3, 3, 2), (2, 2, 2, 2, 2), (1, 2, 3, 2, 1)]


def _target_figures(dims_list) -> str:
    """SHA-256 over target_states on each dims' grid word toward z(Hom)
    and each z(r), reduced then all subsets: total, skipped, the live
    states per level, and in reduced mode every path."""
    h = hashlib.sha256()
    for dims in dims_list:
        letters = grid_word(dims).letters
        targets = [zelevinsky_hom(dims)] + [zelevinsky_permutation(r) for r in enumerate_rank_arrays(dims)]
        for v in targets:
            for reduced in (True, False):
                states = target_states(letters, v, reduced)
                h.update(repr((states.total, states.skipped, [len(l) for l in states.levels])).encode())
                if reduced:
                    for path in states.paths():
                        h.update(bytes(path))
    return h.hexdigest()


def test_target_states_figures_pinned():
    """The figures of target_states on the grid words of sweep_dims(7) and
    of the qpoly_large dims, as the distance-pruned builder gave them
    (rules 1 and 2 of subword_reference.subword_subsets)."""
    assert _target_figures(sweep_dims(7)) == (
        "ad039e0f30eebb6cc21da3c2e96841bd4b168e6037d2c6b1bcbe27ec33591777"
    )
    assert _target_figures([Dims(r) for r in QPOLY_LARGE]) == (
        "16130f33a2772ae845b67d20d4da77e7cf6822a0b9158eaf8039580b9d8a5e03"
    )


def _label_vector(s: int, dims: Dims) -> tuple:
    """The label vector that a subword_states state packs: row x, at bit
    x*n*(w+1) with w the bit length of d, less row x - 1 has a 1 in each
    of its n fields of w + 1 bits below the label of value x."""
    n, f = dims.n, dims.d.bit_length() + 1
    rows = [s >> x * n * f & (1 << n * f) - 1 for x in range(dims.d + 1)]
    return tuple(sum(rows[x] - rows[x - 1] >> c * f & 1 for c in range(n)) for x in range(1, dims.d + 1))


def test_subword_states_match_the_forward_builder():
    """subword_states, built backward from the accepted vectors, keeps
    the live states, edges, total, skipped mask and path order of the
    forward builder (flow bound, then counting) on the grid word of every
    orbit of sweep_dims(6), of the three-vertex dims (2,3,3), (3,3,2) and
    (3,3,3), of (1^8), of (2,4,2), whose column blocks mix labels, of the
    one-vertex (3), whose packed rows have no field, and of the eight
    dims of the benchmark's CSM workload (109 orbits)."""
    extra = [(2, 3, 3), (3, 3, 2), (3, 3, 3), (1,) * 8, (2, 4, 2), (3,)]
    extra += [(2, 2, 2, 1), (1, 2, 2, 2), (3, 2, 2), (2, 3, 1), (1, 3, 2), (2, 3, 2), (3, 3, 1), (1, 3, 3)]
    mixed = False
    for dims in sweep_dims(6) + [Dims(r) for r in extra]:
        letters = grid_word(dims).letters
        for r in enumerate_rank_arrays(dims):
            got, ref = subword_states(letters, r), forward_subword_states(letters, r)
            _assert_live(got)
            assert (got.total, got.skipped, got.reduced) == (ref.total, ref.skipped, ref.reduced), r
            decoded = [
                {
                    _label_vector(s, dims): tuple((c, _label_vector(t, dims)) for c, t in edges)
                    for s, edges in level.items()
                }
                for level in got.levels
            ]
            assert decoded == list(ref.levels), r
            assert list(got.paths()) == list(ref.paths()), r
            if dims.r == (2, 4, 2):
                m = block_counts(r)
                mixed |= any(sum(m[(i, j)] > 0 for i in range(3)) > 1 for j in range(3))
    assert mixed
