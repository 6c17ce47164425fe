"""Chained generic pipe dreams: validation, enumeration, and weights.

The routing states (cgpd.orbit_states) are checked against the reference
router of tests/cgpd_reference.py, which also validates given diagrams."""

import hashlib
import itertools
import json
import math
from pathlib import Path

import pytest

from cgpd_reference import (
    EdgeMismatch,
    LaceCountMismatch,
    NorthLeak,
    SameColorCross,
    cgpd_infinity,
    cgpd_weight,
    minimal_words,
    router_words,
    routing_states,
    two_pass_minimal_states,
    validate,
)
from qcalc.cgpd import (
    _TILES,
    CGPD,
    InvalidCGPD,
    _spell,
    _states,
    _tile_weights,
    csm_cgpd,
    enumerate_cgpd,
    minimal_states,
    orbit_states,
    quiver_poly_cgpd,
)
from qcalc.engine import check, sweep_dims
from qcalc.poly import Poly, format_poly, xvar
from qcalc.quiver import (
    Dims,
    RankArray,
    enumerate_rank_arrays,
    hom_rank_array,
    lace_array,
    parse_input,
)

FIXTURES = Path(__file__).parent / "fixtures"


def test_shape_and_code_validation():
    with pytest.raises(InvalidCGPD):
        CGPD(Dims((1, 1)), ())
    with pytest.raises(InvalidCGPD):
        CGPD(Dims((1, 1)), ((("q",),),))
    with pytest.raises(InvalidCGPD):
        CGPD(Dims((1, 2)), ((("r",),),))  # rectangle must be 1 x 2


def test_edge_errors():
    # east edge of the single row is unused
    with pytest.raises(EdgeMismatch):
        validate(CGPD(Dims((1, 1)), (((".",),),)), hom_rank_array(Dims((1, 1))))
    # a crossing in the top row expects a strand from the closed north edge
    with pytest.raises(NorthLeak):
        validate(CGPD(Dims((1, 1)), ((("+",),),)), hom_rank_array(Dims((1, 1))))
    # the top elbow sends a strand south that the row below does not take
    with pytest.raises(EdgeMismatch, match="south neighbor disagrees") as info:
        validate(CGPD(Dims((2, 1)), ((("r",), ("-",)),)), hom_rank_array(Dims((2, 1))))
    assert info.value.cell == (0, 1, 1)
    # a diagram on other dims than the rank array's
    with pytest.raises(InvalidCGPD, match="dims of the diagram and rank array differ"):
        validate(CGPD(Dims((1, 1)), ((("r",),),)), hom_rank_array(Dims((1, 2))))


def test_lace_count_mismatch():
    dims = Dims((1, 1))
    zero = RankArray(dims, {(0, 1): 0})
    with pytest.raises(LaceCountMismatch):
        validate(CGPD(dims, ((("r",),),)), zero)


def test_same_color_cross():
    # two pipes that both end in the last rectangle may not cross
    dims = Dims((2, 2))
    r = hom_rank_array(dims)
    grids = ((("+", "r"), ("r", "|")),)
    with pytest.raises((SameColorCross, LaceCountMismatch, EdgeMismatch)):
        validate(CGPD(dims, grids), r)
    # locally consistent and realizing the laces of r: the crossing is its only fault
    alone = (((".", "r"), ("r", "+")),)
    with pytest.raises(SameColorCross) as info:
        validate(CGPD(dims, alone), r)
    assert info.value.cell == (0, 2, 2)
    with pytest.raises(SameColorCross):
        cgpd_weight(CGPD(dims, alone))
    assert all(delta.grids not in (grids, alone) for delta in enumerate_cgpd(r))
    # two same-color crossings, at (2,3) and (3,3): the first laid is named
    twice = (((".", ".", "r"), ("r", "-", "+"), ("|", "r", "+")),)
    with pytest.raises(SameColorCross) as info:
        validate(CGPD(Dims((3, 3)), twice), hom_rank_array(Dims((3, 3))))
    assert info.value.cell == (0, 2, 3)


def test_big_example_fixture_validates():
    obj = json.loads((FIXTURES / "ex_cgpd_big.json").read_text())
    r = parse_input(obj)
    delta = CGPD.from_json(r.dims, obj)
    assert validate(delta, r) == [
        (0, 2),
        (2, 5),
        (3, 3),
        (3, 3),
        (4, 4),
    ]
    assert CGPD.from_json(r.dims, delta.to_json()) == delta


def test_enumerate_121_hom():
    dims = Dims((1, 2, 1))
    r = hom_rank_array(dims)
    diagrams = enumerate_cgpd(r)
    assert len(diagrams) == 3
    a = Poly.var(xvar(0, 1))
    b1 = Poly.var(xvar(1, 1))
    b2 = Poly.var(xvar(1, 2))
    c = Poly.var(xvar(2, 1))
    h = Poly.hbar()
    weights = sorted(
        (cgpd_weight(delta) for delta in diagrams), key=lambda p: sorted(p.terms.items())
    )
    expected = sorted(
        [
            h**2 * (a - b2) * (b2 - c),
            h**2 * (a - b1 + h) * (b1 - c),
            h**3 * (a - b1 + h),
        ],
        key=lambda p: sorted(p.terms.items()),
    )
    assert weights == expected
    assert csm_cgpd(r) == sum(expected, Poly.zero())


def test_cgpd_infinity_final_example():
    dims = Dims((2, 2, 1))
    r = RankArray(dims, {(0, 1): 1, (0, 2): 0, (1, 2): 1})
    minimal = cgpd_infinity(r)
    assert len(minimal) == 3
    a1 = Poly.var(xvar(0, 1))
    a2 = Poly.var(xvar(0, 2))
    b1 = Poly.var(xvar(1, 1))
    b2 = Poly.var(xvar(1, 2))
    c = Poly.var(xvar(2, 1))
    expected = (a1 - b2) * (a2 - b2) + (a2 - b1) * (b2 - c) + (a1 - b2) * (b2 - c)
    assert quiver_poly_cgpd(r) == expected


def test_tile_words():
    """Each diagram's word lists its tiles in laying order (top to bottom,
    east to west); the bump of two pipes of one color is written B."""
    r = hom_rank_array(Dims((2, 2)))
    words = ["".join(path) for path in orbit_states(r).paths()]
    assert words == ["-rr|", "r.Br"]
    assert [delta.grids for delta in _spell(r.dims, words)] == [
        (((".", "r"), ("r", "b")),),
        ((("r", "-"), ("|", "r")),),
    ]


def test_enumeration_order_pinned():
    """The diagrams and their order, which `qcalc enum --what cgpd` prints;
    polynomial checks cannot see them.  The digest was captured at commit
    168a177, before enumeration routed pipes while laying tiles."""
    ranks = [r for dims in sweep_dims(5) for r in enumerate_rank_arrays(dims)]
    ranks += enumerate_rank_arrays(Dims((2, 3, 3)))
    digest = hashlib.sha256()
    diagrams = 0
    for r in ranks:
        grids = [delta.grids for delta in enumerate_cgpd(r)]
        diagrams += len(grids)
        digest.update(repr(grids).encode())
    assert (len(ranks), diagrams) == (230, 2795)
    assert digest.hexdigest() == (
        "1f3bdab161b849bf5d5230bfc7ccd2940846c7a2f7e188a0edffba78132aed9b"
    )


def test_router_pinned():
    """The reference router's words in routing order, and its verdict on
    every tiling of small dims, against each orbit: the intervals validate
    returns or the exception it raises (type, message and cell), and the
    weight cgpd_weight returns or its exception.  The tilings validate
    accepts for an orbit are exactly the diagrams enumerate_cgpd lists.
    The digests were captured at commit 898ff67, before the router read
    its tiles from one table."""
    ranks = [r for dims in sweep_dims(5) for r in enumerate_rank_arrays(dims)]
    ranks += enumerate_rank_arrays(Dims((2, 3, 3)))
    words = hashlib.sha256()
    for r in ranks:
        words.update(repr(router_words(r)).encode())

    def outcome(fn):
        try:
            out = fn()
        except InvalidCGPD as exc:
            return f"{type(exc).__name__}|{exc}|{getattr(exc, 'cell', None)}"
        return repr(out) if isinstance(out, list) else format_poly(out)

    outcomes = []
    for dims in map(Dims, [(1, 1), (2, 1), (1, 2), (1, 1, 1), (2, 2)]):
        orbits = enumerate_rank_arrays(dims)
        accepted = [[] for _ in orbits]
        shapes = [(dims.r[i], dims.r[i + 1]) for i in range(dims.n)]
        for codes in itertools.product(".-|+rjb", repeat=sum(a * b for a, b in shapes)):
            tiles = iter(codes)
            grids = tuple(tuple(tuple(next(tiles) for _ in range(b)) for _ in range(a))
                          for a, b in shapes)
            delta = CGPD(dims, grids)
            for r, valid in zip(orbits, accepted):
                outcomes.append(outcome(lambda: validate(delta, r)))
                if outcomes[-1].startswith("["):  # the intervals, not a fault
                    valid.append(grids)
            outcomes.append(outcome(lambda: cgpd_weight(delta)))
        for r, valid in zip(orbits, accepted):
            assert sorted(valid) == [delta.grids for delta in enumerate_cgpd(r)], r.entries
    assert len(outcomes) == 10164
    assert words.hexdigest() == (
        "a37214ef3fff5556c5b6f16ea11dae8e614dee85ae09336b3b359e74ecbf7843"
    )
    assert hashlib.sha256("".join(text + "\n" for text in outcomes).encode()).hexdigest() == (
        "e3a39510d39e5ea13d0189cee195ac96e5f817aa640be61878cc7efe69a57ad9"
    )


def test_states_spell_the_router_words():
    """The paths of the routing states spell the reference router's words
    in its order, and their minimal paths its fewest-straight words; the
    path counts are the numbers of words."""
    ranks = [r for dims in sweep_dims(5) for r in enumerate_rank_arrays(dims)]
    ranks += enumerate_rank_arrays(Dims((2, 3, 3)))
    for r in ranks:
        words = router_words(r)
        states, minimal = orbit_states(r), minimal_states(r)
        assert ["".join(path) for path in states.paths()] == words, r.entries
        assert ["".join(path) for path in minimal.paths()] == minimal_words(words), r.entries
        assert (states.total, minimal.total) == (len(words), len(minimal_words(words)))


def _cgpd_figures(ranks) -> str:
    """SHA-256 over orbit_states and minimal_states of each orbit: total,
    skipped and the live states per level."""
    h = hashlib.sha256()
    for r in ranks:
        for states in (orbit_states(r), minimal_states(r)):
            h.update(repr((states.total, states.skipped, [len(l) for l in states.levels])).encode())
    return h.hexdigest()


def test_cgpd_states_figures_pinned():
    """The figures of both cgpd state sets on every orbit of sweep_dims(6),
    of (2,3,3) and of the lace example, as the builder gave them before
    the subword and cgpd builders shared one counting pass."""
    ranks = [r for dims in sweep_dims(6) for r in enumerate_rank_arrays(dims)]
    ranks += enumerate_rank_arrays(Dims((2, 3, 3)))
    ranks.append(parse_input(json.loads((FIXTURES / "ex_lace.json").read_text())))
    assert _cgpd_figures(ranks) == (
        "b94369b164fce514d1419e2f315803a3e666c3bfb72d59eba0ec4e1a1be985a1"
    )


def test_minimal_states_match_the_two_pass_builder():
    """minimal_states, one pass from the root over the fewest straight
    tiles that the routing's backward pass records, gives the States of
    the two-pass builder it replaced (a min-plus pass from the end, then
    one from the root): the same levels, states in the same order, edges
    in the same order, and the same total."""
    ranks = [r for dims in sweep_dims(6) for r in enumerate_rank_arrays(dims)]
    ranks += enumerate_rank_arrays(Dims((2, 3, 3)))
    ranks.append(parse_input(json.loads((FIXTURES / "ex_lace.json").read_text())))
    for r in ranks:
        got, ref = minimal_states(r), two_pass_minimal_states(r)
        assert got == ref, r.entries
        assert [list(level.items()) for level in got.levels] == [
            list(level.items()) for level in ref.levels
        ], r.entries
        assert got.total == ref.total


def test_tiles_keep_then_swap():
    """In every entry of _TILES the first tile keeps the arriving strands
    (east goes west, north goes south) and the second, where there is
    one, swaps them (north goes west, east goes south): the order the
    routing's keep-or-swap step tries them in."""
    for (east, north), tiles in _TILES.items():
        keep = ("E" if east else None, "N" if north else None)
        assert tiles[0][1:] == keep
        assert [tile[1:] for tile in tiles[1:]] == ([keep[::-1]] if east or north else [])


def test_routing_matches_the_strand_dict_pass():
    """The keep-or-swap routing pass (cgpd._states) gives the (States,
    fewest) of the pass it replaced (cgpd_reference.routing_states), which
    sent strands through a dict per state and owed the laces of every
    later rectangle: the same states in the same order at every level,
    their edges in the same order, the same total and the same fewest
    straight tiles, on every orbit of sweep_dims(7), of the dims of the
    csm_mid and qpoly_large benchmark workloads, and of every fixture."""
    mid = [(2, 2, 2, 1), (1, 2, 2, 2), (3, 2, 2), (2, 3, 1), (1, 3, 2), (2, 3, 2), (3, 3, 1),
           (1, 3, 3)]
    large = [(3, 3, 2), (2, 3, 3), (3, 3, 3), (2, 3, 3, 2), (2, 2, 2, 2, 2), (1, 2, 3, 2, 1)]
    ranks = [r for dims in sweep_dims(7) for r in enumerate_rank_arrays(dims)]
    ranks += [r for dims in mid + large for r in enumerate_rank_arrays(Dims(dims))]
    ranks += [parse_input(json.loads(path.read_text())) for path in sorted(FIXTURES.glob("*.json"))]
    for r in ranks:
        want = lace_array(r).entries
        (got, fewest), (ref, ref_fewest) = _states(r.dims, want), routing_states(r.dims, want)
        assert (got, fewest) == (ref, ref_fewest), r.entries
        assert [list(level.items()) for level in got.levels] == [
            list(level.items()) for level in ref.levels
        ], r.entries


def test_word_sums_match_a_plain_product_sum():
    """An oracle for both cgpd sums that shares no code with the routing
    states or the state sum: each reference word's tile weights multiplied
    out on their own, and the products added up."""
    ranks = [r for dims in sweep_dims(5) for r in enumerate_rank_arrays(dims)]
    ranks += enumerate_rank_arrays(Dims((2, 3, 3)))

    def plain(words, weights):
        return Poly.sum(
            math.prod((weights[p][c] for p, c in enumerate(word)), start=Poly.one())
            for word in words
        )

    for r in ranks:
        words = router_words(r)
        assert csm_cgpd(r) == plain(words, _tile_weights(r.dims, True))
        assert quiver_poly_cgpd(r) == plain(minimal_words(words), _tile_weights(r.dims, False))


def _straight(delta: CGPD) -> int:
    return sum(code in "+-|" for grid in delta.grids for row in grid for code in row)


def test_cgpd_infinity_order_pinned():
    """cgpd_infinity lists the diagrams of enumerate_cgpd with the fewest
    straight-strand tiles, in enumerate_cgpd's order."""
    ranks = [r for dims in sweep_dims(5) for r in enumerate_rank_arrays(dims)]
    ranks += enumerate_rank_arrays(Dims((2, 3, 3)))
    for r in ranks:
        diagrams = enumerate_cgpd(r)
        best = min(map(_straight, diagrams))
        assert cgpd_infinity(r) == [delta for delta in diagrams if _straight(delta) == best]


def test_formulas_build_no_diagram_objects(monkeypatch):
    """check() and the cgpd formulas read routing states only; CGPD
    objects are built for enumeration alone."""
    built = []
    post_init = CGPD.__post_init__
    monkeypatch.setattr(CGPD, "__post_init__", lambda self: built.append(post_init(self)))
    ranks = [r for dims in sweep_dims(4)[::4] for r in enumerate_rank_arrays(dims)]
    ranks += enumerate_rank_arrays(Dims((2, 3, 3)))[::4]
    for r in ranks:
        check(r)
        csm_cgpd(r)
        quiver_poly_cgpd(r)
        orbit_states(r)
        minimal_states(r)
    assert built == []
    assert len(enumerate_cgpd(ranks[0])) == len(built) > 0


def test_forced_diagram_11():
    diagrams = enumerate_cgpd(hom_rank_array(Dims((1, 1))))
    assert diagrams == [CGPD(Dims((1, 1)), ((("r",),),))]
