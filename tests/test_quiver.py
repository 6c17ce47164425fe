"""Rank/lace conversions, orbit representatives, and exact matrix rank."""

import itertools
import json
import pickle

import pytest

from qcalc.blockperm import zelevinsky_permutation
from qcalc.engine import sweep_dims
from qcalc.poly import xvar
from qcalc.quiver import (
    BadRowSums,
    Dims,
    LaceArray,
    NotRealizable,
    Orbit,
    RankArray,
    enumerate_lace_arrays,
    enumerate_rank_arrays,
    hom_rank_array,
    lace_array,
    parse_input,
    rank_array,
    representative,
    to_json,
    zelevinsky_matrix,
)
from quiver_reference import (
    generic_representative,
    integer_rank,
    nw_rank_profile,
    rank_array_of,
    rank_arrays_by_room,
)


def test_dims_validation():
    assert Dims((1, 2, 1)).n == 2
    assert Dims((1, 2, 1)).d == 4
    with pytest.raises(ValueError):
        Dims(())
    with pytest.raises(ValueError):
        Dims((1, 0, 1))
    for bad in (("a",), (1, 1.5), (True, 1)):
        with pytest.raises(ValueError):
            Dims(bad)


def test_block_layout_labels():
    dims = Dims((1, 2, 1))
    assert [i for i, _ in dims.rows] == [0, 1, 1, 2]
    # columns are labeled right to left
    assert [j for j, _ in dims.cols] == [2, 1, 1, 0]
    assert xvar(*dims.rows[1]) == ("x", 1, 1)
    assert xvar(*dims.cols[1]) == ("x", 1, 1)
    assert xvar(*dims.cols[3]) == ("x", 0, 1)
    # (1,2,1) read backwards is itself, so its row blocks are its column
    # blocks; (2,3,1) is not, and shows a column-order error
    dims = Dims((2, 3, 1))
    assert dims.rows == ((0, 1), (0, 2), (1, 1), (1, 2), (1, 3), (2, 1))
    assert dims.cols == ((2, 1), (1, 1), (1, 2), (1, 3), (0, 1), (0, 2))
    assert [i for i, _ in dims.rows] == [0, 0, 1, 1, 1, 2]
    assert [j for j, _ in dims.cols] == [2, 1, 1, 1, 0, 0]


def test_rank_array_validation():
    dims = Dims((1, 2))
    with pytest.raises(ValueError):
        RankArray(dims, {})  # missing (0,1)
    with pytest.raises(ValueError):
        RankArray(dims, {(0, 1): -1})
    r = RankArray(dims, {(0, 1): 1})
    assert r[0, 0] == 1 and r[1, 1] == 2
    assert r[-1, 0] == 0 and r[0, 2] == 0  # out of range reads as zero


def test_orbit_wraps_an_unpickled_rank_array():
    """An Orbit of a rank array that crossed a pickle, as a pool worker
    receives it, compares and hashes as that array, reads its entries,
    and starts with an empty memo of its own."""
    r = pickle.loads(pickle.dumps(RankArray(Dims((1, 2, 1)), {(0, 1): 1, (0, 2): 0, (1, 2): 1})))
    orbit, other = Orbit(r), Orbit(r)
    assert orbit == r and r == orbit and hash(orbit) == hash(r)
    assert [orbit[ij] for ij in r.dims.pairs()] == [1, 1, 0, 2, 1, 1]
    assert orbit.memo == {}
    orbit.memo["z"] = None
    assert other.memo == {}


def test_lace_array_row_sums():
    dims = Dims((1, 2, 1))
    # two bad rows each, 0 and 2, then 1 and 2: the first is named
    with pytest.raises(BadRowSums, match=r"^laces through row 0 total 2, expected 1$"):
        LaceArray(dims, {(0, 2): 2})
    with pytest.raises(BadRowSums, match=r"^laces through row 1 total 1, expected 2$"):
        LaceArray(dims, {(0, 0): 1, (1, 1): 1})
    s = LaceArray(dims, {(0, 2): 1, (1, 1): 1})
    assert s.laces() == [(0, 2), (1, 1)]


def test_lace_array_names_a_bad_entry():
    """A key outside dims.pairs() is named, as RankArray names one; so
    is the first negative interval, in pairs order."""
    with pytest.raises(ValueError, match=r"^bad lace index \(0,5\)$"):
        LaceArray(Dims((1, 1)), {(0, 1): 1, (0, 5): 3, (1, 0): 3})
    with pytest.raises(ValueError, match=r"^negative lace entry \(0,1\)$"):
        LaceArray(Dims((1, 2, 1)), {(1, 1): -1, (0, 1): -1, (0, 2): 3})


def test_not_realizable():
    dims = Dims((1, 1, 1))
    r = RankArray(dims, {(0, 1): 0, (0, 2): 1, (1, 2): 1})
    with pytest.raises(NotRealizable) as err:
        lace_array(r)
    assert (err.value.p, err.value.q) == (0, 1)


def test_lace_array_is_its_validated_copy():
    """lace_array builds its LaceArray unchecked (LaceArray._of_items);
    on every rank array of sweep_dims(7) and of the Hom arrays of its
    dims, it equals the LaceArray validated from its entries, with the
    same entries in the same insertion order, the same key and hash."""
    for dims in sweep_dims(7):
        for r in enumerate_rank_arrays(dims) + [hom_rank_array(dims)]:
            s = lace_array(r)
            copy = LaceArray(dims, dict(s.entries))
            assert s == copy and hash(s) == hash(copy), r
            assert list(s.entries.items()) == list(copy.entries.items())
            assert s._key == copy._key and repr(s) == repr(copy)


def test_lace_rank_inversion_exhaustive():
    for dims in [Dims((1, 1)), Dims((2, 2)), Dims((1, 2, 1)), Dims((2, 1, 2)), Dims((1, 2, 2, 1))]:
        for s in enumerate_lace_arrays(dims):
            assert lace_array(rank_array(s)) == s
        for r in enumerate_rank_arrays(dims):
            assert rank_array(lace_array(r)) == r


def test_rank_enumeration_is_the_room_recursion_in_order():
    """enumerate_rank_arrays lists, list for list, the validated rank
    arrays of the room recursion in quiver_reference: equal, in order,
    with the same entries in the same insertion order and the same key.
    Each also equals the RankArray built, and validated, from its
    entries, so an array the enumerator takes unchecked cannot be a bad
    one."""
    extra = [(4, 3, 3, 2), (2, 2, 2, 2, 2), (1,) * 9, (5,)]
    for dims in sweep_dims(8) + [Dims(r) for r in extra]:
        ranks, expected = enumerate_rank_arrays(dims), rank_arrays_by_room(dims)
        assert ranks == expected, dims
        for r, e in zip(ranks, expected):
            assert list(r.entries.items()) == list(e.entries.items())
            assert r._key == e._key
            assert r == RankArray(dims, dict(r.entries))


def test_an_enumerated_rank_array_behaves_as_its_validated_copy():
    """A rank array from the enumerator hashes, compares, pickles back,
    wraps in Orbit and writes JSON exactly as the RankArray validated
    from its entries."""
    for dims in [Dims((1, 2, 1)), Dims((2, 3, 3)), Dims((3,))]:
        for r in enumerate_rank_arrays(dims):
            copy = RankArray(dims, dict(r.entries))
            assert r == copy and copy == r and hash(r) == hash(copy)
            assert repr(r) == repr(copy)
            back = pickle.loads(pickle.dumps(r))
            assert back == copy and hash(back) == hash(copy)
            assert list(back.entries.items()) == list(copy.entries.items())
            orbit = Orbit(r)
            assert orbit == copy and hash(orbit) == hash(Orbit(copy))
            assert orbit.entries is r.entries and orbit.memo == {}
            assert json.dumps(to_json(r)) == json.dumps(to_json(copy))


def test_lace_enumeration_is_the_row_sum_filter_in_order():
    """enumerate_lace_arrays, the lace arrays of enumerate_rank_arrays,
    lists in order exactly the assignments that itertools.product makes
    over dims.pairs(), each interval (p, q) taking 0..min(r_p..r_q),
    whose laces through every row add up to its dim."""
    small = [
        r for d in range(1, 10) for n in range(3)
        for r in itertools.product(range(1, d + 1), repeat=n + 1) if sum(r) == d
    ]
    for r in small + [(1, 1, 1, 1), (2, 1, 1, 2)]:
        dims = Dims(r)
        pairs = dims.pairs()
        expected = [
            values
            for values in itertools.product(*(range(min(r[p : q + 1]) + 1) for p, q in pairs))
            if all(
                sum(v for (p, q), v in zip(pairs, values) if p <= i <= q) == ri
                for i, ri in enumerate(r)
            )
        ]
        assert [tuple(s[pq] for pq in pairs) for s in enumerate_lace_arrays(dims)] == expected


def test_hom_rank_array_is_entrywise_maximal():
    for dims in [Dims((1, 2, 1)), Dims((2, 2, 1)), Dims((1, 3, 2))]:
        hom = hom_rank_array(dims)
        for r in enumerate_rank_arrays(dims):
            assert all(r[i, j] <= hom[i, j] for i, j in dims.pairs())


def test_orbit_count_121():
    assert len(enumerate_rank_arrays(Dims((1, 2, 1)))) == 5


def test_integer_rank():
    assert integer_rank([]) == 0
    assert integer_rank([[0, 0], [0, 0]]) == 0
    assert integer_rank([[1, 2], [2, 4]]) == 1
    assert integer_rank([[1, 2], [3, 4]]) == 2
    assert integer_rank([[2, 4, 6], [1, 2, 3], [0, 1, 1]]) == 2


def test_representative_realizes_ranks():
    for dims in [Dims((1, 2, 1)), Dims((2, 2, 1)), Dims((1, 3, 3, 1)), Dims((3, 3, 2))]:
        for r in enumerate_rank_arrays(dims):
            assert rank_array_of(representative(lace_array(r))) == r


def test_generic_representative_realizes_ranks():
    for dims in [Dims((1, 2, 1)), Dims((2, 2, 1)), Dims((2, 1, 2)), Dims((3, 3, 2))]:
        for r in enumerate_rank_arrays(dims):
            for seed in (0, 1):
                rep = generic_representative(lace_array(r), seed=seed)
                assert rank_array_of(rep) == r


def test_zelevinsky_matrix_shape():
    dims = Dims((1, 2, 1))
    rep = representative(lace_array(hom_rank_array(dims)))
    z = zelevinsky_matrix(rep)
    assert len(z) == 4 and all(len(row) == 4 for row in z)
    # identity blocks on the block antidiagonal
    assert z[0][3] == 1  # row block 0 x col block 0
    assert z[1][1] == 1 and z[2][2] == 1
    assert z[3][0] == 1


def test_generic_representative_nw_profile_matches_zperm():
    for dims in [Dims((1, 2, 1)), Dims((2, 2, 1))]:
        for r in enumerate_rank_arrays(dims):
            z = zelevinsky_permutation(r)
            d = dims.d
            zmat = [[1 if z[q - 1] == p else 0 for p in range(1, d + 1)] for q in range(1, d + 1)]
            rep = generic_representative(lace_array(r))
            assert nw_rank_profile(zelevinsky_matrix(rep)) == nw_rank_profile(zmat)


def test_parse_input_rank_and_lace():
    r = parse_input({"dims": [1, 2, 1], "rank": {"0,1": 1, "0,2": 1, "1,2": 1}})
    assert r == hom_rank_array(Dims((1, 2, 1)))
    s = parse_input({"dims": [1, 2, 1], "lace": {"0,2": 1, "1,1": 1}})
    assert lace_array(s).laces() == [(0, 2), (1, 1)]
    r2 = parse_input(json.dumps(to_json(r)))
    assert r2 == r


def test_parse_input_errors_name_the_entry():
    with pytest.raises(ValueError, match=r"\(0,2\)"):
        parse_input({"dims": [1, 2, 1], "rank": {"0,1": 1, "1,2": 1}})
    with pytest.raises(ValueError):
        parse_input({"rank": {"0,1": 1}})
    with pytest.raises(ValueError):
        parse_input({"dims": [1, 2]})


@pytest.mark.parametrize(
    "obj, named",
    [
        ({"dims": "ab", "rank": {}}, '"dims"'),
        ({"dims": [], "rank": {}}, '"dims"'),
        ({"dims": [1, True], "rank": {}}, '"dims"'),
        ({"dims": [1, 1.0], "rank": {}}, '"dims"'),
        ({"dims": [1, 1], "rank": [1]}, '"rank"'),
        ({"dims": [1, 1], "lace": "0,1"}, '"lace"'),
        ({"dims": [1, 1], "rank": {"0,1": 1.5}}, '"0,1"'),
        ({"dims": [1, 1], "rank": {"0,1": True}}, '"0,1"'),
        ({"dims": [1, 1], "rank": {"0,1": "1"}}, '"0,1"'),
        ({"dims": [1, 1], "rank": {"01": 1}}, '"01"'),
        ({"dims": [1, 1], "rank": {"0,1,2": 1}}, '"0,1,2"'),
        ({"dims": [1, 1], "lace": {"a,b": 1}}, '"a,b"'),
        ([1, 1], "JSON object"),
        ({"dims": [1, 1], "rank": {"0,5": 1}}, '"0,5"'),
        ({"dims": [1, 1], "lace": {"0,5": 1}}, '"0,5"'),
        ({"dims": [1, 1], "lace": {"0,1": 1, "3,4": 2}}, '"3,4"'),
        # JSON text with one key twice in an object
        ('{"dims":[1,1],"rank":{"0,1":1,"0,1":0}}', 'repeated key "0,1"'),
    ],
)
def test_parse_input_rejects_malformed_entries(obj, named):
    with pytest.raises(ValueError) as info:
        parse_input(obj)
    assert named in str(info.value)
