"""Formula dispatch, consistency reports, and the exhaustive sweep."""

import importlib
import json
import pickle
from functools import reduce
from itertools import product
from operator import or_

import pytest

from qcalc import blockperm, cgpd, engine, localization, pipedream, quiver
from qcalc.blockperm import perm_set, zelevinsky_permutation
from qcalc.cgpd import enumerate_cgpd
from qcalc.engine import ConsistencyReport, check, compute, sweep, sweep_dims
from qcalc.localization import grid_word
from qcalc.pipedream import enumerate_pipe_dreams
from qcalc.poly import _GUARD, Poly, _reader, format_poly, parse_poly, xvar
from qcalc.quiver import Dims, RankArray, enumerate_rank_arrays, hom_rank_array
from cgpd_reference import minimal_words, router_words
from subword_reference import subword_subsets

MODULES = ("poly", "quiver", "blockperm", "pipedream", "cgpd", "localization", "engine", "cli")


def test_compute_dispatch():
    dims = Dims((1, 1))
    zero = RankArray(dims, {(0, 1): 0})
    a = Poly.var(xvar(0, 1))
    b = Poly.var(xvar(1, 1))
    for method in ("pd", "cgpd", "ratio"):
        assert compute(zero, "qpoly", method) == a - b
        assert compute(zero, "csm", method) == a - b
        assert compute(hom_rank_array(dims), "csm", method) == Poly.hbar()
        assert compute(hom_rank_array(dims), "qpoly", method) == Poly.one()
    with pytest.raises(ValueError):
        compute(zero, "qpoly", "magic")
    with pytest.raises(ValueError):
        compute(zero, "banana", "pd")


def test_check_121_hom():
    report = check(hom_rank_array(Dims((1, 2, 1))))
    assert report.ok
    assert report.counts["perm"] == 4
    assert report.counts["p_total"] == 5
    assert report.counts["cgpd"] == 3
    assert len(report.polynomials) == 6
    assert all(report.equal.values())
    assert report.laws == {"degree": True, "leading term": True}


def test_check_final_example():
    r = RankArray(Dims((2, 2, 1)), {(0, 1): 1, (0, 2): 0, (1, 2): 1})
    report = check(r)
    assert report.ok
    assert report.counts["rp_star"] == 3
    assert report.counts["cgpd_infinity"] == 3


def test_check_is_deterministic():
    r = hom_rank_array(Dims((1, 2, 1)))
    first = check(r).to_json()
    second = check(r).to_json()
    first["timings_ms"] = second["timings_ms"] = None
    assert first == second


def test_report_json_schema():
    report = check(hom_rank_array(Dims((1, 1))))
    payload = json.loads(json.dumps(report.to_json()))
    assert set(payload) == {
        "input",
        "polynomials",
        "equal",
        "laws",
        "counts",
        "timings_ms",
        "ok",
    }
    for text in payload["polynomials"].values():
        parse_poly(text)  # canonical strings re-parse
    assert all(isinstance(v, bool) for v in payload["equal"].values())
    assert list(payload["laws"]) == ["degree", "leading term"]
    assert all(isinstance(v, bool) for v in payload["laws"].values())
    assert all(isinstance(v, int) for v in payload["counts"].values())
    assert all(isinstance(v, float) for v in payload["timings_ms"].values())


def test_sweep_dims_budget():
    dims4 = [d.r for d in sweep_dims(4)]
    assert (1, 1) in dims4
    assert (1, 2, 1) in dims4
    assert (2, 2) in dims4
    assert (1, 5) not in dims4
    assert all(sum(a * b for a, b in zip(r, r[1:])) <= 4 for r in dims4)
    assert dims4 == sorted(dims4, key=lambda r: (len(r), r))


def test_sweep_small_budget_all_green():
    reports = sweep(2)
    assert reports
    assert all(report.ok for report in reports)
    # deterministic order: dims then orbit enumeration order
    again = sweep(2)
    assert [r.rank for r in reports] == [r.rank for r in again]


def test_pooled_sweep_returns_the_serial_polynomials(monkeypatch):
    """Polynomials that come back from pool workers are the ones check()
    computes here: equal, printed alike, and alike under arithmetic with
    polynomials built in this process."""
    monkeypatch.setenv("QCALC_THREADS", "2")
    pooled = sweep(3)
    serial = [check(r) for dims in sweep_dims(3) for r in enumerate_rank_arrays(dims)]
    assert [report.rank for report in pooled] == [report.rank for report in serial]
    local = Poly.var(xvar(0, 1)) - Poly.var(xvar(1, 2)) + Poly.hbar()
    for mine, theirs in zip(pooled, serial):
        assert mine.polynomials.keys() == theirs.polynomials.keys()
        for name, p in mine.polynomials.items():
            q = theirs.polynomials[name]
            assert p == q and hash(p) == hash(q)
            assert format_poly(p) == format_poly(q)
            assert format_poly(p * (p + local)) == format_poly(q * (q + local))


def test_check_reports_an_enumerated_array_as_its_validated_copy():
    """check() on each orbit of sweep(3) gives the same JSON report,
    timings_ms aside, whether it starts from the enumerator's rank array
    or from the RankArray validated from its entries."""
    for dims in sweep_dims(3):
        for r in enumerate_rank_arrays(dims):
            enumerated = check(r).to_json()
            validated = check(RankArray(dims, dict(r.entries))).to_json()
            del enumerated["timings_ms"], validated["timings_ms"]
            assert json.dumps(enumerated) == json.dumps(validated)


def _distinct(report: ConsistencyReport) -> list[list[str]]:
    """The report's polynomial names grouped by object, after checking
    that two of one target are one object exactly when their terms are
    equal (compared as dicts, so identity proves nothing)."""
    polys = report.polynomials
    for a, b in product(polys, repeat=2):
        if a.split("_")[0] == b.split("_")[0]:
            assert (polys[a] is polys[b]) == (polys[a].terms == polys[b].terms)
    groups: dict[int, list[str]] = {}
    for name, p in polys.items():
        groups.setdefault(id(p), []).append(name)
    return list(groups.values())


def test_equal_classes_are_one_object(monkeypatch):
    """A passing orbit holds one object per target; a pickle round trip
    and the reports of a pooled sweep keep that, so the pool sends each
    class once and the parent keeps it once."""
    both = [["qpoly_pd", "qpoly_cgpd", "qpoly_ratio"], ["csm_pd", "csm_cgpd", "csm_ratio"]]
    report = check(RankArray(Dims((2, 2, 1)), {(0, 1): 1, (0, 2): 0, (1, 2): 1}))
    assert _distinct(report) == both
    assert _distinct(pickle.loads(pickle.dumps(report))) == both
    monkeypatch.setenv("QCALC_THREADS", "2")
    pooled = sweep(3)
    assert len(pooled) > 1 and all(_distinct(report) == both for report in pooled)


def test_unequal_classes_stay_apart(monkeypatch):
    """A formula off by one keeps its own object, and every flag is
    still the outcome of comparing terms."""
    off = engine.QPOLY_METHODS["cgpd"]
    monkeypatch.setitem(engine.QPOLY_METHODS, "cgpd", lambda r: off(r) + 1)
    report = check(RankArray(Dims((2, 2, 1)), {(0, 1): 1, (0, 2): 0, (1, 2): 1}))
    assert _distinct(report) == [
        ["qpoly_pd", "qpoly_ratio"], ["qpoly_cgpd"], ["csm_pd", "csm_cgpd", "csm_ratio"]
    ]
    assert [name for name, flag in report.equal.items() if not flag] == [
        "qpoly:pd=cgpd", "qpoly:cgpd=ratio"
    ]
    assert not report.ok


def test_sweep_budget_covers_11():
    reports = sweep(1)
    pairs = [report.rank.dims.r for report in reports]
    assert pairs.count((1, 1)) == 2  # both orbits of dims (1, 1)


def _hom_csm(dims: Dims, sign: int) -> Poly:
    """The product over the coordinates (j, k) of each map V_i -> V_{i+1}
    of sign * (x^i_j - x^{i+1}_k) + h."""
    out = Poly.one()
    for i in range(dims.n):
        for j in range(1, dims.r[i] + 1):
            for k in range(1, dims.r[i + 1] + 1):
                diff = Poly.var(xvar(i, j)) - Poly.var(xvar(i + 1, k))
                out = out * (sign * diff + Poly.hbar())
    return out


# small dims of one to five vertices (on one, Hom is a point and every
# class is 1); (2,2,2,2) also holds but takes longer than all of these
# together
ADDITIVITY_DIMS = [
    (1,), (3,), (1, 1), (1, 2), (2, 1), (2, 2), (1, 2, 1), (2, 2, 1),
    (1, 2, 2), (2, 3), (2, 2, 2), (1, 2, 1, 1), (2, 3, 2), (3, 3), (1, 3, 2),
    (1, 2, 2, 1), (3, 2, 3), (1, 1, 1, 1, 1),
]


def test_csm_classes_add_up_to_hom():
    """The orbits of one dims partition Hom, and CSM classes are additive,
    so the CSM classes of the orbits sum to that of the vector space Hom:
    the product of (x^i_j - x^{i+1}_k + h) over its coordinates.  The
    law reads only each formula's output."""
    for r in ADDITIVITY_DIMS:
        dims = Dims(r)
        ranks = enumerate_rank_arrays(dims)
        hom = _hom_csm(dims, 1)
        for method in ("pd", "cgpd", "ratio"):
            total = Poly.sum(compute(rank, "csm", method) for rank in ranks)
            assert total == hom, (r, method)
    assert total != _hom_csm(dims, -1)


def test_csm_classes_are_homogeneous_of_degree_dim_hom():
    """The CSM walks divide their weights by h and fold h^D back in at
    the last level, so a fold one power off, or a key whose h field went
    negative, would show here: every CSM class of sweep(5), by every
    method, is homogeneous of degree dim Hom (one factor of degree 1 per
    coordinate of Hom), and no key has a guard bit set."""
    count = 0
    for dims in sweep_dims(5):
        dim_hom = sum(a * b for a, b in zip(dims.r, dims.r[1:]))
        for r in enumerate_rank_arrays(dims):
            for method in ("pd", "cgpd", "ratio"):
                p = compute(r, "csm", method)
                read = _reader(p.terms)[0]
                assert {sum(read(m)) for m in p.terms} == {dim_hom}, (r, method)
                assert not reduce(or_, p.terms, 0) & _GUARD, (r, method)
                count += 1
    assert count == 642


def _count_calls(monkeypatch, *functions):
    """Point every qcalc module's reference to each function at a
    wrapper that counts its calls; returns name -> calls."""
    calls = {fn.__name__: 0 for fn in functions}
    wrappers = {}
    for fn in functions:

        def wrapper(*args, _fn=fn, **kwargs):
            calls[_fn.__name__] += 1
            return _fn(*args, **kwargs)

        wrappers[id(fn)] = wrapper
    for name in ("qcalc",) + tuple(f"qcalc.{m}" for m in MODULES):
        mod = importlib.import_module(name)
        for attr, obj in list(vars(mod).items()):
            if id(obj) in wrappers:
                monkeypatch.setattr(mod, attr, wrappers[id(obj)])
    return calls


SHARED = (
    blockperm.block_counts,
    blockperm.perm_set,
    blockperm.subword_states,
    blockperm.target_states,
    cgpd.enumerate_cgpd,
    cgpd._states,
    quiver.lace_array,
)


PER_ORBIT = (
    quiver.lace_array,
    blockperm.block_counts,
    blockperm.zelevinsky_permutation,
    cgpd.orbit_routing,
    cgpd.minimal_states,
    localization.orbit_states,
    localization.orbit_reduced_states,
)


def test_check_builds_each_shared_object_once(monkeypatch):
    """check() stores each per_orbit object once in its Orbit's memo, and
    the builders behind them, which memoize nothing, run once each."""
    stored = {}

    class Memo(dict):
        def __setitem__(self, key, value):
            stored[key] = stored.get(key, 0) + 1
            super().__setitem__(key, value)

    class CountingOrbit(quiver.Orbit):
        def __init__(self, r):
            super().__init__(r)
            self.memo = Memo()

    r = RankArray(Dims((2, 2, 1)), {(0, 1): 1, (0, 2): 0, (1, 2): 1})
    check(r)  # caches the Hom search of these dims
    monkeypatch.setattr(engine, "Orbit", CountingOrbit)
    calls = _count_calls(
        monkeypatch,
        blockperm.perm_set,
        blockperm.subword_states,
        blockperm.target_states,
        cgpd.enumerate_cgpd,
        cgpd._states,
    )
    report = check(r)
    assert report.ok
    assert report.rank is r
    assert stored == {fn.__wrapped__: 1 for fn in PER_ORBIT}
    assert calls == {
        "perm_set": 0,
        "subword_states": 1,
        "target_states": 1,
        "enumerate_cgpd": 0,  # the counts and every cgpd formula read the one state set
        "_states": 1,
    }


def test_compute_shares_nothing_between_requests(monkeypatch):
    r = RankArray(Dims((2, 2, 1)), {(0, 1): 1, (0, 2): 0, (1, 2): 1})
    check(r)  # caches the Hom search of these dims
    calls = _count_calls(monkeypatch, *SHARED)
    for _ in range(2):
        for target in ("qpoly", "csm"):
            compute(r, target, "pd")
            compute(r, target, "cgpd")
            compute(r, target, "ratio")
    assert calls == {
        "block_counts": 8,
        "perm_set": 0,
        "subword_states": 4,
        "target_states": 4,
        "enumerate_cgpd": 0,
        "_states": 4,
        "lace_array": 12,  # a plain rank array memoizes nothing
    }


def _count_pass(r):
    """The enumeration sizes, each recomputed from scratch by the reference
    subword search and router."""
    dims = r.dims
    z = zelevinsky_permutation(r)
    targets = frozenset(perm_set(r))
    letters = grid_word(dims).letters
    words = router_words(r)
    return {
        "perm": len(targets),
        "rp_star": sum(1 for _ in subword_subsets(letters, dims.d, frozenset([z]), True)),
        "p_total": sum(1 for _ in subword_subsets(letters, dims.d, targets, False)),
        "cgpd": len(words),
        "cgpd_infinity": len(minimal_words(words)),
    }


SINGLE_VERTEX = (Dims((1,)), Dims((3,)))  # n = 0: an empty grid word and no cgpd cell


def test_counts_match_a_separate_count_pass():
    reports = sweep(3)
    assert len(reports) > 20
    reports += [check(r) for dims in SINGLE_VERTEX for r in enumerate_rank_arrays(dims)]
    for report in reports:
        assert report.counts == _count_pass(report.rank), report.rank


def test_single_vertex_dims():
    """On one vertex the grid word is empty (L = 0) and there is no cgpd
    cell, so each state DAG is its start alone: every polynomial is 1,
    and each enumeration gives one diagram.  The CSM walks divide no
    level by h, so they fold h^0 into no weight and give 1 as well."""
    for dims in SINGLE_VERTEX:
        (r,) = enumerate_rank_arrays(dims)
        report = check(r)
        assert report.ok
        assert [format_poly(p) for p in report.polynomials.values()] == ["1"] * 6
        assert cgpd._tile_weights(dims, True) == () == pipedream._cell_pairs(dims, False)
        for method in ("pd", "cgpd", "ratio"):
            assert compute(r, "csm", method).terms == {0: 1}
        assert len(enumerate_pipe_dreams(dims, zelevinsky_permutation(r), "strict")) == 1
        assert len(enumerate_cgpd(r)) == 1
