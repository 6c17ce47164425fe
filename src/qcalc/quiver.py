"""Rank arrays, lace arrays, lacing diagrams and quiver representations.

An orbit of the change-of-basis action on Hom = Hom(V_0,V_1) x ... x
Hom(V_{n-1},V_n) is indexed equivalently by a rank array r (the ranks
r_ij of all composite maps V_i -> V_j) or by a lace array s (s_pq counts
indecomposable summands supported on the interval [p, q]).  This module
converts between the two, builds the canonical block 0/1 representative
of an orbit, forms the big d x d Zelevinsky matrix of a representation,
and parses the JSON input.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import cached_property, wraps


class NotRealizable(ValueError):
    """The rank array has a negative derived lace entry at (p, q)."""

    def __init__(self, p: int, q: int, value: int):
        super().__init__(f"derived lace entry s[{p},{q}] = {value} < 0")
        self.p, self.q = p, q


class BadRowSums(ValueError):
    """A lace array whose interval counts do not add up to the dims."""


@dataclass(frozen=True)
class Dims:
    """The dimension vector (r_0, ..., r_n); d is the total."""

    r: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "r", tuple(self.r))
        if not self.r or not all(is_int(x) and x >= 1 for x in self.r):
            raise ValueError(f"dimension vector must be positive integers, got {self.r}")

    @property
    def n(self) -> int:
        return len(self.r) - 1

    @property
    def d(self) -> int:
        return sum(self.r)

    @cached_property
    def rows(self) -> tuple[tuple[int, int], ...]:
        """The (block i, index a) of each row q of the d x d grid, at q - 1.

        Row blocks of sizes r_0..r_n run top to bottom, and a counts
        1..r_i within block i.  Row q is labelled by the alphabet variable
        poly.xvar(*rows[q - 1]).
        """
        return tuple((i, a) for i, size in enumerate(self.r) for a in range(1, size + 1))

    @cached_property
    def cols(self) -> tuple[tuple[int, int], ...]:
        """The (block j, index b) of each column p of the d x d grid, at p - 1.

        Column blocks are labelled right to left: the rightmost block has
        index 0 and size r_0, so block j has size r_j and starts
        r_n + ... + r_{j+1} columns from the left; b counts 1..r_j left
        to right within it.  Column p is labelled by poly.xvar(*cols[p - 1]).
        """
        return tuple((j, b) for j in range(self.n, -1, -1) for b in range(1, self.r[j] + 1))

    def pairs(self) -> list[tuple[int, int]]:
        """All index pairs (i, j) with 0 <= i <= j <= n."""
        n = self.n
        return [(i, j) for i in range(n + 1) for j in range(i, n + 1)]


class RankArray:
    """Prescribed ranks r_ij of all composites; r_ii is forced to r_i."""

    __slots__ = ("dims", "entries", "_key")

    def __init__(self, dims: Dims, entries: dict[tuple[int, int], int]):
        full = dict(entries)
        for i, ri in enumerate(dims.r):
            if full.setdefault((i, i), ri) != ri:
                raise ValueError(f"diagonal entry r[{i},{i}] must be {ri}")
        for i, j in full:
            if not (0 <= i <= j <= dims.n):
                raise ValueError(f"bad rank index ({i},{j})")
        for i, j in dims.pairs():
            if (i, j) not in full:
                raise ValueError(f"missing rank entry ({i},{j})")
            if full[(i, j)] < 0:
                raise ValueError(f"negative rank entry ({i},{j})")
        self.dims = dims
        self.entries = full
        self._key = (dims, tuple(sorted(full.items())))

    @classmethod
    def _of_items(cls, dims: Dims, items: tuple[tuple[tuple[int, int], int], ...]) -> RankArray:
        """The rank array whose entries are items, ((i, j), r_ij) for
        every pair of dims.pairs() in that order, taken as they are:
        for an enumerator whose arrays are valid as it builds them."""
        r = object.__new__(cls)
        r.dims, r.entries, r._key = dims, dict(items), (dims, items)
        return r

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        if i < 0 or j > self.dims.n:
            return 0
        return self.entries[(i, j)]

    def __hash__(self):
        return hash(self._key)

    def __eq__(self, other):
        return isinstance(other, RankArray) and self._key == other._key

    def __repr__(self):
        return f"RankArray(dims={self.dims.r}, entries={self.entries})"


class Orbit(RankArray):
    """A rank array carrying a memo of the objects its formulas share.

    engine.check builds one per orbit and hands it to all six formulas;
    it compares and hashes as the plain rank array it wraps.  It takes
    that array's dims, entries and key as they are, without validating
    them again: a RankArray is validated when it is built, or valid as
    enumerate_rank_arrays builds it, and, being hashed, is never
    changed.  The memo is the orbit's own and starts
    empty; it maps each per_orbit builder to what it built.  What
    depends on the word or the dims alone is cached per word or per
    dims, not here.
    """

    __slots__ = ("memo",)

    def __init__(self, r: RankArray):
        self.dims, self.entries, self._key = r.dims, r.entries, r._key
        self.memo: dict[object, object] = {}


def per_orbit(fn):
    """Decorate a builder of one object of a rank array: fn(r) is built
    once per Orbit and kept in its memo under fn itself; a plain
    RankArray gets a fresh fn(r) on every call."""

    @wraps(fn)
    def once(r: RankArray):
        if not isinstance(r, Orbit):
            return fn(r)
        memo = r.memo
        if fn not in memo:
            memo[fn] = fn(r)
        return memo[fn]

    return once


class LaceArray:
    """Multiplicities s_pq of the interval summands of an orbit.

    The row sums are checked in one pass over the intervals: each adds
    its count at row p and takes it off after row q (a difference
    array), and a running sum over the rows gives the laces through
    each.  BadRowSums names the first row that is off; a ValueError
    names a key outside dims.pairs(), or the first negative entry.
    """

    __slots__ = ("dims", "entries", "_key")

    def __init__(self, dims: Dims, entries: dict[tuple[int, int], int]):
        full = {pq: entries.get(pq, 0) for pq in dims.pairs()}
        if not entries.keys() <= full.keys():
            p, q = next(pq for pq in entries if pq not in full)
            raise ValueError(f"bad lace index ({p},{q})")
        step = [0] * (dims.n + 2)
        for (p, q), v in full.items():
            if v < 0:
                raise ValueError(f"negative lace entry ({p},{q})")
            step[p] += v
            step[q + 1] -= v
        total = 0
        for i, ri in enumerate(dims.r):
            total += step[i]
            if total != ri:
                raise BadRowSums(
                    f"laces through row {i} total {total}, expected {ri}"
                )
        self.dims = dims
        self.entries = full
        self._key = (dims, tuple(full.items()))  # dims.pairs() is sorted

    @classmethod
    def _of_items(cls, dims: Dims, items: tuple[tuple[tuple[int, int], int], ...]) -> LaceArray:
        """The lace array whose entries are items, ((p, q), s_pq) for
        every pair of dims.pairs() in that order, taken as they are: for
        lace_array, whose entries are valid as it derives them."""
        s = object.__new__(cls)
        s.dims, s.entries, s._key = dims, dict(items), (dims, items)
        return s

    def __getitem__(self, pq: tuple[int, int]) -> int:
        return self.entries.get(pq, 0)

    def __hash__(self):
        return hash(self._key)

    def __eq__(self, other):
        return isinstance(other, LaceArray) and self._key == other._key

    def __repr__(self):
        return f"LaceArray(dims={self.dims.r}, entries={self.entries})"

    def laces(self) -> list[tuple[int, int]]:
        """The intervals with multiplicity, sorted by (start, end)."""
        out = []
        for (p, q) in sorted(self.entries):
            out.extend([(p, q)] * self.entries[(p, q)])
        return out


@dataclass(frozen=True)
class Rep:
    """A quiver representation: integer matrices phi_k of shape r_k x r_{k-1}."""

    dims: Dims
    phi: tuple[tuple[tuple[int, ...], ...], ...]

    def __post_init__(self):
        r = self.dims.r
        if len(self.phi) != self.dims.n:
            raise ValueError("expected one matrix per arrow")
        for k, mat in enumerate(self.phi, start=1):
            if len(mat) != r[k] or any(len(row) != r[k - 1] for row in mat):
                raise ValueError(f"phi_{k} must be {r[k]} x {r[k-1]}")


@per_orbit
def lace_array(r: RankArray) -> LaceArray:
    """The lace array of a rank array, by inclusion-exclusion on ranks.

    s_pq = r_pq - r_{p-1,q} - r_{p,q+1} + r_{p-1,q+1}, with out-of-range
    entries read as zero.  A negative entry means no representation has
    these composite ranks.  The array is not validated again
    (LaceArray._of_items): its keys are dims.pairs(), and the entries
    through row i telescope to r_ii, which a RankArray holds at r_i, so
    every row sum is right.
    """
    ranks = r.entries  # every pair of r.dims, and nothing out of range
    get = ranks.get
    items = []
    for p, q in r.dims.pairs():
        s = ranks[p, q] - get((p - 1, q), 0) - get((p, q + 1), 0) + get((p - 1, q + 1), 0)
        if s < 0:
            raise NotRealizable(p, q, s)
        items.append(((p, q), s))
    return LaceArray._of_items(r.dims, tuple(items))


def rank_array(s: LaceArray) -> RankArray:
    """The rank array of a lace array: r_ij counts laces covering [i, j].

    Row i adds the laces starting at i to row i - 1: r_ij = r_{i-1,j} +
    the sum of s_iq over q >= j, one running sum from q = n down.
    """
    n = s.dims.n
    entries = {}
    ranks = [0] * (n + 1)  # ranks[j] = r_ij for the current row i
    for i in range(n + 1):
        run = 0
        for q in range(n, i - 1, -1):
            run += s.entries[i, q]
            ranks[q] += run
        entries.update(((i, j), ranks[j]) for j in range(i, n + 1))
    return RankArray(s.dims, entries)


def hom_rank_array(dims: Dims) -> RankArray:
    """The rank array of the dense orbit: r_ij = min(r_i, ..., r_j)."""
    entries = {(i, j): min(dims.r[i : j + 1]) for i, j in dims.pairs()}
    return RankArray(dims, entries)


def enumerate_rank_arrays(dims: Dims) -> list[RankArray]:
    """Rank arrays of all orbits, in lexicographic order of their lace
    arrays' entries in dims.pairs() order.

    Row p of a rank array is row p - 1 plus the laces starting at p:
    r_pj = r_{p-1,j} + t_j, where t_j counts the laces [p, q] with
    q >= j, so that s_pq = t_q - t_{q+1}.  Every lace through row p not
    yet counted starts there, so t_p = r_p - r_{p-1,p}; after it, t
    is any non-increasing run with t_j <= r_j - r_{p-1,j}, the room row
    j has left.  Every such choice leaves room for the rows after it,
    so the recursion over (p, j) in dims.pairs() order meets no dead
    end.  A larger t_{j+1} is a smaller s_pj, so t is tried from the
    largest down, which gives the lace arrays' order.  The entries
    ((i, j), r_ij) are kept as one stack as they are set, and each
    leaf takes them as they are (RankArray._of_items).
    """
    r, n = dims.r, dims.n
    above = [0] * (n + 1)  # above[j] = r_{p-1,j}, or r_pj once (p, j) is set
    items: list[tuple[tuple[int, int], int]] = []
    results: list[RankArray] = []

    def rec(p: int, j: int, t: int):
        if j > n:
            if p < n:
                rec(p + 1, p + 1, 0)
            else:
                results.append(RankArray._of_items(dims, tuple(items)))
            return
        was = above[j]
        room = r[j] - was
        for tj in [room] if j == p else range(min(t, room), -1, -1):
            above[j] = was + tj
            items.append(((p, j), was + tj))
            rec(p, j + 1, tj)
            items.pop()
        above[j] = was

    rec(0, 0, 0)
    return results


def enumerate_lace_arrays(dims: Dims) -> list[LaceArray]:
    """All lace arrays for dims, in lexicographic order of their entries:
    those of enumerate_rank_arrays(dims)."""
    return [lace_array(r) for r in enumerate_rank_arrays(dims)]


def representative(s: LaceArray) -> Rep:
    """The block 0/1 representation that is the direct sum of the laces.

    Laces are sorted by (start, end); within each level the laces passing
    through it take basis vectors in that order.
    """
    dims = s.dims
    laces = s.laces()
    index_at: list[dict[int, int]] = [dict() for _ in range(dims.n + 1)]
    counters = [0] * (dims.n + 1)
    for lace_id, (p, q) in enumerate(laces):
        for i in range(p, q + 1):
            index_at[i][lace_id] = counters[i]
            counters[i] += 1
    assert counters == list(dims.r)
    phi = []
    for k in range(1, dims.n + 1):
        mat = [[0] * dims.r[k - 1] for _ in range(dims.r[k])]
        for lace_id, (p, q) in enumerate(laces):
            if p <= k - 1 and k <= q:
                mat[index_at[k][lace_id]][index_at[k - 1][lace_id]] = 1
        phi.append(tuple(tuple(row) for row in mat))
    return Rep(dims, tuple(phi))


def zelevinsky_matrix(rep: Rep) -> list[list[int]]:
    """The d x d matrix with identity blocks on the block antidiagonal
    and the maps (as row-vector-action matrices) on the superantidiagonal.

    Rows and columns follow the block layout of Dims.rows and Dims.cols:
    cell (row (i, a), column (i, b)) is 1 when a = b, cell (row (i, a),
    column (i + 1, b)) is entry (b, a) of phi_{i+1}, and every other cell
    is 0.
    """
    dims, phi = rep.dims, rep.phi  # phi[i] is r_{i+1} x r_i
    return [
        [
            int(a == b) if j == i else phi[i][b - 1][a - 1] if j == i + 1 else 0
            for j, b in dims.cols
        ]
        for i, a in dims.rows
    ]


# -- JSON input ------------------------------------------------------------

def is_int(value) -> bool:
    """A JSON integer: an int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def unique_keys(pairs: list) -> dict:
    """json's object_pairs_hook: the object, or a ValueError naming a key
    given twice, which json.loads would resolve to its last value."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(f"repeated key {json.dumps(key)} in a JSON object")
        out[key] = value
    return out


def parse_dims(raw) -> Dims:
    """The "dims" entry of a JSON input: a non-empty array of integers."""
    if not (isinstance(raw, list) and raw and all(map(is_int, raw))):
        raise ValueError(f'"dims" must be a non-empty array of integers, got {json.dumps(raw)}')
    return Dims(tuple(raw))


def parse_input(obj: dict | str) -> RankArray:
    """Parse {"dims": [...], "rank": {"i,j": v}} or {"dims": [...], "lace": ...}.

    Diagonal rank entries are optional and default to the dims.  Every
    malformed entry raises ValueError naming it; so do two keys naming
    one entry (such as "0,1" and " 0,1"), and both objects at once.
    A str is read as JSON, and a key repeated in one of its objects
    raises ValueError too.
    """
    if isinstance(obj, str):
        obj = json.loads(obj, object_pairs_hook=unique_keys)
    if not isinstance(obj, dict) or "dims" not in obj:
        raise ValueError('input must be a JSON object carrying a "dims" array')
    dims = parse_dims(obj["dims"])

    def read_entries(name: str) -> dict[tuple[int, int], int]:
        raw = obj[name]
        if not isinstance(raw, dict):
            raise ValueError(f'"{name}" must be an object with "i,j" keys, got {json.dumps(raw)}')
        out, keys = {}, {}
        for key, value in raw.items():
            match = isinstance(key, str) and re.fullmatch(r"\s*(-?\d+)\s*,\s*(-?\d+)\s*", key)
            if not match:
                raise ValueError(f'{name} key {json.dumps(key)} must have the form "i,j"')
            if not is_int(value):
                raise ValueError(
                    f"{name} entry {json.dumps(key)} must be an integer, got {json.dumps(value)}"
                )
            i, j = int(match[1]), int(match[2])
            if not 0 <= i <= j <= dims.n:
                raise ValueError(
                    f"{name} key {json.dumps(key)} is out of range: need 0 <= i <= j <= {dims.n}"
                )
            if (i, j) in keys:
                first = json.dumps(keys[i, j])
                raise ValueError(f"{name} keys {first} and {json.dumps(key)} both name entry ({i},{j})")
            keys[i, j] = key
            out[(i, j)] = value
        return out

    if "rank" in obj and "lace" in obj:
        raise ValueError('input carries both a "rank" and a "lace" object; give one')
    if "rank" in obj:
        return RankArray(dims, read_entries("rank"))
    if "lace" in obj:
        return rank_array(LaceArray(dims, read_entries("lace")))
    raise ValueError('input must carry a "rank" or "lace" object')


def to_json(r: RankArray) -> dict:
    return {
        "dims": list(r.dims.r),
        "rank": {f"{i},{j}": r[i, j] for i, j in r.dims.pairs() if i != j},
    }
