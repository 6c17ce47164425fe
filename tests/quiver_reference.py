"""The references the tests check the orbit enumeration, the Zelevinsky
matrix and the block 0/1 representative against.

lace_arrays_by_room is the former enumerator, which fills the lace
intervals in order while tracking each row's room; rank_arrays_by_room
composes it with quiver.rank_array.  generic_representative moves
quiver.representative to a point in general position by unimodular
changes of basis; rank_array_of and nw_rank_profile measure ranks
exactly over the integers, by fraction-free elimination
(integer_rank).  From quiver they use only representative, rank_array
and the array types.
"""

import random

from qcalc.quiver import Dims, LaceArray, RankArray, Rep, rank_array, representative


def lace_arrays_by_room(dims: Dims) -> list[LaceArray]:
    """All lace arrays for dims, in lexicographic order of their entries.

    The intervals are filled in dims.pairs() order while room[i] counts
    the laces row i still takes.  Every interval after (p, q) either
    starts at p and ends after q, or starts after p.  So for q < n, row p
    and the rows after it can still take laces later, and (p, q) may take
    any count up to the least room of rows p..q.  No interval after
    (p, n) covers row p, so (p, n) takes exactly row p's room, and fits
    only when no row of p..n has less.  Each row is thus filled exactly
    when the last interval through it is set, and counts are tried in
    increasing order, which gives the lexicographic order.
    """
    pairs = dims.pairs()
    entries: dict[tuple[int, int], int] = {}
    results: list[LaceArray] = []

    def rec(idx: int, room: tuple[int, ...]):
        if idx == len(pairs):
            results.append(LaceArray(dims, entries))
            return
        p, q = pairs[idx]
        cap = min(room[p : q + 1])
        for value in range(cap + 1) if q < dims.n else [cap] if room[p] == cap else []:
            entries[p, q] = value
            rec(idx + 1, tuple(x - value if p <= i <= q else x for i, x in enumerate(room)))

    rec(0, dims.r)
    return results


def rank_arrays_by_room(dims: Dims) -> list[RankArray]:
    """The rank arrays of lace_arrays_by_room(dims), validated, in its order."""
    return [rank_array(s) for s in lace_arrays_by_room(dims)]


def generic_representative(s: LaceArray, seed: int = 0) -> Rep:
    """A point of the orbit of s in general position, with integer entries.

    The 0/1 representative is moved by pseudorandom unimodular changes of
    basis at every level, so composite ranks are untouched.  General
    position matters for the Zelevinsky matrix: the direct-sum point can
    sit in a deeper Bruhat stratum than the orbit's dense one (and for
    some orbits every 0/1 point does), while a generic point realizes
    the northwest rank profile of the Zelevinsky permutation.
    """
    rng = random.Random(f"{seed}:{s.dims.r}:{sorted(s.entries.items())}")
    base = representative(s)
    g, g_inv = [], []
    for size in s.dims.r:
        lower = _unit_triangular(size, rng, below=True)
        upper = _unit_triangular(size, rng, below=False)
        g.append(_mat_mul(lower, upper))
        g_inv.append(_mat_mul(_unit_triangular_inverse(upper), _unit_triangular_inverse(lower)))
    phi = []
    for k in range(1, s.dims.n + 1):
        mat = _mat_mul(g[k], _mat_mul([list(row) for row in base.phi[k - 1]], g_inv[k - 1]))
        phi.append(tuple(tuple(row) for row in mat))
    return Rep(s.dims, tuple(phi))


def _unit_triangular(n: int, rng, below: bool) -> list[list[int]]:
    m = _identity(n)
    for i in range(n):
        for j in range(n):
            if (j < i) if below else (j > i):
                m[i][j] = rng.randint(1, 97)
    return m


def _unit_triangular_inverse(m: list[list[int]]) -> list[list[int]]:
    """Integer inverse of a unit triangular matrix, by substitution."""
    n = len(m)
    lower = all(m[i][j] == 0 for i in range(n) for j in range(i + 1, n))
    rows = range(n) if lower else range(n - 1, -1, -1)
    inv = [[0] * n for _ in range(n)]
    for col in range(n):
        for i in rows:
            acc = 1 if i == col else 0
            for k in range(n):
                if k != i and m[i][k] != 0:
                    acc -= m[i][k] * inv[k][col]
            inv[i][col] = acc
    return inv


def integer_rank(rows: list[list[int]]) -> int:
    """Exact rank of an integer matrix by fraction-free elimination."""
    m = [list(row) for row in rows]
    if not m or not m[0]:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    prev_pivot = 1
    row = 0
    for col in range(ncols):
        pivot_row = next((i for i in range(row, nrows) if m[i][col] != 0), None)
        if pivot_row is None:
            continue
        m[row], m[pivot_row] = m[pivot_row], m[row]
        pivot = m[row][col]
        for i in range(row + 1, nrows):
            for j in range(col + 1, ncols):
                m[i][j] = (pivot * m[i][j] - m[i][col] * m[row][j]) // prev_pivot
            m[i][col] = 0
        prev_pivot = pivot
        rank += 1
        row += 1
        if row == nrows:
            break
    return rank


def _mat_mul(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def rank_array_of(rep: Rep) -> RankArray:
    """Exact ranks of all composite maps of a representation."""
    dims = rep.dims
    entries = {}
    for i in range(dims.n + 1):
        comp = _identity(dims.r[i])
        entries[(i, i)] = dims.r[i]
        for j in range(i + 1, dims.n + 1):
            comp = _mat_mul([list(row) for row in rep.phi[j - 1]], comp)
            entries[(i, j)] = integer_rank(comp)
    return RankArray(dims, entries)


def nw_rank_profile(matrix: list[list[int]]) -> dict[tuple[int, int], int]:
    """Ranks of all top-q x left-p corners (1-based q, p)."""
    d = len(matrix)
    return {
        (q, p): integer_rank([row[:p] for row in matrix[:q]])
        for q in range(1, d + 1)
        for p in range(1, d + 1)
    }
