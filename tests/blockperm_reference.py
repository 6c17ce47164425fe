"""The permutation references the tests check blockperm and the
localization words against.

compose and inverse apply the convention the blockperm docstring fixes,
(v o w)(k) = v(w(k)); w0 and block_w0 are the longest elements of S_d
and of the block subgroup; all_reduced_words lists reduced words back
to front by descents; rothe_diagram reads a permutation's inversions as
cells; regions_by_cells visits all d^2 cells of the grid for the strict
and D_Hom regions.  From blockperm they use only identity, left_mul_s,
length and the Regions record.
"""

from qcalc.blockperm import Permutation, Regions, identity, left_mul_s, length
from qcalc.quiver import Dims


class SizeMismatch(Exception):
    pass


def compose(v: Permutation, w: Permutation) -> Permutation:
    """(v o w)(k) = v(w(k))."""
    if len(v) != len(w):
        raise SizeMismatch(f"{len(v)} vs {len(w)}")
    return tuple(v[wk - 1] for wk in w)


def inverse(v: Permutation) -> Permutation:
    out = [0] * len(v)
    for k, vk in enumerate(v, start=1):
        out[vk - 1] = k
    return tuple(out)


def w0(d: int) -> Permutation:
    return tuple(range(d, 0, -1))


def block_w0(dims: Dims) -> Permutation:
    """Antidiagonal permutation in each diagonal block of sizes r_0..r_n."""
    out = []
    offset = 0
    for size in dims.r:
        out.extend(range(offset + size, offset, -1))
        offset += size
    return tuple(out)


def all_reduced_words(v: Permutation) -> list[tuple[int, ...]]:
    """Every reduced word for v, in lexicographic order.

    Words are built back to front: the last letter of a reduced word for
    v is any descent t of v (a position with v values t+1 before t).
    """
    if v == identity(len(v)):
        return [()]
    out = []
    for t in range(1, len(v)):
        sv = left_mul_s(t, v)
        if length(sv) < length(v):
            out.extend(word + (t,) for word in all_reduced_words(sv))
    return sorted(out)


def rothe_diagram(v: Permutation) -> set[tuple[int, int]]:
    """Cells (q, p) with v(q) > p and v^{-1}(p) > q."""
    vinv = inverse(v)
    d = len(v)
    return {
        (q, p)
        for q in range(1, d + 1)
        for p in range(1, d + 1)
        if v[q - 1] > p and vinv[p - 1] > q
    }


def regions_by_cells(dims: Dims) -> Regions:
    """The cells (q, p) whose column block j lies past row q's block i:
    j >= i + 1 strictly above the block antidiagonal, j >= i + 2 in
    D_Hom, tested on every cell."""
    strict, dhom = set(), set()
    for q, (i, _) in enumerate(dims.rows, start=1):
        for p, (j, _) in enumerate(dims.cols, start=1):
            if j >= i + 1:
                strict.add((q, p))
            if j >= i + 2:
                dhom.add((q, p))
    return Regions(frozenset(strict), frozenset(dhom))
