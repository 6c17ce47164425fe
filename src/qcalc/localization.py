"""Restrictions of Schubert and Schubert-cell classes at the fixed point
w0 * block-w0, and the two ratio formulas built from them.

The grid word is the reduced word for w0 * block-w0 spelled by the cells
strictly above the block antidiagonal (letter s_{q+p-1} at cell (q, p)),
read rows bottom to top and west to east within a row.  Roots are
transported by the inverse partial product acting on the subscripts of
the concatenated alphabet z, where z_q is the variable labeling row q;
with that convention the root at a grid cell is exactly its row label
minus its column label.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import blockperm
from .blockperm import (
    BlockStructure,
    composite,
    identity,
    length,
    orbit_zperm,
    regions,
    subword_states,
)
from .poly import Poly, Variable, exact_divide, xvar
from .quiver import Dims, RankArray, shared


class NotReducedWord(Exception):
    pass


@dataclass(frozen=True)
class Word:
    """A word in simple transpositions with the alphabet it restricts in."""

    letters: tuple[int, ...]
    zvars: tuple[Variable, ...]  # z_1 .. z_d
    cells: tuple | None = None  # (q, p) tags when grid-derived

    @property
    def d(self) -> int:
        return len(self.zvars)

    def value(self) -> tuple:
        return composite(self.letters, self.d)


def generic_word(letters: tuple[int, ...], d: int) -> Word:
    """A word over the flat alphabet z_q = x^0_q, for convention tests."""
    return Word(tuple(letters), tuple(xvar(0, q) for q in range(1, d + 1)))


@lru_cache(maxsize=None)
def grid_word(dims: Dims) -> Word:
    """The strict-region word; its value is w0 * block-w0."""
    bs = BlockStructure(dims)
    cells = sorted(regions(dims).strict_cells, key=lambda c: (-c[0], c[1]))
    letters = tuple(q + p - 1 for q, p in cells)
    zvars = tuple(bs.row_var(q) for q in range(1, dims.d + 1))
    return Word(letters, zvars, tuple(cells))


def roots(word: Word) -> list[Poly]:
    """The root beta_j attached to each word position.

    beta_j is the inverse of the partial product of the first j-1
    letters, acting on the subscripts of z_{t_j} - z_{t_j + 1}.
    """
    uinv = list(identity(word.d))
    out = []
    for t in word.letters:
        out.append(Poly.var_diff(word.zvars[uinv[t - 1] - 1], word.zvars[uinv[t] - 1]))
        uinv[t - 1], uinv[t] = uinv[t], uinv[t - 1]
    return out


@lru_cache(maxsize=None)
def _grid_roots(dims: Dims) -> tuple[Poly, ...]:
    return tuple(roots(grid_word(dims)))


def _require_reduced(word: Word):
    if length(word.value()) != len(word.letters):
        raise NotReducedWord(f"word {word.letters} is not reduced")


def _search(word: Word, targets: frozenset, reduced: bool) -> list:
    return list(blockperm.subword_subsets(word.letters, word.d, targets, reduced))


def orbit_subwords(r: RankArray) -> list:
    """Pairs (J, v) over the reduced subwords J of the grid word whose
    ordered product v is z(r).  Searched once per quiver.Orbit; the pipe
    dream and ratio quiver polynomials both read it."""
    return shared(
        r,
        "reduced_subwords",
        lambda r: _search(grid_word(r.dims), frozenset([orbit_zperm(r)]), True),
    )


def orbit_states(r: RankArray) -> blockperm.SubwordStates:
    """The grid word's subsets with product in perm(r), as live states
    (blockperm.subword_states).  Built once per quiver.Orbit; the pipe
    dream and ratio CSM classes both walk it, each with its own
    weights."""
    return shared(r, "subword_states", lambda r: subword_states(grid_word(r.dims).letters, r))


def state_sum(states: blockperm.SubwordStates, weights: list) -> Poly:
    """The sum over the accepted subsets J of the product of weights[j]
    over j in J times h^(L - |J|).

    It runs the recursion S(k, s) = h S(k+1, s) + w_k S(k+1, s_k s)
    from the last letter back, over the live states only, keeping one
    level of partial sums at a time.  A position every accepted subset
    takes has no live skip branch, so it contributes w_k and no h.
    """
    hbar, one = Poly.hbar(), Poly.one()
    below = {s: one for s in states.levels[-1]}
    for k in range(len(weights) - 1, -1, -1):
        w = weights[k]
        forced = w == one
        level = {}
        for s, skip, take in states.edges(k):
            if skip is None and forced:
                level[s] = below[take]
                continue
            pairs = []
            if skip is not None:
                pairs.append((hbar, below[skip]))
            if take is not None:
                pairs.append((w, below[take]))
            level[s] = Poly.sum_of_products(pairs)
        below = level
    return Poly.sum(below.values())


def _factored_sum(word: Word, found: list, reduced: bool) -> tuple[tuple[int, ...], Poly]:
    """The subword sum over the found (J, v) pairs, with its forced
    positions kept as separate factors.

    Returns (common, rest): common lists the positions taken by every
    contributing subset, and rest is the sum over subsets of the product
    of the remaining roots (h-weighted per skipped position when not
    reduced), so the full sum is rest times the product of the common
    roots.  Keeping the forced block factored makes the ratio formulas
    cancel it without ever expanding it.
    """
    subsets = [J for J, _ in found]
    if not subsets:
        return (), Poly.zero()
    common = frozenset(subsets[0]).intersection(*subsets[1:])
    betas = roots(word)
    hbar = Poly.hbar()
    L = len(word.letters)

    def term(J: tuple[int, ...]) -> Poly:
        out = Poly.one() if reduced else hbar ** (L - len(J))
        for j in J:
            if j not in common:
                out = out * betas[j]
        return out

    return tuple(sorted(common)), Poly.sum(term(J) for J in subsets)


def _subword_sum(word: Word, targets: frozenset, reduced: bool) -> Poly:
    """Sum over position subsets whose ordered product lands in targets.

    Reduced mode takes products of reduced subwords only; otherwise each
    skipped position contributes a factor of h.
    """
    common, rest = _factored_sum(word, _search(word, targets, reduced), reduced)
    betas = roots(word)
    for j in common:
        rest = rest * betas[j]
    return rest


def ajs_billey(v: tuple, word: Word) -> Poly:
    """Restriction of the Schubert class of v at the word's value: the sum
    over reduced subwords for v of the product of their roots."""
    _require_reduced(word)
    return _subword_sum(word, frozenset([tuple(v)]), reduced=True)


def csm_restriction(v: tuple, word: Word) -> Poly:
    """Restriction of the CSM class of the Schubert cell of v: the sum over
    all subwords with ordered product v, h-weighted by skipped letters."""
    _require_reduced(word)
    return _subword_sum(word, frozenset([tuple(v)]), reduced=False)


def _cancel_hom(dims: Dims, num_common: tuple[int, ...], num_rest: Poly) -> Poly:
    """The orbit's subword sum, given as the roots at num_common times
    num_rest, divided by the Hom-orbit restriction.

    Both polynomials are products of forced-position roots times small
    sums, so the quotient cancels shared positions factor by factor and
    only divides out what is left; exact_divide still certifies that
    the division is exact.
    """
    den_common, den_rest = _hom_factored(dims)
    betas = _grid_roots(dims)
    den_set = frozenset(den_common)
    for j in num_common:
        if j not in den_set:
            num_rest = num_rest * betas[j]
    num_set = frozenset(num_common)
    for j in den_common:
        if j not in num_set:
            num_rest = exact_divide(num_rest, betas[j])
    if den_rest != Poly.one():
        num_rest = exact_divide(num_rest, den_rest)
    return num_rest


def quiver_poly_ratio(r: RankArray) -> Poly:
    """Restriction of [X_{z(r)}] divided by that of [X_{z(Hom)}]."""
    return _cancel_hom(r.dims, *_factored_sum(grid_word(r.dims), orbit_subwords(r), True))


def csm_ratio(r: RankArray) -> Poly:
    """Sum of cell restrictions over perm(r), divided by the Hom class.

    The numerator is the state sum of the roots over the orbit's
    subsets; the positions every subset takes are kept out of it as
    forced factors, to cancel against the Hom class."""
    states = orbit_states(r)
    betas = _grid_roots(r.dims)
    skipped = states.skipped
    common = tuple(j for j in range(len(betas)) if not skipped >> j & 1)
    weights = [b if skipped >> j & 1 else Poly.one() for j, b in enumerate(betas)]
    return _cancel_hom(r.dims, common, state_sum(states, weights))


@lru_cache(maxsize=None)
def _hom_factored(dims: Dims) -> tuple[tuple[int, ...], Poly]:
    word = grid_word(dims)
    hom = frozenset([blockperm.zelevinsky_hom(dims)])
    return _factored_sum(word, _search(word, hom, True), reduced=True)
