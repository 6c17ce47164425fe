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
from itertools import repeat
from operator import is_not

from .blockperm import (
    composite,
    identity,
    length,
    regions,
    require_permutation,
    subword_states,
    target_states,
)
from .poly import Poly, Variable, xvar
from .quiver import Dims, RankArray, hom_rank_array, per_orbit
from .states import States, state_sum


_HBAR = Poly.hbar()  # the skip weight of an undivided letter (subword_pairs)


class NotReducedWord(ValueError):
    pass


class DHomViolation(Exception):
    """An orbit's subsets skip a D_Hom position, or the Hom restriction is
    not the product of the D_Hom roots: a fault of the state builders,
    not bad input.  csm_pd and the ratio formulas (_cancel_hom) raise it."""


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


@lru_cache(maxsize=None)
def grid_word(dims: Dims) -> Word:
    """The strict-region word; its value is w0 * block-w0."""
    cells = sorted(regions(dims).strict_cells, key=lambda c: (-c[0], c[1]))
    letters = tuple(q + p - 1 for q, p in cells)
    zvars = tuple(xvar(i, a) for i, a in dims.rows)
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
def _grid_takes(dims: Dims, divided: bool) -> tuple[Poly, ...]:
    """The take weight of each grid word position in a ratio walk: its
    root, or its root over h in a CSM walk (subword_pairs)."""
    return tuple(b.times_hbar(-1) if divided else b for b in roots(grid_word(dims)))


def _require_reduced(word: Word):
    if length(word.value()) != len(word.letters):
        raise NotReducedWord(f"word {word.letters} is not reduced")


@per_orbit
def orbit_states(r: RankArray) -> States:
    """The grid word's subsets with product in perm(r), as live states
    (blockperm.subword_states, one backward pass over the coset states
    from the accepted label vectors).  Built once per quiver.Orbit; the
    pipe dream and ratio CSM classes both walk it, each with its own
    weights."""
    return subword_states(grid_word(r.dims).letters, r)


@per_orbit
def orbit_reduced_states(r: RankArray) -> States:
    """The grid word's reduced subwords for z(r), as live states
    (blockperm.subword_states in reduced mode: the same backward pass
    over the orbit's cosets, from z(r)'s label vector alone, keeping
    only the takes that raise length; z(r) itself is not built).  Built
    once per quiver.Orbit; the pipe dream and ratio quiver polynomials
    both walk it."""
    return subword_states(grid_word(r.dims).letters, r, True)


def subword_pairs(takes, reduced: bool, fold: bool = True) -> list[tuple[Poly, Poly]]:
    """The (skip, take) weights of each letter of a subword walk
    (states.state_sum), takes[k] the take weight of letter k: the one
    place that builds them.  In reduced mode a skip weighs 1.  Otherwise
    the walk is divided by h: takes[k] is the take weight over h and a
    skip weighs 1, except where takes[k] is Poly.one(), a take weight 1
    left undivided, where a skip weighs h (the callers put it where
    every subset takes); and h^D, D the number of divided letters, is
    folded into the last letter's weights (_fold_hbar).  Without fold
    the pairs are left unfolded: the ratio walks build them once per
    dims and fold the last letter per D (_ratio_pairs, _last_pair)."""
    one = Poly.one()
    if reduced:
        return [(one, w) for w in takes]
    pairs = [(_HBAR, w) if w is one else (one, w) for w in takes]
    if fold:
        _fold_hbar(pairs, sum(map(is_not, takes, repeat(one))))
    return pairs


def _fold_hbar(pairs: list, D: int) -> None:
    """Multiply the last letter's (skip, take) weights of a CSM walk by
    h^D, in place, D the number of letters whose weights are divided by
    h.  The walk multiplies the last letter first, so every node's sum
    is a polynomial of degree D."""
    if pairs:
        pairs[-1] = tuple(w.times_hbar(D) for w in pairs[-1])


def _restriction(v: tuple, word: Word, reduced: bool) -> Poly:
    _require_reduced(word)
    v = require_permutation(v, word.d)
    betas = roots(word)
    if not reduced:  # the CSM walk takes its weights divided by h (subword_pairs)
        betas = [b.times_hbar(-1) for b in betas]
    return state_sum(target_states(word.letters, v, reduced).levels, subword_pairs(betas, reduced))


def ajs_billey(v: tuple, word: Word) -> Poly:
    """Restriction of the Schubert class of v at the word's value: the sum
    over reduced subwords for v of the product of their roots."""
    return _restriction(v, word, reduced=True)


def csm_restriction(v: tuple, word: Word) -> Poly:
    """Restriction of the CSM class of the Schubert cell of v: the sum over
    all subwords with ordered product v, h-weighted by skipped letters."""
    return _restriction(v, word, reduced=False)


@lru_cache(maxsize=None)
def _ratio_pairs(dims: Dims, reduced: bool) -> tuple[tuple, tuple[Poly, Poly]]:
    """(free, forced): a ratio walk's (skip, take) weights at each grid
    word position that some subset skips, its take weight that of
    _grid_takes, and at a position every subset takes, a take weight
    Poly.one(), which a CSM walk leaves undivided.  Both come from
    subword_pairs, unfolded, once per dims and target; a CSM walk's last
    letter is folded per orbit (_last_pair)."""
    free = tuple(subword_pairs(_grid_takes(dims, not reduced), reduced, fold=False))
    (forced,) = subword_pairs((Poly.one(),), reduced, fold=False)
    return free, forced


@lru_cache(maxsize=None)
def _last_pair(dims: Dims, D: int, free: bool) -> tuple[Poly, Poly]:
    """The last letter's (skip, take) weights of a CSM ratio walk with D
    free letters, free when some subset skips the last letter: the
    unfolded pair of _ratio_pairs times h^D (_fold_hbar)."""
    pairs, forced = _ratio_pairs(dims, False)
    last = [pairs[-1] if free else forced]
    _fold_hbar(last, D)
    return last[0]


def _forced_sum(states: States, dims: Dims) -> tuple[int, Poly]:
    """(common, rest): the positions every accepted subset takes, as a
    mask with bit j for grid word position j (the complement of
    states.skipped), and the state sum walked with the take weights of
    _grid_takes, those positions' set to Poly.one(), which a CSM walk
    leaves undivided (subword_pairs).  The full sum is rest times the
    roots at common; keeping that forced block factored lets the ratio
    formulas cancel it without expanding it.  The walk's pairs depend on
    the orbit only through states.skipped: the per-dims pairs of
    _ratio_pairs, the forced pair put where skipped has no bit, and in a
    CSM walk the last letter's pair folded by h^D, D the free letters,
    skipped's bit count (_last_pair)."""
    skipped, reduced = states.skipped, states.reduced
    free, forced = _ratio_pairs(dims, reduced)
    L = len(free)
    walk = [pair if skipped >> j & 1 else forced for j, pair in enumerate(free)]
    if walk and not reduced:
        walk[-1] = _last_pair(dims, skipped.bit_count(), bool(skipped >> L - 1 & 1))
    return ~skipped & (1 << L) - 1, state_sum(states.levels, walk)


def _cancel_hom(r: RankArray, num_common: int, num_rest: Poly) -> Poly:
    """The orbit's subword sum, given as the roots at the positions of
    the mask num_common (_forced_sum) times num_rest, divided by the
    Hom-orbit restriction.

    The division only cancels.  z(Hom) is dominant and its one reduced
    subword is D_Hom, so the Hom restriction is the product of the D_Hom
    roots times 1 (_dhom_positions checks it once per dims), and every
    orbit's subsets take every D_Hom position, so num_common holds them
    all.  Those roots are a sub-multiset of the sum's factors, and the
    exact quotient is num_rest times the roots at the rest of
    num_common (_forced_roots): the orbit's sum with the D_Hom roots
    left out.  num_rest times that factor is one more kernel product
    (Poly.sum_of_products); where num_rest is Poly.one() the factor is
    returned as a copy, since an Orbit's memo, or the table of take
    weights for a lone root, holds it.  A sum that skips a D_Hom
    position raises DHomViolation, as csm_pd does on the same states;
    the missing positions are listed only then.
    """
    dhom = _dhom_positions(r.dims)
    if missing := dhom & ~num_common:
        listed = [j for j in range(missing.bit_length()) if missing >> j & 1]
        raise DHomViolation(f"subsets of the orbit skip D_Hom positions {listed}")
    if not (forced := num_common & ~dhom):
        return num_rest
    factor = _forced_roots(r, forced)
    if num_rest is not Poly.one():
        return Poly.sum_of_products(((num_rest, factor),))
    return Poly(factor.terms.copy(), factor._bound)


@per_orbit
def _forced_roots(r: RankArray, positions: int) -> Poly:
    """The product of the grid word's roots at the positions of the mask
    positions, linear forms multiplied into one factor in word order,
    each a kernel product (Poly.sum_of_products); a lone root is the
    cached take weight itself.  _cancel_hom multiplies it back for the
    forced positions outside D_Hom.  Built once per quiver.Orbit and
    mask, so in check() the two ratio targets share it where their
    forced positions agree, as they did on every orbit measured."""
    product = Poly.sum_of_products
    factor, *rest = (b for j, b in enumerate(_grid_takes(r.dims, False)) if positions >> j & 1)
    for beta in rest:
        factor = product(((factor, beta),))
    return factor


def quiver_poly_ratio(r: RankArray) -> Poly:
    """Restriction of [X_{z(r)}] divided by that of [X_{z(Hom)}]."""
    return _cancel_hom(r, *_forced_sum(orbit_reduced_states(r), r.dims))


def csm_ratio(r: RankArray) -> Poly:
    """Sum of cell restrictions over perm(r), divided by the Hom class."""
    return _cancel_hom(r, *_forced_sum(orbit_states(r), r.dims))


def _hom_factored(dims: Dims) -> tuple[int, Poly]:
    """The Hom-orbit restriction as (common, rest), from _forced_sum over
    the grid word's reduced subwords for z(Hom): subword_states in
    reduced mode on the dense orbit's rank array, as orbit_reduced_states
    walks any orbit's."""
    states = subword_states(grid_word(dims).letters, hom_rank_array(dims), True)
    return _forced_sum(states, dims)


@lru_cache(maxsize=None)
def _dhom_mask(dims: Dims) -> int:
    """The grid word positions of the D_Hom cells, as a mask with bit j
    for position j, the encoding of States.skipped.  csm_pd reads it as
    it is; the ratio formulas through _dhom_positions."""
    dhom = regions(dims).dhom_cells
    return sum(1 << j for j, c in enumerate(grid_word(dims).cells) if c in dhom)


@lru_cache(maxsize=None)
def _dhom_positions(dims: Dims) -> int:
    """_dhom_mask(dims), once the Hom restriction is checked to be the
    roots at those positions times 1, else DHomViolation."""
    dhom = _dhom_mask(dims)
    if _hom_factored(dims) != (dhom, Poly.one()):
        raise DHomViolation(f"the Hom restriction of dims {list(dims.r)} is not its D_Hom roots")
    return dhom
