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
    composite,
    identity,
    length,
    orbit_zperm,
    regions,
    require_permutation,
    subword_states,
    target_states,
)
from .poly import Poly, Variable, exact_divide, xvar
from .quiver import Dims, RankArray, shared
from .states import States, state_sum


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
def _grid_roots(dims: Dims) -> tuple[Poly, ...]:
    return tuple(roots(grid_word(dims)))


def _require_reduced(word: Word):
    if length(word.value()) != len(word.letters):
        raise NotReducedWord(f"word {word.letters} is not reduced")


def orbit_states(r: RankArray) -> States:
    """The grid word's subsets with product in perm(r), as live states
    (blockperm.subword_states).  Built once per quiver.Orbit; the pipe
    dream and ratio CSM classes both walk it, each with its own
    weights."""
    return shared(r, "subword_states", lambda r: subword_states(grid_word(r.dims).letters, r))


def orbit_reduced_states(r: RankArray) -> States:
    """The grid word's reduced subwords for z(r), as live states
    (blockperm.target_states).  Built once per quiver.Orbit; the pipe
    dream and ratio quiver polynomials both walk it."""
    return shared(
        r,
        "reduced_states",
        lambda r: target_states(grid_word(r.dims).letters, orbit_zperm(r), True),
    )


def subword_sum(states: States, weights: list | tuple) -> Poly:
    """The sum over the accepted subsets J of the product of weights[j]
    over j in J times the skip weight to the power L - |J|: h, or 1 in
    reduced mode.  It is state_sum over the live states, a skip weighing
    the skip weight and a take at letter k weighing weights[k]."""
    skip = Poly.one() if states.reduced else Poly.hbar()
    return state_sum(states.levels, [(skip, w) for w in weights])


def _restriction(v: tuple, word: Word, reduced: bool) -> Poly:
    _require_reduced(word)
    v = require_permutation(v, word.d)
    return subword_sum(target_states(word.letters, v, reduced), roots(word))


def ajs_billey(v: tuple, word: Word) -> Poly:
    """Restriction of the Schubert class of v at the word's value: the sum
    over reduced subwords for v of the product of their roots."""
    return _restriction(v, word, reduced=True)


def csm_restriction(v: tuple, word: Word) -> Poly:
    """Restriction of the CSM class of the Schubert cell of v: the sum over
    all subwords with ordered product v, h-weighted by skipped letters."""
    return _restriction(v, word, reduced=False)


def _forced_sum(states: States, betas) -> tuple[tuple[int, ...], Poly]:
    """(common, rest): the positions every accepted subset takes, and the
    state sum of the roots with those positions weighing 1.  The full
    sum is rest times the roots at common; keeping that forced block
    factored lets the ratio formulas cancel it without expanding it."""
    skipped = states.skipped
    common = tuple(j for j in range(len(betas)) if not skipped >> j & 1)
    weights = [b if skipped >> j & 1 else Poly.one() for j, b in enumerate(betas)]
    return common, subword_sum(states, weights)


def _cancel_hom(dims: Dims, num_common: tuple[int, ...], num_rest: Poly) -> Poly:
    """The orbit's subword sum, given as the roots at num_common times
    num_rest, divided by the Hom-orbit restriction.

    Shared forced positions cancel factor by factor, and exact_divide
    certifies the division of what is left.  On an orbit neither division
    runs: z(Hom) is dominant and its one reduced subword is D_Hom, so the
    Hom restriction is (the D_Hom positions, 1) (pinned over
    sweep_dims(8)), and every orbit's subsets take every D_Hom position
    (all of sweep(7); csm_pd raises DHomViolation if one does not).  The
    ratio is then the orbit's sum with the D_Hom roots left out.
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
    return _cancel_hom(r.dims, *_forced_sum(orbit_reduced_states(r), _grid_roots(r.dims)))


def csm_ratio(r: RankArray) -> Poly:
    """Sum of cell restrictions over perm(r), divided by the Hom class."""
    return _cancel_hom(r.dims, *_forced_sum(orbit_states(r), _grid_roots(r.dims)))


@lru_cache(maxsize=None)
def _hom_factored(dims: Dims) -> tuple[tuple[int, ...], Poly]:
    states = target_states(grid_word(dims).letters, blockperm.zelevinsky_hom(dims), True)
    return _forced_sum(states, _grid_roots(dims))
