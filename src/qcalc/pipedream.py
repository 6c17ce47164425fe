"""Pipe dreams on the d x d grid and the two pipe dream formulas.

A pipe dream is a set of cross cells (q, p), 1-based rows top to bottom
and columns left to right, with every cross strictly above the main
antidiagonal (q + p <= d); all other cells are bumps.  A cross carries
the {N-S, E-W} strands and a bump the {W-N, S-E} arcs, so the pipe
entering at the west edge of row q flows northeast and exits the top
edge at some column v(q); v is the dream's permutation.

Crosses read rows bottom to top, west to east within a row, spell a
word in simple transpositions (letter s_{q+p-1} at cell (q, p)) whose
ordered product is v; the pipe dreams of a given permutation are
therefore the paths of the region word's reduced subword states toward
v (blockperm.target_states, the coset walk of blockperm.subword_states
on the dims (1, ..., 1), toward v's vector alone), which
enumerate_pipe_dreams lists.  Both formulas walk the grid word's states
over the orbit's own cosets (blockperm.subword_states): the quiver
polynomial the reduced subwords for z(r), whose shortest-coset walk
spells exactly z(r)'s reduced words, and the CSM class every subset
with product in perm(r).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .blockperm import regions, require_permutation, target_states
from .localization import (
    DHomViolation,
    _dhom_mask,
    grid_word,
    orbit_reduced_states,
    orbit_states,
    subword_pairs,
)
from .poly import Poly, xvar
from .quiver import Dims, RankArray
from .states import state_sum


class RegionViolation(ValueError):
    pass


@dataclass(frozen=True)
class PipeDream:
    dims: Dims
    crosses: frozenset

    def __post_init__(self):
        d = self.dims.d
        for q, p in self.crosses:
            if not (1 <= q and 1 <= p and q + p <= d):
                raise RegionViolation(f"cross at ({q},{p}) is outside the grid")

    def to_json(self) -> dict:
        return {"d": self.dims.d, "crosses": sorted(map(list, self.crosses))}


def region_cells(dims: Dims, region: str) -> list[tuple[int, int]]:
    """Cells of the region in reading order (rows bottom to top, then west
    to east), the order in which crosses spell the dream's word."""
    if region == "strict":
        return list(grid_word(dims).cells)
    if region != "full":
        raise ValueError(f"unknown region {region!r}")
    return [(q, p) for q in range(dims.d - 1, 0, -1) for p in range(1, dims.d - q + 1)]


def enumerate_pipe_dreams(dims: Dims, v: tuple, region: str = "full") -> list[PipeDream]:
    """All reduced pipe dreams with crosses in the region whose
    permutation is v, in the order States.paths walks them: a dream
    crosses the cells whose letter its path takes.  ValueError when v is
    not a permutation of 1..d."""
    v = require_permutation(v, dims.d)
    cells = region_cells(dims, region)
    states = target_states(tuple(q + p - 1 for q, p in cells), v, True)
    return [PipeDream(dims, frozenset(c for c, take in zip(cells, path) if take))
            for path in states.paths()]


@lru_cache(maxsize=None)
def _cell_weights(dims: Dims) -> tuple[Poly, ...]:
    """The weight of a cross at each grid word position: its cell label
    (row label - column label), or 1 on a D_Hom cell."""
    dhom, rows, cols = regions(dims).dhom_cells, dims.rows, dims.cols
    return tuple(
        Poly.one() if (q, p) in dhom else Poly.var_diff(xvar(*rows[q - 1]), xvar(*cols[p - 1]))
        for q, p in grid_word(dims).cells
    )


@lru_cache(maxsize=None)
def _cell_pairs(dims: Dims, reduced: bool) -> tuple[tuple[Poly, Poly], ...]:
    """The (skip, take) weights of each grid word position, from
    localization.subword_pairs, built once per dims, not per orbit.  A
    cross weighs its cell label, or 1 on a D_Hom cell.  The CSM walk
    takes each label over h, and a D_Hom cell, which every dream
    crosses, keeps its take weight 1 undivided."""
    one, takes = Poly.one(), _cell_weights(dims)
    if not reduced:
        takes = [w if w is one else w.times_hbar(-1) for w in takes]
    return tuple(subword_pairs(takes, reduced))


def quiver_poly_pd(r: RankArray) -> Poly:
    """Sum of cross weights over the reduced strict dreams of z(r), walked
    over the orbit's reduced states (_cell_pairs)."""
    return state_sum(orbit_reduced_states(r).levels, _cell_pairs(r.dims, True))


def csm_pd(r: RankArray) -> Poly:
    """CSM class of the open locus as a sum over non-reduced strict dreams
    of every permutation with the block counts of z(r).

    The sum runs over the orbit's shared states (states.state_sum): a
    cross weighs its cell label, a D_Hom cell weighs 1, a missing cross
    weighs h, and every dream must cross every D_Hom cell, else
    DHomViolation: states.skipped, a mask of the positions some dream
    leaves uncrossed, meets no bit of the D_Hom mask
    (localization._dhom_mask), and the missed cells are listed only when
    it does.  The walk is divided by h (_cell_pairs, cached per dims): a
    missing cross weighs 1, and every node's sum is a polynomial of
    degree D = dim Hom, the number of cells outside D_Hom.
    """
    states = orbit_states(r)
    if missing := states.skipped & _dhom_mask(r.dims):
        cells = [c for k, c in enumerate(grid_word(r.dims).cells) if missing >> k & 1]
        raise DHomViolation(f"dreams of the orbit miss cells {sorted(cells)}")
    return state_sum(states.levels, _cell_pairs(r.dims, False))
