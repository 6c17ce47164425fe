"""Pipe dreams on the d x d grid and the two pipe dream formulas.

A pipe dream is a set of cross cells (q, p), 1-based rows top to bottom
and columns left to right, with every cross strictly above the main
antidiagonal (q + p <= d); all other cells are bumps.  A cross carries
the {N-S, E-W} strands and a bump the {W-N, S-E} arcs, so the pipe
entering at the west edge of row q flows northeast and exits the top
edge at column trace(q).

Crosses read rows bottom to top, west to east within a row, spell a
word in simple transpositions (letter s_{q+p-1} at cell (q, p)) whose
ordered product equals the trace; enumeration of pipe dreams for a
given permutation therefore runs as a pruned subword search.
"""

from __future__ import annotations

from dataclasses import dataclass

from .blockperm import BlockStructure, orbit_perm_set, regions, subword_subsets
from .localization import grid_word, orbit_states, orbit_subwords, state_sum
from .poly import Poly
from .quiver import Dims, RankArray


class RegionViolation(Exception):
    pass


class DHomViolation(Exception):
    """A non-reduced strict dream missing a cross above the superantidiagonal."""


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


def trace(dream: PipeDream) -> tuple:
    """Exit column on the top edge for the pipe entering each row."""
    d = dream.dims.d
    crosses = dream.crosses
    out = []
    for q in range(1, d + 1):
        row, col, side = q, 1, "W"
        while row >= 1:
            cross = (row, col) in crosses
            if side == "W":
                if cross:
                    col += 1  # straight through, still heading east
                else:
                    row -= 1
                    side = "S"
            else:  # entering from the south
                if cross:
                    row -= 1
                else:
                    col += 1
                    side = "W"
        out.append(col)
    return tuple(out)


def region_cells(dims: Dims, region: str) -> list[tuple[int, int]]:
    """Cells of the region in reading order (rows bottom to top, then west
    to east), the order in which crosses spell the trace word."""
    if region == "strict":
        return list(grid_word(dims).cells)
    if region != "full":
        raise ValueError(f"unknown region {region!r}")
    return [(q, p) for q in range(dims.d - 1, 0, -1) for p in range(1, dims.d - q + 1)]


def enumerate_pipe_dreams(
    dims: Dims, v: tuple, region: str = "full", mode: str = "reduced"
) -> list[PipeDream]:
    """All pipe dreams with crosses in the region whose trace is v."""
    return [dream for dream, _ in locus_pipe_dreams(dims, frozenset([tuple(v)]), region, mode)]


def locus_pipe_dreams(dims: Dims, targets: frozenset, region: str, mode: str):
    """Pairs (dream, trace) over every dream whose trace is a target.

    One shared traversal of the region; much cheaper than enumerating
    target by target when the target set is large.
    """
    if mode not in ("reduced", "all"):
        raise ValueError(f"unknown mode {mode!r}")
    cells = region_cells(dims, region)
    letters = tuple(q + p - 1 for q, p in cells)
    for subset, v in subword_subsets(letters, dims.d, targets, reduced=(mode == "reduced")):
        yield PipeDream(dims, frozenset(cells[k] for k in subset)), v


def _orbit_dreams(r: RankArray):
    """(dream, trace) over the reduced strict dreams of z(r), from the
    orbit's shared search."""
    cells = grid_word(r.dims).cells
    for subset, v in orbit_subwords(r):
        yield PipeDream(r.dims, frozenset(cells[k] for k in subset)), v


def _label_product(dims: Dims, cells) -> Poly:
    """Product of (row label - column label) over the cells."""
    bs = BlockStructure(dims)
    out = Poly.one()
    for q, p in sorted(cells):
        out = out * Poly.var_diff(bs.row_var(q), bs.col_var(p))
    return out


def weight(dream: PipeDream, flavor: str = "chern") -> Poly:
    """Product of (row label - column label) over the counted crosses.

    Crosses above the block superantidiagonal contribute no factor; the
    csm flavor additionally carries h^(L - #crosses).
    """
    dims = dream.dims
    reg = regions(dims)
    if not dream.crosses <= reg.strict_cells:
        bad = sorted(dream.crosses - reg.strict_cells)[0]
        raise RegionViolation(f"cross at {bad} is outside the strict region")
    out = _label_product(dims, dream.crosses - reg.dhom_cells)
    if flavor == "csm":
        out = out * Poly.hbar() ** (reg.L - len(dream.crosses))
    elif flavor != "chern":
        raise ValueError(f"unknown flavor {flavor!r}")
    return out


def quiver_poly_pd(r: RankArray) -> Poly:
    """Sum of cross weights over the reduced strict dreams of z(r)."""
    return Poly.sum(weight(dream, "chern") for dream, _ in _orbit_dreams(r))


def csm_pd(r: RankArray, region: str = "strict") -> Poly:
    """CSM class of the open locus as a sum over non-reduced strict dreams
    of every permutation with the block counts of z(r).

    The strict sum runs over the orbit's shared states
    (localization.state_sum): a cross weighs its cell label, a D_Hom
    cell weighs 1, and every dream must cross every D_Hom cell, else
    DHomViolation.

    region="full" is an experimental probe, not the CSM class on every
    orbit: it takes the sum over full-grid dreams instead.  Dreams with
    more crosses than L cannot carry a nonnegative h power and are
    skipped; crosses outside the strict region contribute their cell
    label like any other counted cross.
    """
    dims = r.dims
    reg = regions(dims)
    if region == "strict":
        states = orbit_states(r)
        cells = grid_word(dims).cells
        skipped = states.skipped
        if missing := [c for k, c in enumerate(cells) if skipped >> k & 1 and c in reg.dhom_cells]:
            raise DHomViolation(f"dreams of the orbit miss cells {sorted(missing)}")
        bs = BlockStructure(dims)
        weights = [
            Poly.one() if (q, p) in reg.dhom_cells else Poly.var_diff(bs.row_var(q), bs.col_var(p))
            for q, p in cells
        ]
        return state_sum(states, weights)

    def weights():
        for dream, _ in locus_pipe_dreams(dims, orbit_perm_set(r), region, "all"):
            if len(dream.crosses) <= reg.L:
                yield Poly.hbar() ** (reg.L - len(dream.crosses)) * _label_product(
                    dims, dream.crosses - reg.dhom_cells
                )

    return Poly.sum(weights())
