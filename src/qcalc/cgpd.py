"""Chained generic pipe dreams and the two formulas built on them.

A chained generic pipe dream on dims (r_0..r_n) is a chain of tiled
rectangles joined northeast corner to southwest corner: rectangle i has
r_i rows and r_{i+1} columns of tiles (rectangle n is r_n x 0 and
carries none).  One pipe enters each row from the east; pipes travel
west and south only.  A pipe leaving the south edge at column k enters
the next rectangle from the east at row k, and a pipe leaving a west
edge is gone for good, so every pipe occupies an interval of
rectangles, exactly like a lace.

Tiles are written with one-character codes:

    "."  blank           no strands
    "-"  horizontal      east-west strand
    "|"  vertical        north-south strand
    "+"  crossing        both straight strands
    "r"  east elbow      east-to-south turn
    "j"  west elbow      north-to-west turn
    "b"  bump            east-to-south and north-to-west, no crossing

The color of a pipe is the last rectangle it appears in; two pipes of
equal color may never cross.
"""

from __future__ import annotations

from dataclasses import dataclass

from .poly import Poly, xvar
from .quiver import Dims, RankArray, lace_array, shared

TILE_CODES = (".", "-", "|", "+", "r", "j", "b")

# which of the four cell edges each tile kind touches
_EDGES = {
    ".": frozenset(),
    "-": frozenset("EW"),
    "|": frozenset("NS"),
    "+": frozenset("NSEW"),
    "r": frozenset("ES"),
    "j": frozenset("NW"),
    "b": frozenset("NSEW"),
}

# outgoing edge by (tile, incoming edge); pipes only ever enter from E or N
_STEP = {
    ("-", "E"): "W",
    ("+", "E"): "W",
    ("r", "E"): "S",
    ("b", "E"): "S",
    ("|", "N"): "S",
    ("+", "N"): "S",
    ("j", "N"): "W",
    ("b", "N"): "W",
}

# the tiles that take exactly the strands arriving from (east, north)
_FITS = {
    (east, north): tuple(
        code for code in TILE_CODES if ("E" in _EDGES[code], "N" in _EDGES[code]) == (east, north)
    )
    for east in (False, True)
    for north in (False, True)
}


class InvalidCGPD(Exception):
    pass


class EdgeMismatch(InvalidCGPD):
    """Adjacent tiles (or a boundary) disagree about a strand."""

    def __init__(self, rect: int, row: int, col: int, detail: str):
        super().__init__(f"rectangle {rect}, cell ({row},{col}): {detail}")
        self.cell = (rect, row, col)


class NorthLeak(InvalidCGPD):
    """A top-row tile reaches for a strand from above the rectangle."""


class SameColorCross(InvalidCGPD):
    """Two pipes with the same last rectangle cross at this tile."""

    def __init__(self, rect: int, row: int, col: int):
        super().__init__(f"same-color crossing in rectangle {rect} at ({row},{col})")
        self.cell = (rect, row, col)


class LaceCountMismatch(InvalidCGPD):
    """The traced pipes do not realize the requested lace array."""


@dataclass(frozen=True)
class PipePath:
    """One pipe: the lace interval [start, end] it realizes."""

    start: int
    end: int


@dataclass(frozen=True)
class CGPD:
    """Tile grids only; pipes and colors are always re-derived."""

    dims: Dims
    grids: tuple[tuple[tuple[str, ...], ...], ...]

    def __post_init__(self):
        dims = self.dims
        if len(self.grids) != dims.n:
            raise InvalidCGPD(f"expected {dims.n} tiled rectangles, got {len(self.grids)}")
        for i, grid in enumerate(self.grids):
            if len(grid) != dims.r[i] or any(len(row) != dims.r[i + 1] for row in grid):
                raise InvalidCGPD(
                    f"rectangle {i} must be {dims.r[i]} x {dims.r[i + 1]}"
                )
            for row in grid:
                for code in row:
                    if code not in _EDGES:
                        raise InvalidCGPD(f"unknown tile code {code!r}")

    def tile(self, rect: int, row: int, col: int) -> str:
        return self.grids[rect][row - 1][col - 1]

    def to_json(self) -> dict:
        return {"rects": [[list(row) for row in grid] for grid in self.grids]}

    @classmethod
    def from_json(cls, dims: Dims, obj: dict) -> "CGPD":
        if "rects" not in obj:
            raise InvalidCGPD('missing "rects"')
        rects = obj["rects"]
        if not isinstance(rects, list) or not all(
            isinstance(grid, list)
            and all(isinstance(row, list) and all(isinstance(c, str) for c in row) for row in grid)
            for grid in rects
        ):
            raise InvalidCGPD('"rects" must be a list of grids, each a list of rows of tile strings')
        return cls(dims, tuple(tuple(tuple(row) for row in grid) for grid in rects))


def _route(
    dims: Dims, want: dict[tuple[int, int], int] | None = None, held: CGPD | None = None
):
    """Lay tiles and route pipes in one depth-first pass.

    Rectangles are tiled in order, each top to bottom and east to west,
    so the pipes arriving at a cell from the east and the north are
    known when it is reached; only the tiles whose edges take exactly
    those strands are tried, and each pipe follows _STEP.  A pipe ends
    when it leaves a west edge, or in rectangle n when it leaves the
    last tiled rectangle southward (rectangle n's other rows start
    pipes that end at once).

    With want (lace counts by interval) a branch stops as soon as a lace
    is used more often than want allows, or a rectangle closes while a
    lace ending in it is still owed.  With held every cell is held to
    that diagram's tile, and a tile that does not take the arriving
    strands raises EdgeMismatch or NorthLeak.

    Yields (grids, pipes, colors) per routed diagram: grids are live
    lists that the next step overwrites, pipes lists (start, end) per
    pipe, and colors maps each cell where two pipes meet (codes + and b)
    to the colors of the pipes arriving from the east and from the north.
    """
    n, r = dims.n, dims.r
    grids = [[[""] * r[i + 1] for _ in range(r[i])] for i in range(n)]
    # south[i][j][k]: the pipe leaving cell (j, k) of rectangle i southward;
    # row 0 is the closed north edge
    south = [[[None] * (r[i + 1] + 1) for _ in range(r[i] + 1)] for i in range(n)]
    start: list[int] = []
    end: list[int] = []
    used = dict.fromkeys(dims.pairs(), 0)
    meets: list[tuple[tuple[int, int, int], int, int]] = []  # (cell, pipe from E, pipe from N)

    def finish(pipe: int, i: int, then):
        """Pipe ends in rectangle i; go on unless its lace is overused."""
        lace = (start[pipe], i)
        end[pipe] = i
        used[lace] += 1
        if want is None or used[lace] <= want[lace]:
            yield from then
        used[lace] -= 1

    def row(i: int, j: int):
        """Row j of rectangle i, whose pipe enters from the east; past the
        last row, rectangle i closes.  Rectangle n has rows but no tiles."""
        if j > r[i]:
            if want is not None and any(used[p, i] != want[p, i] for p in range(i + 1)):
                return
            if i < n:
                yield from row(i + 1, 1)
            else:
                colors = {cell: (end[east], end[north]) for cell, east, north in meets}
                yield grids, list(zip(start, end)), colors
            return
        pipe = south[i - 1][-1][j] if i else None
        fresh = pipe is None
        if fresh:
            pipe = len(start)
            start.append(i)
            end.append(i)
        if i < n:
            yield from lay(i, j, r[i + 1], pipe)
        else:
            yield from finish(pipe, n, row(n, j + 1))
        if fresh:
            start.pop()
            end.pop()

    def lay(i: int, j: int, k: int, east: int | None):
        north = south[i][j - 1][k]
        codes = _FITS[east is not None, north is not None]
        if held is not None:
            code = held.grids[i][j - 1][k - 1]
            if code not in codes:
                if ("E" in _EDGES[code]) != (east is not None):
                    raise EdgeMismatch(i, j, k, "east neighbor disagrees" if k < r[i + 1]
                                       else "east edge of the row is unused")
                if j == 1:
                    raise NorthLeak(
                        f"rectangle {i}, cell ({j},{k}) expects a strand from the north edge"
                    )
                raise EdgeMismatch(i, j - 1, k, "south neighbor disagrees")
            codes = (code,)
        for code in codes:
            grids[i][j - 1][k - 1] = code
            west = down = None
            for came, pipe in (("E", east), ("N", north)):
                if pipe is not None:
                    if _STEP[code, came] == "W":
                        west = pipe
                    else:
                        down = pipe
            south[i][j][k] = down
            if down is not None and west is not None:
                meets.append(((i, j, k), east, north))
            if k > 1:
                yield from lay(i, j, k - 1, west)
            elif west is None:
                yield from row(i, j + 1)
            else:
                yield from finish(west, i, row(i, j + 1))
            if down is not None and west is not None:
                meets.pop()

    yield from row(0, 1)


def _same_color_cross(grids, colors) -> tuple[int, int, int] | None:
    """The first crossing tile whose two pipes end in the same rectangle."""
    for (i, j, k), (east, north) in colors.items():
        if east == north and grids[i][j - 1][k - 1] == "+":
            return i, j, k
    return None


def _routed(delta: CGPD):
    """Route a given diagram: its pipes and the colors where two pipes
    meet.  Raises on the first fault, in laying order (east to west)."""
    grids, pipes, colors = next(_route(delta.dims, held=delta))
    cell = _same_color_cross(grids, colors)
    if cell is not None:
        raise SameColorCross(*cell)
    return pipes, colors


def validate(delta: CGPD, r: RankArray) -> list[PipePath]:
    """Trace the pipes and check every invariant against the rank array."""
    if delta.dims != r.dims:
        raise InvalidCGPD("dims of the diagram and rank array differ")
    pipes, _ = _routed(delta)
    intervals = sorted(pipes)
    expected = sorted(lace_array(r).laces())
    if intervals != expected:
        raise LaceCountMismatch(
            f"pipes realize laces {intervals}, rank array needs {expected}"
        )
    return [PipePath(start, end) for start, end in intervals]


def enumerate_cgpd(r: RankArray) -> list[CGPD]:
    """All valid diagrams realizing the laces of r, in tile-code order."""
    dims = r.dims
    out = [
        CGPD(dims, tuple(tuple(map(tuple, grid)) for grid in grids))
        for grids, _, colors in _route(dims, want=lace_array(r).entries)
        if _same_color_cross(grids, colors) is None
    ]
    out.sort(key=lambda delta: delta.grids)
    return out


def cgpd_weight(delta: CGPD) -> Poly:
    """Product of the tile weights, with colors derived from the routing.

    Straight strands (crossing, horizontal, vertical) contribute the
    cell label x^i_j - x^{i+1}_k; turning tiles and two-color bumps
    contribute h; blanks and one-color bumps contribute the cell label
    plus h.
    """
    _, colors = _routed(delta)
    total = Poly.one()
    for i, grid in enumerate(delta.grids):
        for j, row in enumerate(grid, start=1):
            for k, code in enumerate(row, start=1):
                label = Poly.var_diff(xvar(i, j), xvar(i + 1, k))
                if code in "+-|":
                    total = total * label
                elif code in "rj" or (code == "b" and colors[i, j, k][0] != colors[i, j, k][1]):
                    total = total * Poly.hbar()
                else:
                    total = total * (label + Poly.hbar())
    return total


def orbit_cgpd(r: RankArray) -> list[CGPD]:
    """enumerate_cgpd(r), computed once per quiver.Orbit."""
    return shared(r, "cgpd", enumerate_cgpd)


def csm_cgpd(r: RankArray) -> Poly:
    """CSM class of the open locus as a sum of diagram weights."""
    return Poly.sum(cgpd_weight(delta) for delta in orbit_cgpd(r))


def crossing_tiles(delta: CGPD) -> list[tuple[int, int, int]]:
    """The cells carrying a straight strand (codes +, -, |)."""
    return [
        (i, j, k)
        for i, grid in enumerate(delta.grids)
        for j, row in enumerate(grid, start=1)
        for k, code in enumerate(row, start=1)
        if code in "+-|"
    ]


def cgpd_infinity(r: RankArray) -> list[CGPD]:
    """The diagrams with the fewest straight-strand tiles, computed once
    per quiver.Orbit."""
    return shared(r, "cgpd_infinity", _fewest_straight)


def _fewest_straight(r: RankArray) -> list[CGPD]:
    diagrams = orbit_cgpd(r)
    best = min(len(crossing_tiles(d)) for d in diagrams)
    return [d for d in diagrams if len(crossing_tiles(d)) == best]


def quiver_poly_cgpd(r: RankArray) -> Poly:
    """Quiver polynomial as the h -> infinity limit of the CSM formula:
    only minimal diagrams survive, weighted by their straight tiles."""

    def straight_weight(delta: CGPD) -> Poly:
        term = Poly.one()
        for i, j, k in crossing_tiles(delta):
            term = term * Poly.var_diff(xvar(i, j), xvar(i + 1, k))
        return term

    return Poly.sum(straight_weight(delta) for delta in cgpd_infinity(r))
