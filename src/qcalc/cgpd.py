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
from functools import lru_cache
from itertools import product

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
    """One pipe: the lace interval it realizes plus its route.

    entries lists (rectangle, east entry row); cells lists every
    (rectangle, row, column) the pipe passes through, in travel order.
    """

    start: int
    end: int
    entries: tuple[tuple[int, int], ...]
    cells: tuple[tuple[int, int, int], ...]


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
        rects = obj["rects"]
        if not isinstance(rects, list) or not all(
            isinstance(grid, list)
            and all(isinstance(row, list) and all(isinstance(c, str) for c in row) for row in grid)
            for grid in rects
        ):
            raise InvalidCGPD('"rects" must be a list of grids, each a list of rows of tile strings')
        return cls(dims, tuple(tuple(tuple(row) for row in grid) for grid in rects))


def _check_edges(delta: CGPD):
    """Local consistency: strands meet across every interior edge, every
    east row edge is used, and nothing pokes out of the north side."""
    dims = delta.dims
    for i, grid in enumerate(delta.grids):
        rows, cols = dims.r[i], dims.r[i + 1]
        for j in range(1, rows + 1):
            for k in range(1, cols + 1):
                edges = _EDGES[delta.tile(i, j, k)]
                if k == cols and "E" not in edges:
                    raise EdgeMismatch(i, j, k, "east edge of the row is unused")
                if k < cols:
                    east = _EDGES[delta.tile(i, j, k + 1)]
                    if ("E" in edges) != ("W" in east):
                        raise EdgeMismatch(i, j, k, "east neighbor disagrees")
                if j == 1 and "N" in edges:
                    raise NorthLeak(
                        f"rectangle {i}, cell ({j},{k}) expects a strand from the north edge"
                    )
                if j < rows:
                    south = _EDGES[delta.tile(i, j + 1, k)]
                    if ("S" in edges) != ("N" in south):
                        raise EdgeMismatch(i, j, k, "south neighbor disagrees")


class _Pipe:
    __slots__ = ("start", "end", "entries", "cells", "modes")

    def __init__(self, start: int):
        self.start = start
        self.end = start
        self.entries: list[tuple[int, int]] = []
        self.cells: list[tuple[int, int, int]] = []
        self.modes: list[str] = []  # "EW", "ES", "NS", "NW" per cell


def _trace(delta: CGPD) -> list[_Pipe]:
    """Follow every pipe through the chain of rectangles."""
    _check_edges(delta)
    dims = delta.dims
    pipes: list[_Pipe] = []
    incoming: dict[int, _Pipe] = {}  # east entry row -> continuing pipe
    for i in range(dims.n):
        rows, cols = dims.r[i], dims.r[i + 1]
        outgoing: dict[int, _Pipe] = {}
        for j in range(1, rows + 1):
            pipe = incoming.get(j)
            if pipe is None:
                pipe = _Pipe(i)
                pipes.append(pipe)
            pipe.entries.append((i, j))
            row, col, came = j, cols, "E"
            while True:
                code = delta.tile(i, row, col)
                out = _STEP.get((code, came))
                if out is None:
                    raise EdgeMismatch(i, row, col, f"tile {code!r} has no {came} strand")
                pipe.cells.append((i, row, col))
                pipe.modes.append(came + out)
                if out == "W":
                    if col == 1:
                        pipe.end = i
                        break
                    col, came = col - 1, "E"
                else:
                    if row == rows:
                        outgoing[col] = pipe
                        pipe.end = i + 1
                        break
                    row, came = row + 1, "N"
        incoming = outgoing
    for row in range(1, dims.r[dims.n] + 1):
        pipe = incoming.get(row)
        if pipe is None:
            pipe = _Pipe(dims.n)
            pipes.append(pipe)
        pipe.entries.append((dims.n, row))
    return pipes


def _cell_colors(pipes: list[_Pipe]) -> dict[tuple[int, int, int], dict[str, int]]:
    """At each cell, the color (end rectangle) of the pipe on each arc."""
    out: dict[tuple[int, int, int], dict[str, int]] = {}
    for pipe in pipes:
        for cell, mode in zip(pipe.cells, pipe.modes):
            out.setdefault(cell, {})[mode] = pipe.end
    return out


def _check_crossings(delta: CGPD, pipes: list[_Pipe]):
    for cell, arcs in _cell_colors(pipes).items():
        i, j, k = cell
        if delta.tile(i, j, k) == "+" and arcs["EW"] == arcs["NS"]:
            raise SameColorCross(i, j, k)


def validate(delta: CGPD, r: RankArray) -> list[PipePath]:
    """Trace the pipes and check every invariant against the rank array."""
    if delta.dims != r.dims:
        raise InvalidCGPD("dims of the diagram and rank array differ")
    pipes = _trace(delta)
    _check_crossings(delta, pipes)
    intervals = sorted((p.start, p.end) for p in pipes)
    expected = sorted(lace_array(r).laces())
    if intervals != expected:
        raise LaceCountMismatch(
            f"pipes realize laces {intervals}, rank array needs {expected}"
        )
    return [
        PipePath(p.start, p.end, tuple(p.entries), tuple(p.cells))
        for p in sorted(pipes, key=lambda p: (p.start, p.end, p.entries))
    ]


@lru_cache(maxsize=None)
def _rect_tilings(rows: int, cols: int) -> tuple[tuple[tuple[str, ...], ...], ...]:
    """Every locally consistent tiling of one rectangle.

    Cells are filled top to bottom, east to west, so both inputs of a
    cell are known when it is reached: a strand always arrives from the
    east on every row, never from the north edge.
    """
    cells = [(j, k) for j in range(1, rows + 1) for k in range(cols, 0, -1)]
    out = []
    grid = [[""] * cols for _ in range(rows)]

    def rec(idx: int):
        if idx == len(cells):
            out.append(tuple(tuple(row) for row in grid))
            return
        j, k = cells[idx]
        east = True if k == cols else "W" in _EDGES[grid[j - 1][k]]
        north = False if j == 1 else "S" in _EDGES[grid[j - 2][k - 1]]
        if east and north:
            choices = "+b"
        elif east:
            choices = "-r"
        elif north:
            choices = "|j"
        else:
            choices = "."
        for code in choices:
            grid[j - 1][k - 1] = code
            rec(idx + 1)
        grid[j - 1][k - 1] = ""

    rec(0)
    return tuple(out)


def enumerate_cgpd(r: RankArray) -> list[CGPD]:
    """All valid diagrams realizing the laces of r, in tile-code order."""
    dims = r.dims
    expected = sorted(lace_array(r).laces())
    out = []
    per_rect = [_rect_tilings(dims.r[i], dims.r[i + 1]) for i in range(dims.n)]
    for grids in product(*per_rect):
        delta = CGPD(dims, grids)
        pipes = _trace(delta)
        if sorted((p.start, p.end) for p in pipes) != expected:
            continue
        try:
            _check_crossings(delta, pipes)
        except SameColorCross:
            continue
        out.append(delta)
    out.sort(key=lambda delta: delta.grids)
    return out


def cgpd_weight(delta: CGPD) -> Poly:
    """Product of the tile weights, with colors derived from the routing.

    Straight strands (crossing, horizontal, vertical) contribute the
    cell label x^i_j - x^{i+1}_k; turning tiles and two-color bumps
    contribute h; blanks and one-color bumps contribute the cell label
    plus h.
    """
    pipes = _trace(delta)
    _check_crossings(delta, pipes)
    colors = _cell_colors(pipes)
    total = Poly.one()
    for i, grid in enumerate(delta.grids):
        for j, row in enumerate(grid, start=1):
            for k, code in enumerate(row, start=1):
                label = Poly.var_diff(xvar(i, j), xvar(i + 1, k))
                arcs = colors.get((i, j, k))
                if code in "+-|":
                    total = total * label
                elif code in "rj" or (code == "b" and arcs["ES"] != arcs["NW"]):
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
