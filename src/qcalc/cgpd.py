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
from itertools import islice

from .localization import state_sum
from .poly import Poly, xvar
from .quiver import Dims, RankArray, lace_array, shared

# The tiles that take exactly the strands arriving from (east, north), in
# trying order, each with the arriving strand ("E" or "N") it sends west
# and the one it sends south.
_TILES = {
    (False, False): ((".", None, None),),
    (True, False): (("-", "E", None), ("r", None, "E")),
    (False, True): (("|", None, "N"), ("j", "N", None)),
    (True, True): (("+", "E", "N"), ("b", "N", "E")),
}

# each known tile code's (east, north) key in _TILES
_SIDES = {code: sides for sides, tiles in _TILES.items() for code, _, _ in tiles}


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
class CGPD:
    """Tile grids only; each pipe and its color are always re-derived."""

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
                    if code not in _SIDES:
                        raise InvalidCGPD(f"unknown tile code {code!r}")

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


@lru_cache(maxsize=None)
def _cells(dims: Dims) -> tuple[tuple[int, int, int], ...]:
    """The cells (rect, row, col) in laying order: rectangles in turn,
    each top to bottom and east to west."""
    return tuple((i, j, k) for i in range(dims.n) for j in range(1, dims.r[i] + 1)
                 for k in range(dims.r[i + 1], 0, -1))


def _route(
    dims: Dims, want: dict[tuple[int, int], int] | None = None, held: CGPD | None = None
):
    """Lay tiles and route colored pipes in one depth-first pass.

    Rectangles are tiled in order, each top to bottom and east to west,
    so the pipes arriving at a cell from the east and the north are
    known when it is reached; only the tiles that _TILES lists for those
    strands are tried, in its order, each sending them on west and south
    as its entry says.  A row of rectangle i not fed from above starts a
    pipe, whose color c >= i is chosen there: with want (lace counts by
    interval) from the laces (i, c) still owed, without it freely.  A
    branch stops when a pipe of color c leaves rectangle i westward with
    c != i, or southward out of its last row with c == i, so every pipe
    ends in the rectangle of its color (rectangle n, untiled, takes only
    color n).  With want a crossing of two pipes of one color stops the
    branch where it is laid.
    With held every cell is held to that diagram's tile; a tile that does
    not take the arriving strands raises EdgeMismatch if its (east, north)
    key in _SIDES wants another east strand, else NorthLeak in a top row,
    else EdgeMismatch at the cell above.

    A completed diagram realizes want exactly: used counts the pipes by
    (start, end), and each row of rectangle i carries one pipe, which
    enters i only there, so sum over p <= i <= q of used[p, q] is r_i, as
    for want (the row sums of a lace array).  Summing over i gives
    sum (q - p + 1) used[p, q] = sum (q - p + 1) want[p, q], and
    used <= want entrywise forces used == want.

    With held, the tiles fix the paths, so branches differ only in the
    color of each pipe, and exactly one completes: the rectangle a pipe
    ends in, as its color, hits no exit (held mode lets crossings pass);
    any other c leaves rectangle c southward or the end westward.  Faults
    do not depend on color; the branch coloring each pipe not yet ended n
    reaches the first in laying order, which is the one raised.

    Yields (pipes, word) per routed diagram: pipes is a live list of
    (start, color) per pipe that the next step overwrites, and word spells
    the codes in laying order (_cells), a meeting of two pipes of one
    color written B (a bump) or X (a crossing).
    """
    n, r = dims.n, dims.r
    # south[i][j][k]: the pipe leaving cell (j, k) of rectangle i southward;
    # row 0 is the closed north edge
    south = [[[None] * (r[i + 1] + 1) for _ in range(r[i] + 1)] for i in range(n)]
    pipes: list[tuple[int, int]] = []
    used = dict.fromkeys(dims.pairs(), 0)
    word: list[str] = []

    def row(i: int, j: int):
        """Row j of rectangle i, whose pipe enters from the east; past the
        last row, rectangle i closes.  Rectangle n has rows but no tiles."""
        if j > r[i]:
            if i < n:
                yield from row(i + 1, 1)
            else:
                yield pipes, "".join(word)
            return
        pipe = south[i - 1][-1][j] if i else None
        if pipe is not None:
            yield from enter(i, j, pipe)
            return
        for lace in [(i, c) for c in range(i, n + 1) if want is None or used[i, c] < want[i, c]]:
            used[lace] += 1
            pipes.append(lace)
            yield from enter(i, j, len(pipes) - 1)
            pipes.pop()
            used[lace] -= 1

    def enter(i: int, j: int, pipe: int):
        return lay(i, j, r[i + 1], pipe) if i < n else row(n, j + 1)

    def lay(i: int, j: int, k: int, east: int | None):
        north = south[i][j - 1][k]
        tiles = _TILES[east is not None, north is not None]
        if held is not None:
            code = held.grids[i][j - 1][k - 1]
            tiles = [tile for tile in tiles if tile[0] == code]
            if not tiles:
                if _SIDES[code][0] != (east is not None):
                    raise EdgeMismatch(i, j, k, "east neighbor disagrees" if k < r[i + 1]
                                       else "east edge of the row is unused")
                if j == 1:
                    raise NorthLeak(
                        f"rectangle {i}, cell ({j},{k}) expects a strand from the north edge"
                    )
                raise EdgeMismatch(i, j - 1, k, "south neighbor disagrees")
        strand = {"E": east, "N": north, None: None}
        for code, to_west, to_south in tiles:
            west, down = strand[to_west], strand[to_south]
            one = west is not None and down is not None and pipes[west][1] == pipes[down][1]
            if (
                one and code == "+" and want is not None
                or k == 1 and west is not None and pipes[west][1] != i
                or j == r[i] and down is not None and pipes[down][1] == i
            ):
                continue
            south[i][j][k] = down
            word.append(("X" if code == "+" else "B") if one else code)
            yield from lay(i, j, k - 1, west) if k > 1 else row(i, j + 1)
            word.pop()

    yield from row(0, 1)


def _routed(delta: CGPD):
    """Route a given diagram: its pipes and its tile word.  Raises on the
    first fault, in laying order (east to west)."""
    pipes, word = next(_route(delta.dims, held=delta))
    if "X" in word:
        raise SameColorCross(*_cells(delta.dims)[word.index("X")])
    return pipes, word


def validate(delta: CGPD, r: RankArray) -> list[tuple[int, int]]:
    """Trace the pipes and check every invariant against the rank array;
    returns the lace intervals (start, end) of the pipes, sorted."""
    if delta.dims != r.dims:
        raise InvalidCGPD("dims of the diagram and rank array differ")
    intervals = sorted(_routed(delta)[0])
    expected = sorted(lace_array(r).laces())
    if intervals != expected:
        raise LaceCountMismatch(
            f"pipes realize laces {intervals}, rank array needs {expected}"
        )
    return intervals


def orbit_words(r: RankArray) -> list[str]:
    """The tile words of the valid diagrams realizing the laces of r, in
    routing order: one routing pass, made once per quiver.Orbit."""
    return shared(r, "cgpd", lambda r: [
        word for _, word in _route(r.dims, want=lace_array(r).entries)
    ])


def minimal_words(r: RankArray) -> list[str]:
    """The words of orbit_words with the fewest straight-strand tiles."""
    words = orbit_words(r)
    straight = [sum(map(word.count, "+-|")) for word in words]
    best = min(straight)
    return [word for word, count in zip(words, straight) if count == best]


def _spell(dims: Dims, words: list[str]) -> list[CGPD]:
    """The diagrams that routed words spell, in tile-code order: each
    word's codes in laying order (_cells), every row reversed to run west
    to east, and B read as b (a want-mode word holds no X)."""

    def grids(codes):
        return tuple(tuple(tuple(islice(codes, dims.r[i + 1]))[::-1] for _ in range(dims.r[i]))
                     for i in range(dims.n))

    return sorted((CGPD(dims, grids(iter(word.replace("B", "b")))) for word in words),
                  key=lambda delta: delta.grids)


def enumerate_cgpd(r: RankArray) -> list[CGPD]:
    """All valid diagrams realizing the laces of r, in tile-code order."""
    return _spell(r.dims, orbit_words(r))


@lru_cache(maxsize=None)
def _tile_weights(dims: Dims, hbar: bool) -> tuple[dict[str, Poly], ...]:
    """The weight of each tile code at each laying-order position.
    Straight strands (+ - |) weigh the cell label x^i_j - x^{i+1}_k.
    With hbar (the CSM weights) turns and two-color bumps weigh h, blanks
    and one-color bumps (B) the label plus h; without it (the h ->
    infinity limit) every other tile weighs 1."""
    out = []
    for i, j, k in _cells(dims):
        label = Poly.var_diff(xvar(i, j), xvar(i + 1, k))
        turn, blank = (Poly.hbar(), label + Poly.hbar()) if hbar else (Poly.one(),) * 2
        out.append(dict(zip("+-|rjb.B", [label] * 3 + [turn] * 3 + [blank] * 2)))
    return tuple(out)


def _trie(dims: Dims, words: list[str]) -> list[dict]:
    """The tile words of dims as a trie in state_sum's level format, built
    in one pass over the words: levels[p] maps each prefix of length p,
    numbered, to its edges (c, child), one per code c that follows it in
    some word, in the order the words first use them.  The words end at
    the last level's nodes, which have no edges, so state_sum over the
    trie with _tile_weights sums the product of weights[p][w[p]] over
    the words w, each shared prefix's weights multiplying the sum of its
    completions once."""
    depth = len(_cells(dims))
    levels: list[dict] = [{} for _ in range(depth + 1)]
    child: dict = {}  # (prefix, code) -> prefix
    for word in words:
        node = 0
        for p, c in enumerate(word):
            nxt = child.get((node, c))
            if nxt is None:
                nxt = child[node, c] = len(child) + 1
                levels[p].setdefault(node, []).append((c, nxt))
            node = nxt
        levels[depth][node] = ()
    return levels


def cgpd_weight(delta: CGPD) -> Poly:
    """The weight of one given diagram, each pipe colored by its routing."""
    return state_sum(_trie(delta.dims, [_routed(delta)[1]]), _tile_weights(delta.dims, True))


def csm_cgpd(r: RankArray) -> Poly:
    """CSM class of the open locus: the weights of all valid diagrams."""
    return state_sum(_trie(r.dims, orbit_words(r)), _tile_weights(r.dims, True))


def cgpd_infinity(r: RankArray) -> list[CGPD]:
    """The diagrams with the fewest straight-strand tiles, in tile-code order."""
    return _spell(r.dims, minimal_words(r))


def quiver_poly_cgpd(r: RankArray) -> Poly:
    """Quiver polynomial as the h -> infinity limit of the CSM formula:
    only minimal diagrams survive, weighted by their straight tiles."""
    return state_sum(_trie(r.dims, minimal_words(r)), _tile_weights(r.dims, False))
