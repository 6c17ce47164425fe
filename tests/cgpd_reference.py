"""The reference router the tests check the cgpd routing states against.

It lays tiles and routes colored pipes depth first, one diagram at a
time, and shares no code with cgpd._states, cgpd.minimal_states or
states.state_sum; only the tile table (_TILES), the laying order
(_cells) and the tile weights come from the package.  In held mode it
validates a given diagram, naming its first fault.

cgpd_infinity is no part of the router: it spells the package's minimal
states (cgpd.minimal_states) as diagrams, which only tests list.
two_pass_minimal_states is the builder of those states that the package
had before the routing's backward pass counted the fewest straight tiles
itself: a min-plus pass from the end, then a pass from the root.
"""

import math

from qcalc.cgpd import (
    _SIDES,
    _TILES,
    CGPD,
    InvalidCGPD,
    _cells,
    _spell,
    _tile_weights,
    minimal_states,
    orbit_states,
)
from qcalc.poly import Poly
from qcalc.quiver import Dims, RankArray, lace_array
from qcalc.states import States


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


def router_words(r: RankArray) -> list[str]:
    """The tile words of the valid diagrams realizing the laces of r, in
    routing order."""
    return [word for _, word in _route(r.dims, want=lace_array(r).entries)]


def minimal_words(words: list[str]) -> list[str]:
    """The words with the fewest straight-strand tiles, in their order."""
    straight = [sum(map(word.count, "+-|")) for word in words]
    best = min(straight)
    return [word for word, count in zip(words, straight) if count == best]


def cgpd_weight(delta: CGPD) -> Poly:
    """The weight of one given diagram, each pipe colored by its routing:
    the product of its tiles' CSM weights.  The table is divided by h
    with h^N in the last cell's weights, N the number of cells, so one
    weight per cell multiplies out to the same product."""
    weights = _tile_weights(delta.dims, True)
    return math.prod((weights[p][c] for p, c in enumerate(_routed(delta)[1])), start=Poly.one())


def cgpd_infinity(r: RankArray) -> list[CGPD]:
    """The diagrams with the fewest straight-strand tiles, in tile-code order."""
    return _spell(r.dims, map("".join, minimal_states(r).paths()))


def two_pass_minimal_states(r: RankArray) -> States:
    """The paths of cgpd.orbit_states with the fewest straight-strand
    tiles (+ - |).  A min-plus pass from the end gives the fewest each
    state's completions have; a pass from the root keeps the edges that
    attain it and counts the paths into each state it reaches."""
    levels = orbit_states(r).levels
    fewest = [dict.fromkeys(levels[-1], 0)]
    for level in reversed(levels[:-1]):
        below = fewest[-1]
        fewest.append({s: min([(c in "+-|") + below[t] for c, t in edges])
                       for s, edges in level.items()})
    fewest.reverse()
    kept, paths = [], dict.fromkeys(levels[0], 1)
    for p, level in enumerate(levels[:-1]):
        here, below, reach, kids = fewest[p], fewest[p + 1], {}, {}
        for s, count in paths.items():
            kids[s] = edges = [(c, t) for c, t in level[s]
                               if (c in "+-|") + below[t] == here[s]]
            for _, t in edges:
                reach[t] = reach.get(t, 0) + count
        kept.append(kids)
        paths = reach
    kept.append(dict.fromkeys(paths, ()))
    return States(tuple(kept), sum(paths.values()))
