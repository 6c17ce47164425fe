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
equal color may never cross.  Every tile keeps the strands arriving
from the east and the north (east goes west, north goes south: . - | +)
or swaps them (north goes west, east goes south: r j b).

The formulas list no diagram: the routing states of an orbit form one
levelled DAG (orbit_states), which states.state_sum sums and whose
paths enumeration spells.  The routing lays one cell at a time by one
keep-or-swap step per state, and a state owes only the laces of the
rectangle it is in.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import islice

from .poly import Poly, xvar
from .quiver import Dims, RankArray, lace_array, per_orbit
from .states import States, state_sum

# The tiles that take exactly the strands arriving from (east, north), in
# trying order, each with the arriving strand ("E" or "N") it sends west
# and the one it sends south: the first keeps them, the second swaps them.
_TILES = {
    (False, False): ((".", None, None),),
    (True, False): (("-", "E", None), ("r", None, "E")),
    (False, True): (("|", None, "N"), ("j", "N", None)),
    (True, True): (("+", "E", "N"), ("b", "N", "E")),
}

# each known tile code's (east, north) key in _TILES
_SIDES = {code: sides for sides, tiles in _TILES.items() for code, _, _ in tiles}

# each (east, north) key's codes of the tile that keeps the arriving
# strands (the first in _TILES: east goes west, north goes south) and of
# the one that swaps them (the second: north goes west, east goes south),
# None for the blank, which has no strand to swap
_KEEP_SWAP = {sides: (tiles[0][0], tiles[1][0] if tiles[1:] else None)
              for sides, tiles in _TILES.items()}


class InvalidCGPD(ValueError):
    pass


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


_END = ()  # the state after the last cell of a completed diagram

_STRAIGHT = {code: int(code in "+-|") for code in "+-|rjb.B"}  # straight strands: + - |


def _states(dims: Dims, want: dict[tuple[int, int], int]) -> tuple[States, tuple[list[int], ...]]:
    """The routing states of the diagrams realizing the laces want (lace
    counts by interval), and the fewest straight tiles from each to the
    end: one forward pass, then one backward pass.

    Cells are laid in _cells order, so the strands arriving at a cell
    from the east and the north are known when it is reached.  The state
    before a cell of rectangle i holds the colors of the strands that
    cross the laying frontier, and the laces still owed:
      - east: the strand arriving from the east (None for none; at a
        row's first cell, None for a pipe that starts there);
      - cols: per column, the strand leaving the cell above (or this
        row's cell, once laid) southward;
      - feed: the pipes that leave rectangle i - 1 southward into the
        later rows of i (None where a pipe starts);
      - owed: the counts of the laces (i, c), c = i..n, still to start,
        which enter loads from want; a later rectangle's laces are the
        same in every state, so no state carries them.

    A starting pipe takes each color c of a lace (i, c) still owed, in
    ascending order.  Then each tile either keeps the arriving strands,
    east going west and north going south (. - | +), or swaps them,
    north going west and east going south (r j b); the keep is tried
    first, as _TILES lists it (_KEEP_SWAP), and leaves cols as they are.
    No edge leaves where a pipe of color c leaves rectangle i westward
    with c != i or southward out of its last row with c == i, so every
    pipe ends in the rectangle of its color, nor where two pipes of one
    color cross (east == north); their bump is labelled B.

    A path realizes want, whose row sums are the dims: r_i is the sum
    of want[p, q] over p <= i <= q.  If every lace of the rectangles
    before i has started, the pipes of the laces (p, q), p < i <= q,
    pass south into rectangle i, since a pipe leaves only the rectangle
    of its color westward, and feed that many of its rows; the other
    rows are as many as the laces (i, c), and each starts one.  So no
    state closes a rectangle still owing a lace, and the rows of the
    untiled rectangle n that no pipe feeds are its laces (n, n).  Its
    colors are the rectangles its pipes end in, which its tiles fix, so
    each path is one diagram.

    The backward pass keeps the live states, which a path to the end
    passes through, with their edges into live states in order, counts
    the paths from each (total: from the start), and lists by number the
    fewest straight tiles F(s) of each, the least _STRAIGHT[c] + F(t).
    """
    n, r = dims.n, dims.r
    owing = [tuple(want[i, c] for c in range(i, n + 1)) for i in range(n)]

    def enter(i: int, feed: tuple):
        """The state at the first cell of rectangle i, whose rows feed's
        pipes enter; the end at rectangle n."""
        return _END if i == n else (feed[0], (None,) * r[i + 1], feed[1:], owing[i])

    level = {enter(0, (None,) * r[0]): 0}  # state -> its number
    children, codes = [], _KEEP_SWAP
    for i, j, k in _cells(dims):
        first, west_edge, last = k == r[i + 1], k == 1, j == r[i]
        kids, reached = [], {}  # each state's edges, by number; state -> its number
        add = reached.setdefault
        for s in level:
            east, cols, feed, owed = s
            north = cols[k - 1]
            has_north = north is not None
            edges = []
            kids.append(edges)
            if first and east is None:
                starts = [(c, owed[: c - i] + (owed[c - i] - 1,) + owed[c - i + 1:])
                          for c in range(i, n + 1) if owed[c - i]]
            else:
                starts = ((east, owed),)
            for east, owed in starts:
                keep, swap = codes[east is not None, has_north]
                if (east is None or east != north) and not (
                    west_edge and east is not None and east != i or last and north == i
                ):
                    if not west_edge:
                        t = east, cols, feed, owed
                    elif not last:
                        t = feed[0], cols, feed[1:], owed
                    else:
                        t = enter(i + 1, cols)
                    edges.append((keep, add(t, len(reached))))
                if swap and not (west_edge and has_north and north != i or last and east == i):
                    below = cols[: k - 1] + (east,) + cols[k:]
                    if not west_edge:
                        t = north, below, feed, owed
                    elif not last:
                        t = feed[0], below, feed[1:], owed
                    else:
                        t = enter(i + 1, below)
                    edges.append(("B" if east == north else swap, add(t, len(reached))))
        children.append(kids)
        level = reached
    straight = _STRAIGHT
    paths, fewest = [1] * len(level), [0] * len(level)  # by state number, 0 paths when dead
    levels, least = [dict.fromkeys(range(len(level)), ())], [fewest]
    for kids in reversed(children):
        after, under = paths, fewest
        paths, fewest, live = [], [], {}
        for s, edges in enumerate(kids):
            if len(edges) == 1:  # most states: the one edge, its list kept
                c, t = edges[0]
                if p := after[t]:
                    live[s] = edges
                paths.append(p)
                fewest.append(straight[c] + under[t] if p else 0)
                continue
            p, f, kept = 0, len(children), []
            for e in edges:
                if m := after[e[1]]:
                    p += m
                    g = straight[e[0]] + under[e[1]]
                    if g < f:
                        f = g
                    kept.append(e)
            if p:
                live[s] = kept
            paths.append(p)
            fewest.append(f if p else 0)
        levels.append(live)
        least.append(fewest)
    return States(tuple(reversed(levels)), sum(paths)), tuple(reversed(least))


@per_orbit
def orbit_routing(r: RankArray) -> tuple[States, tuple[list[int], ...]]:
    """The routing states of the diagrams realizing the laces of r and
    their fewest straight tiles (_states), built once per quiver.Orbit."""
    return _states(r.dims, lace_array(r).entries)


def orbit_states(r: RankArray) -> States:
    """The routing states of the diagrams realizing the laces of r."""
    return orbit_routing(r)[0]


@per_orbit
def minimal_states(r: RankArray) -> States:
    """The paths of orbit_states with the fewest straight tiles (+ - |):
    one pass from the root keeps the edges (c, t) of each state s where
    _STRAIGHT[c] + F(t) = F(s) (orbit_routing), counting paths into each
    state.  Built once per quiver.Orbit."""
    states, fewest = orbit_routing(r)
    kept, paths = [], dict.fromkeys(states.levels[0], 1)
    for level, here, below in zip(states.levels, fewest, fewest[1:]):
        reach, kids = {}, {}
        for s, count in paths.items():
            edges = level[s]  # a state's one edge attains its fewest
            if len(edges) > 1:
                edges = [e for e in edges if _STRAIGHT[e[0]] + below[e[1]] == here[s]]
            kids[s] = edges
            for _, t in edges:
                reach[t] = reach.get(t, 0) + count
        kept.append(kids)
        paths = reach
    kept.append(dict.fromkeys(paths, ()))
    return States(tuple(kept), sum(paths.values()))


def _spell(dims: Dims, words) -> list[CGPD]:
    """The diagrams that tile words spell, in tile-code order: each
    word's codes in laying order (_cells), every row reversed to run west
    to east, and B read as b."""

    def grids(codes):
        return tuple(tuple(tuple(islice(codes, dims.r[i + 1]))[::-1] for _ in range(dims.r[i]))
                     for i in range(dims.n))

    return sorted((CGPD(dims, grids(iter(word.replace("B", "b")))) for word in words),
                  key=lambda delta: delta.grids)


def enumerate_cgpd(r: RankArray) -> list[CGPD]:
    """All valid diagrams realizing the laces of r, in tile-code order."""
    return _spell(r.dims, map("".join, orbit_states(r).paths()))


@lru_cache(maxsize=None)
def _tile_weights(dims: Dims, hbar: bool) -> tuple[dict[str, Poly], ...]:
    """The weight of each tile code at each laying-order position.
    Without hbar (the h -> infinity limit) straight strands (+ - |) weigh
    the cell label x^i_j - x^{i+1}_k and every other tile 1.

    With hbar, the CSM weights divided by h (states.state_sum): turns and
    two-color bumps weigh h / h = 1, straight strands the label over h,
    blanks and one-color bumps (B) the label over h plus 1, the constant
    first, so the kernel starts a blank node's sum as a copy of its
    child's (Poly.sum_of_products); and the last cell's weights are
    multiplied by h^N, N the number of cells.  So the product of one
    weight per cell is still the diagram's CSM weight, and every node's
    sum of the walk is a polynomial of degree N."""
    one = Poly.one()
    out = []
    for i, j, k in _cells(dims):
        label = Poly.var_diff(xvar(i, j), xvar(i + 1, k))
        turn = blank = one
        if hbar:
            label = label.times_hbar(-1)
            blank = Poly({0: 1, **label.terms}, 0)  # every key of label holds an x
        out.append((label, turn, blank))
    if hbar and out:
        out[-1] = tuple(w.times_hbar(len(out)) for w in out[-1])
    return tuple(dict(zip("+-|rjb.B", [label] * 3 + [turn] * 3 + [blank] * 2))
                 for label, turn, blank in out)


def csm_cgpd(r: RankArray) -> Poly:
    """CSM class of the open locus: the weights of all valid diagrams,
    walked divided by h (_tile_weights), so a turn weighs 1 and every
    node's sum is a polynomial of degree N, the number of cells."""
    return state_sum(orbit_states(r).levels, _tile_weights(r.dims, True))


def quiver_poly_cgpd(r: RankArray) -> Poly:
    """Quiver polynomial as the h -> infinity limit of the CSM formula:
    only minimal diagrams survive, weighted by their straight tiles."""
    return state_sum(minimal_states(r).levels, _tile_weights(r.dims, False))
