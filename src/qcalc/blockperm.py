"""Permutations of {1..d} with the block structure of a dimension vector.

Rows of the d x d grid are grouped into blocks of sizes r_0..r_n top to
bottom.  Column blocks are labeled right to left: the rightmost block
has index 0 and size r_0, so block column j has size r_j.  Composition
is fixed once and for all as (v o w)(k) = v(w(k)); a word of simple
transpositions (t_1, ..., t_L) composes first-applied-first, i.e. its
value is s_{t_L} o ... o s_{t_1}.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import factorial, prod

from .quiver import Dims, RankArray, hom_rank_array, lace_array, shared

Permutation = tuple  # one-line notation, values 1..d


class SizeMismatch(Exception):
    pass


def identity(d: int) -> Permutation:
    return tuple(range(1, d + 1))


def compose(v: Permutation, w: Permutation) -> Permutation:
    """(v o w)(k) = v(w(k))."""
    if len(v) != len(w):
        raise SizeMismatch(f"{len(v)} vs {len(w)}")
    return tuple(v[wk - 1] for wk in w)


def inverse(v: Permutation) -> Permutation:
    out = [0] * len(v)
    for k, vk in enumerate(v, start=1):
        out[vk - 1] = k
    return tuple(out)


def length(v: Permutation) -> int:
    """Number of inversions."""
    return sum(
        1
        for a in range(len(v))
        for b in range(a + 1, len(v))
        if v[a] > v[b]
    )


def left_mul_s(t: int, v: Permutation) -> Permutation:
    """s_t o v: swap the values t and t+1 in the one-line notation."""
    return tuple(
        t + 1 if x == t else t if x == t + 1 else x for x in v
    )


def simple(t: int, d: int) -> Permutation:
    v = list(range(1, d + 1))
    v[t - 1], v[t] = v[t], v[t - 1]
    return tuple(v)


def w0(d: int) -> Permutation:
    return tuple(range(d, 0, -1))


def block_w0(dims: Dims) -> Permutation:
    """Antidiagonal permutation in each diagonal block of sizes r_0..r_n."""
    out = []
    offset = 0
    for size in dims.r:
        out.extend(range(offset + size, offset, -1))
        offset += size
    return tuple(out)


def composite(word: tuple[int, ...], d: int) -> Permutation:
    """Value of a word, first-applied-first."""
    v = identity(d)
    for t in word:
        v = left_mul_s(t, v)
    return v


def is_reduced_word(word: tuple[int, ...], d: int) -> bool:
    v = identity(d)
    for t in word:
        sv = left_mul_s(t, v)
        if length(sv) <= length(v):
            return False
        v = sv
    return True


def all_reduced_words(v: Permutation) -> list[tuple[int, ...]]:
    """Every reduced word for v, in lexicographic order.

    Words are built back to front: the last letter of a reduced word for
    v is any descent t of v (a position with v values t+1 before t).
    """
    if v == identity(len(v)):
        return [()]
    out = []
    for t in range(1, len(v)):
        sv = left_mul_s(t, v)
        if length(sv) < length(v):
            out.extend(word + (t,) for word in all_reduced_words(sv))
    return sorted(out)


def rothe_diagram(v: Permutation) -> set[tuple[int, int]]:
    """Cells (q, p) with v(q) > p and v^{-1}(p) > q."""
    vinv = inverse(v)
    d = len(v)
    return {
        (q, p)
        for q in range(1, d + 1)
        for p in range(1, d + 1)
        if v[q - 1] > p and vinv[p - 1] > q
    }


@dataclass(frozen=True)
class BlockStructure:
    """Row/column block bookkeeping and the cell label alphabets."""

    dims: Dims

    @cached_property
    def _row_blocks(self) -> tuple[tuple[int, int], ...]:
        # (block index, offset within block) for each row 1..d
        out = []
        for i, size in enumerate(self.dims.r):
            out.extend((i, a) for a in range(1, size + 1))
        return tuple(out)

    @cached_property
    def _col_blocks(self) -> tuple[tuple[int, int], ...]:
        out = []
        for j in range(self.dims.n, -1, -1):
            out.extend((j, b) for b in range(1, self.dims.r[j] + 1))
        return tuple(out)

    def row_block(self, q: int) -> int:
        return self._row_blocks[q - 1][0]

    def col_block(self, p: int) -> int:
        return self._col_blocks[p - 1][0]

    def row_var(self, q: int) -> tuple:
        """The alphabet variable labeling row q."""
        i, a = self._row_blocks[q - 1]
        return ("x", i, a)

    def col_var(self, p: int) -> tuple:
        """The alphabet variable labeling column p (block cols right to left)."""
        j, b = self._col_blocks[p - 1]
        return ("x", j, b)


@dataclass(frozen=True)
class Regions:
    strict_cells: frozenset
    dhom_cells: frozenset

    @property
    def L(self) -> int:
        return len(self.strict_cells)


@lru_cache(maxsize=None)
def regions(dims: Dims) -> Regions:
    """Cells strictly above the block antidiagonal and superantidiagonal."""
    bs = BlockStructure(dims)
    row_blocks = bs._row_blocks
    col_blocks = bs._col_blocks
    strict, dhom = set(), set()
    for q in range(1, dims.d + 1):
        for p in range(1, dims.d + 1):
            i = row_blocks[q - 1][0]
            j = col_blocks[p - 1][0]
            if j >= i + 1:
                strict.add((q, p))
            if j >= i + 2:
                dhom.add((q, p))
    return Regions(frozenset(strict), frozenset(dhom))


def block_counts(r: RankArray) -> dict[tuple[int, int], int]:
    """1-counts m(i, j) of the Zelevinsky permutation's blocks.

    Lace counts s_ji sit on and below the block diagonal, the
    superantidiagonal block carries r_{i,i+1}, and everything above it
    is empty.
    """
    s, blocks = lace_array(r), range(r.dims.n + 1)
    return {
        (i, j): s[j, i] if j <= i else r[i, i + 1] if j == i + 1 else 0
        for i in blocks
        for j in blocks
    }


def _block_perms(r: RankArray, first: bool) -> list[Permutation]:
    """The permutations with the block 1-counts of r, in lexicographic
    order; only the first one if first.

    Rows are filled top to bottom, each with any free column whose block
    still owes the row's block a one.  A block owed a one always has a
    free column, so the search never dead-ends.
    """
    dims = r.dims
    owed = dict(orbit_block_counts(r))  # rec decrements it, and a first find skips the restore
    bs = BlockStructure(dims)
    cols = [(p, bs.col_block(p)) for p in range(1, dims.d + 1)]
    out, v, used = [], [], set()

    def rec(q: int) -> bool:
        if q > dims.d:
            out.append(tuple(v))
            return first
        i = bs.row_block(q)
        for p, j in cols:
            if owed[(i, j)] and p not in used:
                owed[(i, j)] -= 1
                used.add(p)
                v.append(p)
                if rec(q + 1):
                    return True
                owed[(i, j)] += 1
                used.discard(p)
                v.pop()
        return False

    rec(1)
    return out


def zelevinsky_permutation(r: RankArray) -> Permutation:
    """The minimal-length permutation with the block counts of r.

    It is the lexicographically first one: within each block row, read
    top to bottom, the ones go to column blocks left to right, and
    within each column block the receiving columns are ordered by row
    index, so it has no inversion inside a block row or block column.
    """
    return _block_perms(r, first=True)[0]


def perm_set(r: RankArray) -> list[Permutation]:
    """All permutations whose block 1-counts equal those of z(r), sorted."""
    return _block_perms(r, first=False)


def perm_count(r: RankArray) -> int:
    """|perm(r)|, without listing it.  Row block i spreads its r_i rows
    over the column blocks in r_i! / prod_j m(i, j)! ways, column block
    j its r_j columns over the row blocks in r_j! / prod_i m(i, j)!
    ways, and block (i, j) matches its m(i, j) rows to its columns in
    m(i, j)! ways: (prod_i r_i!)^2 / prod_(i, j) m(i, j)! in all."""
    m = orbit_block_counts(r).values()
    return prod(map(factorial, r.dims.r)) ** 2 // prod(map(factorial, m))


def orbit_block_counts(r: RankArray) -> dict[tuple[int, int], int]:
    """block_counts(r), computed once per quiver.Orbit; do not mutate."""
    return shared(r, "blocks", block_counts)


def orbit_zperm(r: RankArray) -> Permutation:
    """z(r), computed once per quiver.Orbit."""
    return shared(r, "z", zelevinsky_permutation)


def counts_of(v: Permutation, dims: Dims) -> dict[tuple[int, int], int]:
    """Block 1-counts of an arbitrary permutation (filter-semantics oracle)."""
    bs = BlockStructure(dims)
    m: dict[tuple[int, int], int] = {}
    for q, p in enumerate(v, start=1):
        key = (bs.row_block(q), bs.col_block(p))
        m[key] = m.get(key, 0) + 1
    for i in range(dims.n + 1):
        for j in range(dims.n + 1):
            m.setdefault((i, j), 0)
    return m


def zelevinsky_hom(dims: Dims) -> Permutation:
    return zelevinsky_permutation(hom_rank_array(dims))


# -- subword sums over states (shared by pipe dreams and localization) ------

def _swap(s: tuple, t: int) -> tuple:
    """s_t acting on a label vector: swap the labels of values t and t+1."""
    return s[: t - 1] + (s[t], s[t - 1]) + s[t + 1 :]


@dataclass(frozen=True)
class SubwordStates:
    """The live states of subword_states or target_states, level by level.

    levels[k] maps each state s reachable at letter k from which some
    accepted completion exists to its edges (c, t), skip first: label c
    is 0 for skipping letter k and 1 for taking it, and t is the live
    state s reaches at k + 1.  The accepted states after the last letter
    have no edges.  total is the number of accepted subsets, and skipped
    has bit j set when some accepted subset skips position j; a position
    outside it is taken by every accepted subset.  A skipped letter
    weighs 1 in reduced mode and h otherwise.
    """

    levels: tuple[dict, ...]
    total: int
    skipped: int
    reduced: bool

    def subsets(self):
        """Each accepted subset J, the tuple of its taken positions, depth
        first, each letter skipped before it is taken.  A path from a start
        state to an accepted state is one accepted subset, and every live
        state has an accepted completion, so the walk enters no branch
        that accepts nothing."""
        levels = self.levels
        L = len(levels) - 1

        def rec(k: int, s: tuple, J: tuple):
            if k == L:
                yield J
                return
            for c, t in levels[k][s]:
                yield from rec(k + 1, t, J + (k,) if c else J)

        for s in levels[0]:
            yield from rec(0, s, ())


def _live(children: list, accepted: set, reduced: bool) -> SubwordStates:
    """The backward pass of both builders.  children[k] maps each state
    a forward pass kept at letter k to its (skip, take) children at
    k + 1, None for a pruned branch; accepted holds the accepted states
    after the last letter.  N(L, s) is 1 for an accepted s and N(k, s)
    is N(k+1, skip) + N(k+1, take); the states with N > 0 are kept with
    the edges to their live children.  N and the mask of positions some
    accepted completion skips are kept one level at a time, and only
    their values at the start become total and skipped."""
    level = dict.fromkeys(accepted, ())
    counts = dict.fromkeys(accepted, (1, 0))  # s -> (N, skip mask) below letter k
    levels = [level]  # from the last letter back
    for k in range(len(children) - 1, -1, -1):
        bit = 1 << k
        below = counts
        level, counts = {}, {}
        for s, (skip, take) in children[k].items():
            a, b = below.get(skip), below.get(take)
            if a and b:
                level[s] = ((0, skip), (1, take))
                counts[s] = (a[0] + b[0], a[1] | b[1] | bit)
            elif a:
                level[s] = ((0, skip),)
                counts[s] = (a[0], a[1] | bit)
            elif b:
                level[s] = ((1, take),)
                counts[s] = b
        levels.append(level)
    total = skipped = 0
    for n, mask in counts.values():
        total += n
        skipped |= mask
    return SubwordStates(tuple(reversed(levels)), total, skipped, reduced)


def subword_states(letters: tuple[int, ...], r: RankArray) -> SubwordStates:
    """The subsets of the word whose ordered product lies in perm(r),
    counted over states instead of listed.

    The state.  Write a permutation u as its label vector: the label of
    a value x is the row block of the position u^-1(x) that holds it.  A
    permutation v lies in perm(r) when its block 1-counts, the pairs
    (row block of q, column block of v(q)) over the positions q, equal
    block_counts(r).  Indexed by the value x = v(q), those pairs are
    (label of x, column block of x), so acceptance reads only the label
    vector.  Two permutations have the same label vector exactly when
    they differ by a permutation of positions within row blocks, that is
    when they lie in one left coset u W_rows of the row-block Young
    subgroup.  Taking letter t replaces u by s_t u, whose label vector
    is u's with the labels of t and t+1 swapped; s_t (u W_rows) is
    (s_t u) W_rows, so the step is well defined on cosets.  Hence a sum
    over the accepted subsets J of a product of per-position weights,
    h for a skipped position k and w_k for a taken one, is S(0, start)
    with S(k, s) = h S(k+1, s) + w_k S(k+1, s_{t_k} s), over at most
    d!/(r_0! ... r_n!) states per letter; start is the identity's label
    vector (the row block of each value).

    The flow bound.  Let b end a column block (the column blocks of b
    and b+1 differ).  An accepted label vector holds, among the values
    1..b, exactly need_b(i) = sum of m(i, j) over the column blocks j
    inside 1..b labels i.  Only letter b moves a label across b, and
    each copy exchanges one label for another, so the deficit
    sum_i max(0, need_b(i) - #{x <= b : label i}) falls by at most one
    per copy of letter b.  A state whose deficit at b exceeds the copies
    of letter b left cannot be accepted.  A step at letter k changes
    only the deficit at boundary t_k and only the copies of letter t_k
    left, so each child is tested at that one boundary.  The bound only
    prunes; acceptance is still tested after the last letter.

    The counts.  A forward pass lists the states that survive the bound,
    each with its two children; the backward pass (_live) computes over
    integers N(k, s), the number of accepted completions from (k, s),
    and keeps the states with N > 0 and their edges (SubwordStates).
    Its total, N(0, start), is the number of subsets whose ordered
    product lies in perm(r), one per path that SubwordStates.subsets
    walks.  The number of accepted subsets that skip a position of a set
    D is positive exactly when the skipped mask meets D; csm_pd reads it
    so for the D_Hom cells.
    """
    dims = r.dims
    bs = BlockStructure(dims)
    d = dims.d
    m = orbit_block_counts(r)
    col = [bs.col_block(x) for x in range(1, d + 1)]
    want = {}  # boundary b -> (label i, need_b(i)) for the labels needed
    for b in range(1, d):
        if col[b - 1] != col[b]:
            blocks = set(col[:b])
            want[b] = tuple(
                (i, need)
                for i in range(dims.n + 1)
                if (need := sum(m[(i, j)] for j in blocks))
            )
    segments = list(zip((0, *want), (*want, d)))
    accepted = [
        tuple(sorted(i for i in range(dims.n + 1) for _ in range(m[(i, col[a])])))
        for a, _ in segments
    ]

    live = {tuple(bs.row_block(x) for x in range(1, d + 1))}
    children = []
    for k, t in enumerate(letters):
        copies = letters[k + 1 :].count(t)
        # no deficit at b exceeds min(b, d - b), so many copies left need no test
        need = want.get(t) if copies < min(t, d - t) else None

        def fits(c: tuple) -> bool:
            if not need:
                return True
            left = c[:t]
            deficit = 0
            for i, owed in need:
                have = left.count(i)
                if have < owed:
                    deficit += owed - have
            return deficit <= copies

        kids = {}
        for s in live:
            skip = s if fits(s) else None
            if s[t - 1] == s[t]:
                take = skip
            else:
                take = _swap(s, t)
                take = take if fits(take) else None
            kids[s] = (skip, take)
        children.append(kids)
        live = {c for pair in kids.values() for c in pair if c is not None}

    final = {s for s in live if [tuple(sorted(s[a:b])) for a, b in segments] == accepted}
    return _live(children, final, reduced=False)


def target_states(letters: tuple[int, ...], v: Permutation, reduced: bool) -> SubwordStates:
    """The subsets of the word whose ordered product is v, only the
    reduced subwords for v in reduced mode, counted over states instead
    of listed.

    The state of a partial product u is u^-1, the position of each
    value: the label vector of subword_states with every position its
    own row block.  So taking letter t swaps the entries of t and t+1
    (_swap), and the backward pass, SubwordStates and subword_sum are
    shared.  The state v^-1 is accepted.

    The distance.  Each state carries d(u, v) = l(v u^-1).  The
    permutation v u^-1 sends u(a) to v(a), so its inversions are the
    position pairs a < b that u and v order differently (l counts
    inversions: Bjorner and Brenti, Combinatorics of Coxeter Groups,
    ch. 1).  Hence d(id, v) = l(v), d(u, v) = 0 exactly when u = v, and
    d(u, v) >= l(v) - l(u) since l(v) <= l(v u^-1) + l(u).  Taking t
    swaps the values t and t+1 of u, which sit at positions p and q.
    Every other value lies below both or above both, so only the pair
    {p, q} changes order, and d(u, v) moves by exactly one: down when
    s_t u, which has t+1 at p, agrees with v there, that is
    v(p) > v(q), and up otherwise.  Skipping a letter moves nothing.

    Rule 1.  A child whose distance exceeds the letters left is pruned.
    It could never come back in reach: the distance falls by at most
    one per letter, and the letters left fall by exactly one.  So after
    the last letter only distance 0 remains, and u = v.

    Rule 2, reduced mode.  If the letters still to be taken spell x with
    v = x u and l(x) letters, then l(v) = l(x) + l(u), so u lies below v
    in the left weak order (ch. 3) and d(u, v) = l(v) - l(u).  That
    holds at u = id.  A taken letter raises l(u) by one, so it must
    lower d(u, v), and a take is allowed only when the distance falls.
    Had it raised it, the gap d(u, v) - l(v) + l(u) would be 2, and each
    later reduced step changes it by 0 or 2, so it never closes.  A take
    that lowers length (p > q) would raise the distance, so every take
    allowed raises length, and each accepted J is a reduced word for v.
    """
    L = len(letters)
    lv = length(v)
    dist = {identity(len(v)): lv} if lv <= L else {}
    children = []
    for k, t in enumerate(letters):
        left = L - k - 1
        kids, nxt = {}, {}
        for s, e in dist.items():
            p, q = s[t - 1], s[t]
            skip = s if e <= left else None
            if v[p - 1] > v[q - 1]:
                f = e - 1
            elif not reduced and e < left:
                f = e + 1
            else:
                f = None
            take = None if f is None else _swap(s, t)
            kids[s] = (skip, take)
            if skip is not None:
                nxt[s] = e
            if take is not None:
                nxt[take] = f
        children.append(kids)
        dist = nxt
    return _live(children, {inverse(v)} & dist.keys(), reduced)
