"""Permutations of {1..d} with the block structure of a dimension vector.

The row and column blocks of the d x d grid are those of quiver.Dims.rows
and quiver.Dims.cols (column blocks labelled right to left).  Composition
is fixed once and for all as (v o w)(k) = v(w(k)); a word of simple
transpositions (t_1, ..., t_L) composes first-applied-first, i.e. its
value is s_{t_L} o ... o s_{t_1}.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby, islice, zip_longest
from math import factorial, prod

from .quiver import Dims, RankArray, hom_rank_array, lace_array, shared
from .states import States, live

Permutation = tuple  # one-line notation, values 1..d


def identity(d: int) -> Permutation:
    return tuple(range(1, d + 1))


def length(v: Permutation) -> int:
    """Number of inversions."""
    return sum(
        1
        for a in range(len(v))
        for b in range(a + 1, len(v))
        if v[a] > v[b]
    )


def require_permutation(v, d: int) -> Permutation:
    """v as a tuple, or ValueError when it is not a permutation of 1..d."""
    v = tuple(v)
    if sorted(v) != list(range(1, d + 1)):
        raise ValueError(f"v = {v} is not a permutation of 1..d, d = {d}")
    return v


def left_mul_s(t: int, v: Permutation) -> Permutation:
    """s_t o v: swap the values t and t+1 in the one-line notation."""
    return tuple(
        t + 1 if x == t else t if x == t + 1 else x for x in v
    )


def composite(word: tuple[int, ...], d: int) -> Permutation:
    """Value of a word, first-applied-first."""
    v = identity(d)
    for t in word:
        v = left_mul_s(t, v)
    return v


@dataclass(frozen=True)
class Regions:
    strict_cells: frozenset
    dhom_cells: frozenset

    @property
    def L(self) -> int:
        return len(self.strict_cells)


@lru_cache(maxsize=None)
def regions(dims: Dims) -> Regions:
    """Cells strictly above the block antidiagonal and superantidiagonal.

    Row block i meets the column blocks j >= i + 1 (strict) and j >= i +
    2 (D_Hom), which are the leftmost r_n + ... + r_{i+1} and r_n + ... +
    r_{i+2} columns (Dims.cols), so each row lists its cells directly.
    """
    r = dims.r
    left = [sum(r[j:]) for j in range(len(r) + 2)]  # columns of the blocks j and after
    strict, dhom = [], []
    for q, (i, _) in enumerate(dims.rows, start=1):
        strict.extend((q, p) for p in range(1, left[i + 1] + 1))
        dhom.extend((q, p) for p in range(1, left[i + 2] + 1))
    return Regions(frozenset(strict), frozenset(dhom))


def block_counts(r: RankArray) -> dict[tuple[int, int], int]:
    """1-counts m(i, j) of the Zelevinsky permutation's blocks.

    Lace counts s_ji sit on and below the block diagonal, the
    superantidiagonal block carries r_{i,i+1}, and everything above it
    is empty.
    """
    s, ranks = shared(r, "laces", lace_array).entries, r.entries
    blocks = range(r.dims.n + 1)
    return {
        (i, j): s[j, i] if j <= i else ranks[i, j] if j == i + 1 else 0
        for i in blocks
        for j in blocks
    }


def _block_perms(r: RankArray):
    """The permutations with the block 1-counts of r, in lexicographic
    order, one at a time.

    Rows are filled top to bottom, each with any free column whose block
    still owes the row's block a one.  A block owed a one always has a
    free column, so the search never dead-ends, and the first
    permutation is the greedy fill.  A row reads the sorted free columns
    of each column block that owes it a one, left to right, copied as
    it reaches the block, so it never scans a taken column.  The search
    keeps one generator of choices per filled row, not a recursion, so
    d may be large.
    """
    dims = r.dims
    owed = dict(orbit_block_counts(r))  # the search decrements it
    row = [i for i, _ in dims.rows]
    col = [j for j, _ in dims.cols]
    free = {j: [p for p, c in enumerate(col, 1) if c == j] for j in dict.fromkeys(col)}
    v: list[int] = []

    def choices(i: int):
        return (p for j, columns in free.items() if owed[i, j] for p in columns.copy())

    stack = [choices(row[0])]  # Dims holds d >= 1
    while stack:
        q = len(stack)
        if len(v) == q:  # row q's last choice, undone before its next
            p = v.pop()
            insort(free[col[p - 1]], p)
            owed[row[q - 1], col[p - 1]] += 1
        p = next(stack[-1], None)
        if p is None:
            stack.pop()
            continue
        free[col[p - 1]].remove(p)
        v.append(p)
        owed[row[q - 1], col[p - 1]] -= 1
        if q == dims.d:
            yield tuple(v)
        else:
            stack.append(choices(row[q]))


def zelevinsky_permutation(r: RankArray) -> Permutation:
    """The minimal-length permutation with the block counts of r.

    Within each block row, read top to bottom, the ones go to column
    blocks left to right, and within each column block the receiving
    columns are ordered by row index, so it has no inversion inside a
    block row or block column: each row block, top to bottom, takes its
    next m(i, j) free columns from each column block, left to right.
    It is the lexicographically first member of perm(r), the first that
    _block_perms yields.
    """
    m = orbit_block_counts(r)
    free: dict[int, list[int]] = {}  # column block -> its columns, left to right
    for p, (j, _) in enumerate(r.dims.cols, start=1):
        free.setdefault(j, []).append(p)
    columns = {j: iter(ps) for j, ps in free.items()}
    return tuple(
        p
        for i in range(r.dims.n + 1)
        for j, left in columns.items()
        for p in islice(left, m[i, j])
    )


def perm_set(r: RankArray) -> list[Permutation]:
    """All permutations whose block 1-counts equal those of z(r), sorted."""
    return list(_block_perms(r))


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


def zelevinsky_hom(dims: Dims) -> Permutation:
    return zelevinsky_permutation(hom_rank_array(dims))


# -- the subword states, two builders of states.States ---------------------

def _arrangements(owed: dict[int, int], values: tuple[int, ...], d: int) -> list[int]:
    """Every distinct way to give the values owed[i] copies of each label
    i, packed as in subword_states, in lexicographic order of the labels
    the values take (labels in owed's order).  The arrangements are
    extended one value at a time, each carrying the copies it still
    owes, not by a recursion, so a block may hold any number of values."""
    out = [(0, owed)]
    for x in values:
        out = [
            (s | 1 << (i * d + x), {**left, i: c - 1})
            for s, left in out
            for i, c in left.items()
            if c
        ]
    return [s for s, _ in out]


@lru_cache(maxsize=None)
def _subword_plan(letters: tuple[int, ...], dims: Dims):
    """What subword_states reads of the word and the dims alone, built
    once per word and dims: the values of each column block (label j,
    values left to right), the tests of the accepted vectors, and for
    each letter, from the last back, its pair mask and the tests of its
    skip and its take predecessors.  A test (mask, bound) is the mask of
    the labels after c on the values 1..j and D(c, j) of delta_k, the
    Demazure product of the letters before, packed as a label vector:
    the identity's, with letter t taken when label(t) < label(t+1).

    Every label vector meets a bound of at least min(j, the values
    labelled after c), so the tests at j are those of the labels c from
    the least label on the values 1..j up to, not including, the
    greatest on the values after j.  Taking t raises D(c, t) for
    label(t) <= c < label(t+1) alone: the tests of a skip predecessor."""
    d, n = dims.d, dims.n
    label = [i for i, _ in dims.rows]  # the Demazure product's labels
    col = [j for j, _ in dims.cols]
    delta = sum(1 << (i * d + x) for x, i in enumerate(label))
    ones = sum(1 << (i * d) for i in range(n + 1))  # bit 0 of every label's mask
    blocks = tuple((j, tuple(values)) for j, values in groupby(range(d), key=col.__getitem__))
    late = [sum(1 << (i * d) for i in range(c + 1, n + 1)) for c in range(n)]

    def tests(j: int) -> tuple:
        low = (1 << j) - 1
        masks = [m * low for m in late[min(label[:j]) : max(label[j:])]]
        return tuple(zip(masks, [(delta & mask).bit_count() for mask in masks]))

    steps = []
    for t in letters:
        pair, take, skip = ones << (t - 1), tests(t), ()
        a, b = label[t - 1], label[t]
        if a < b:
            lo = min(label[:t])
            skip = take[a - lo : b - lo]
            label[t - 1], label[t] = b, a
            diff = (delta ^ delta >> 1) & pair
            delta ^= diff | diff << 1
        steps.append((pair, skip, take))
    steps.reverse()
    final = tuple(test for j in range(1, d) for test in tests(j))
    return blocks, final, tuple(steps)


def _within(s: int, tests: tuple) -> bool:
    """Whether the label vector s meets every (mask, bound) of tests."""
    for mask, bound in tests:
        if (s & mask).bit_count() > bound:
            return False
    return True


def subword_states(letters: tuple[int, ...], r: RankArray) -> States:
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

    The encoding.  A label vector is one int holding, for each label i,
    the mask of the values labelled i at bit offset i*d: value x with
    label i is bit i*d + x - 1.  The labels of t and t+1 differ where
    bit t-1 and bit t of some label's mask differ, and swapping them
    flips both bits in those masks, one XOR.

    The accepted vectors.  A label vector is accepted when each column
    block j, a run of consecutive values, holds m(i, j) labels i for
    every i.  The pass starts from every accepted vector: each column
    block's labels in every distinct arrangement (_arrangements),
    combined over the blocks.

    The Demazure bound.  Write D_p(c, j) for the number of values x <= j
    whose label in p is later than c, one AND and one int.bit_count()
    against the mask of the labels after c on the values 1..j.  It is
    constant on a coset, and one coset lies below another in Bruhat
    order exactly when each of its counts is at most the other's: the
    tableau criterion (Bjorner and Brenti, Combinatorics of Coxeter
    Groups, Thm. 2.1.5) read at the ends of the row blocks.  The
    products of the subwords of letters[:k] are the permutations below
    delta_k, the Demazure product of letters[:k] (the subword property
    that target_states cites).  So a label vector at letter k is reached
    from the start exactly when D_p <= D_delta_k everywhere, and only the
    start meets the bound at letter 0, where delta_0 is the identity.

    Row t only.  Going back from letter k + 1 to k, a take predecessor
    differs from its child, and delta_k from delta_(k+1), at j = t_k
    alone.  The accepted vectors are tested on every count against the
    whole word's delta; by induction a state kept at letter k + 1 meets
    the bound there, so each predecessor is tested at j = t_k alone.  A
    skip predecessor is its child, so it is tested only for the labels
    c at which delta_k's count at t_k is below delta_(k+1)'s.

    The pass.  One backward pass from the accepted vectors that meet
    the bound keeps, at each letter k, the predecessors of the states
    kept at k + 1 that meet the bound at k: a state is its own skip
    predecessor and its swap's take predecessor.  A kept state reaches
    an accepted vector by construction and is reached from the start by
    the bound, so the kept states are exactly the live states, and level
    0 holds the start alone, or nothing.  Each kept state gets its
    edges, the skip (0, s) before the take (1, s_t s), each only into a
    kept state, and the number N(k, s) of accepted completions from (k,
    s): 1 at an accepted vector, else the sum of N over its edges.
    N(0, start), the total, is the number of subsets whose ordered
    product lies in perm(r), one per path that States.paths walks.  A
    state keeps its skip edge exactly when it was kept at k + 1 too, and
    bit k of skipped is set when some state at level k does so.  The
    number of accepted subsets that skip a position of a set D is
    positive exactly when the skipped mask meets D; csm_pd reads it so
    for the D_Hom cells.

    Per word and per orbit.  The column blocks, the tests of the
    accepted vectors, and each letter's pair mask and tests depend on
    the word and the dims alone, and _subword_plan builds them once per
    word and dims.  Each orbit builds only its own: the accepted vectors
    and the backward pass.
    """
    d, labels = r.dims.d, range(r.dims.n + 1)
    blocks, final, steps = _subword_plan(letters, r.dims)
    m = orbit_block_counts(r)

    accepted = [0]
    for j, values in blocks:
        placed = _arrangements({i: m[(i, j)] for i in labels}, values, d)
        accepted = [s | p for s in accepted for p in placed]

    counts = dict.fromkeys((s for s in accepted if _within(s, final)), 1)
    levels = [dict.fromkeys(counts, ())]  # from the last letter back
    skipped = 0
    for k, (pair, skip, take) in zip(range(len(steps) - 1, -1, -1), steps):
        below, counts, level = counts, {}, {}
        for s, n in below.items():
            diff = (s ^ s >> 1) & pair
            w = s ^ (diff | diff << 1)
            nw = below.get(w)
            if nw is None and _within(w, take):  # w's one kept child is s, its take
                level[w] = ((1, s),)
                counts[w] = n
            if _within(s, skip):
                level[s] = ((0, s),) if nw is None else ((0, s), (1, w))
                counts[s] = n if nw is None else n + nw
        if not level.keys().isdisjoint(below):
            skipped |= 1 << k
        levels.append(level)
    return States(tuple(reversed(levels)), sum(counts.values()), skipped)


def _prefix_rows(y, unit: int, w: int) -> list[int]:
    """Rows 0..d of y's prefix counts, packed as in target_states: row i
    adds [y(i) > j] to row i-1."""
    out = [0]
    for a in y:
        out.append(out[-1] + (unit & (1 << (a - 1) * (w + 1)) - 1))
    return out


@lru_cache(maxsize=None)
def _target_plan(letters: tuple[int, ...], d: int):
    """What target_states reads of the word and d alone, built once per
    word and d: unit, a 1 in every field; w, the field width less its
    guard bit; guard, every guard bit of a row; span, the bits of a row;
    the rows of delta_0, the Demazure product of the whole word; and for
    each letter, first to last, the bit offset of its row t and that row
    of delta_(k+1) with every guard bit set."""
    w = d.bit_length()
    unit = sum(1 << j * (w + 1) for j in range(d - 1))
    guard = unit << w
    span = (d - 1) * (w + 1)
    delta = _prefix_rows(range(1, d + 1), unit, w)  # the identity's, then delta_k's from the end
    steps = []
    for t in reversed(letters):
        lo, mid, hi = delta[t - 1 : t + 2]
        steps.append(((t - 1) * span, mid | guard))
        if mid - lo < hi - mid:
            delta[t] = lo + hi - mid
    steps.reverse()
    return unit, w, guard, span, tuple(delta), tuple(steps)


def target_states(letters: tuple[int, ...], v: Permutation, reduced: bool) -> States:
    """The subsets of the word whose ordered product is v, only the
    reduced subwords for v in reduced mode, counted over states instead
    of listed.

    The state.  With u the product of the letters taken so far, the
    letters still to be taken must spell x = v u^-1.  Taking letter t
    turns u into s_t u and x into x s_t, which swaps x(t) and x(t+1).
    The state is x, packed as its prefix-count rows: row i holds, in
    field j for j = 1..d-1, C_i(j) = #{a <= i : x(a) > j}.  Row i sits
    at bit i*(d-1)*(w+1), field j at bit (j-1)*(w+1) within it, with w
    the bit length of d.  Rows 0 (all 0) and d (d - j, for every x) are
    stored too, so that the rows on both sides of any letter's row can
    be read.  A count is at most d - 1 < 2^w, so bit w of each field,
    its guard bit, is 0.  Row i less row i-1 is the field vector
    [x(i) > j], whose value as an int grows with x(i), so x(t) > x(t+1)
    exactly when C_t - C_(t-1) > C_(t+1) - C_t as ints.  Taking t
    changes row t alone, to C_(t-1) + C_(t+1) - C_t.  The start is v's
    rows, at u = id.

    Bruhat order.  x <= y exactly when each field of each row of x is at
    most y's (Bjorner and Brenti, Combinatorics of Coxeter Groups,
    Thm. 2.1.5).  The Demazure product of a word Q, in the composition
    order of composite, is delta() = id and delta((t,) + Q) =
    delta(Q) s_t when delta(Q)(t) < delta(Q)(t+1), that is when s_t
    raises length, else delta(Q).  The subword property (Knutson and
    Miller, Subword complexes in Coxeter groups, Adv. Math. 2004, sec. 3;
    Bjorner and Brenti, ch. 2): x <= delta(Q) exactly when some reduced
    subword of Q spells x, and every subword of Q spells some
    x <= delta(Q).  Since l(x) <= l(delta(Q)) <= |Q|, a state with x <=
    delta(letters[k:]) is never farther from v than the letters left.

    The test.  A state x at letter k is kept only when x <=
    delta_k = delta(letters[k:]), so only x = id, that is u = v, is kept
    after the last letter, where delta is id.  In reduced mode a take is
    allowed only when x(t) > x(t+1), so it lowers l(x) by one.  Then
    l(x) + l(u) = l(v) holds from u = id on: l(v) <= l(x s_t) + l(s_t u)
    <= l(x) - 1 + l(u) + 1, so each take raises l(u) by one, and each
    accepted subset is a reduced word for v.  Conversely a reduced
    subword of letters[k:] spelling x takes only letters that lower
    l(x), so it is a completion.  So in reduced mode the test is exact:
    a state is kept exactly when some accepted subset passes through
    it, and the forward pass builds only live states.  In all-subsets
    mode every take is allowed, and the test is only necessary, since a
    completion spells x; states.live drops the states that reach
    nothing.

    Row t only.  delta_k is delta_(k+1) s_t or delta_(k+1), so the two
    differ in row t at most, as a child differs from its parent.  The
    start is tested on every row against delta_0; by induction a state
    kept at letter k has every row at most delta_k's, so a child at
    k + 1 need only have row t at most delta_(k+1)'s.  With bound that
    row with every guard bit set, bound - c keeps every guard bit
    exactly when each field of c is at most bound's: each field of the
    difference lies in 1..2^(w+1) - 1, so none borrows from the next,
    and one subtraction tests the row.  The rows of delta_(k+1) are
    built from the end, with the same row-t step.

    Per word and per orbit.  The field layout, the rows of delta_0 and
    each letter's row offset and bound depend on the word and d alone,
    and _target_plan builds them once per word and d.  Each target
    builds only its own: v's rows, the start test, the forward walk and
    states.live.
    """
    unit, w, guard, span, delta, steps = _target_plan(letters, len(v))
    row = (1 << span) - 1

    start = _prefix_rows(v, unit, w)
    fits = all((b | guard) - c & guard == guard for b, c in zip(delta, start))
    # row i goes to bit i*span.  Neighbours merge pairwise, so each of
    # the log2(d) rounds copies every bit once, where a running sum of
    # the shifted rows would copy the growing int once per row.
    level, width = start, span
    while len(level) > 1:
        level = [lo | hi << width for lo, hi in zip_longest(level[::2], level[1::2], fillvalue=0)]
        width *= 2
    level = level if fits else []
    children = []
    for at, bound in steps:
        kids, nxt = {}, {}
        for s in level:
            lo, mid, hi = s >> at & row, s >> at + span & row, s >> at + 2 * span & row
            edges = ()
            if bound - mid & guard == guard:
                edges = ((0, s),)
                nxt[s] = None
            if not reduced or mid - lo > hi - mid:
                c = lo + hi - mid
                if bound - c & guard == guard:
                    take = s + (c - mid << at + span)
                    edges += ((1, take),)
                    nxt[take] = None
            kids[s] = edges
        children.append(kids)
        level = nxt
    return live(children, level, reduced)
