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
from itertools import accumulate, islice, zip_longest
from math import factorial, prod
from typing import Iterator

from .quiver import Dims, RankArray, lace_array, per_orbit
from .states import States

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


@per_orbit
def block_counts(r: RankArray) -> dict[tuple[int, int], int]:
    """1-counts m(i, j) of the Zelevinsky permutation's blocks, built
    once per quiver.Orbit; do not mutate.

    Lace counts s_ji sit on and below the block diagonal, the
    superantidiagonal block carries r_{i,i+1}, and everything above it
    is empty.
    """
    s, ranks = lace_array(r).entries, r.entries
    blocks = range(r.dims.n + 1)
    return {
        (i, j): s[j, i] if j <= i else ranks[i, j] if j == i + 1 else 0
        for i in blocks
        for j in blocks
    }


def perm_set(r: RankArray) -> Iterator[Permutation]:
    """perm(r): the permutations whose block 1-counts equal those of
    z(r), in lexicographic order, one at a time.

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
    owed = dict(block_counts(r))  # the search decrements it
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
    perm_set yields.
    """
    m = block_counts(r)
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


def zelevinsky_length(r: RankArray) -> int:
    """l(z(r)), read from the block counts without building z(r).

    z(r) has no inversion inside a block row or a block column, and a
    one of row block i in column block j lies above and to the right of
    a one of row block i' in column block j' exactly when i < i' and j <
    j' (column blocks are labelled right to left).  So l(z(r)) is the
    sum of m(i, j) m(i', j') over i < i' and j < j': row block by row
    block, with one running sum per column block of the ones above.
    """
    m, blocks = block_counts(r), range(r.dims.n + 1)
    above = [0] * len(blocks)  # above[j]: the ones of column block j in the rows so far
    total = 0
    for i in blocks:
        left = 0  # the ones above in the column blocks before j
        for j in blocks:
            total += m[i, j] * left
            left += above[j]
            above[j] += m[i, j]
    return total


def perm_count(r: RankArray) -> int:
    """|perm(r)|, without listing it.  Row block i spreads its r_i rows
    over the column blocks in r_i! / prod_j m(i, j)! ways, column block
    j its r_j columns over the row blocks in r_j! / prod_i m(i, j)!
    ways, and block (i, j) matches its m(i, j) rows to its columns in
    m(i, j)! ways: (prod_i r_i!)^2 / prod_(i, j) m(i, j)! in all."""
    m = block_counts(r).values()
    return prod(map(factorial, r.dims.r)) ** 2 // prod(map(factorial, m))


# -- the subword states, one builder of states.States ----------------------

def _arrangements(owed: dict[int, int], values: range, diffs: list[int], span: int) -> list[int]:
    """Every distinct way to give the values owed[i] copies of each label
    i, in lexicographic order of the labels the values take (labels in
    owed's order), each as an int of rows of span bits: row x is
    diffs[label(x)] for each of the values x, and 0 for every other x.
    The arrangements are extended one value at a time, each carrying the
    copies it still owes, not by a recursion, so a block may hold any
    number of values."""
    out = [(0, owed)]
    for x in values:
        out = [
            (s + (diffs[i] << x * span), {**left, i: c - 1})
            for s, left in out
            for i, c in left.items()
            if c
        ]
    return [s for s, _ in out]


def _pack(rows: list[int], span: int) -> int:
    """The rows as one int, row x at bit x*span.  Neighbours merge
    pairwise, so each of the log2(d) rounds copies every bit once, where
    a running sum of the shifted rows would copy the growing int once
    per row."""
    while len(rows) > 1:
        rows = [lo | hi << span for lo, hi in zip_longest(rows[::2], rows[1::2], fillvalue=0)]
        span *= 2
    return rows[0]


def _prefix_sums(s: int, span: int, d: int) -> int:
    """The running sums of the rows 0..d of s: row x of the result is
    the sum of rows 0..x of s.  Each round adds the int shifted by the
    rows that each sum covers so far, doubling them, so after
    log2(d+1) rounds, rounded up, row x sums every row up to x; the
    rows past d are masked off.  Every sum is a count of at most d - 1
    labels, below 2^w, so no field carries into the next."""
    window = 1
    while window <= d:
        s += s << window * span
        window *= 2
    return s & (1 << (d + 1) * span) - 1


@lru_cache(maxsize=None)
def _plan(letters: tuple[int, ...], dims: Dims):
    """What the backward pass reads of the word and the dims alone,
    built once per word and dims: the field layout (diffs, row x less
    row x-1 by label(x), a 1 in each field c < label(x); span, the bits
    of a row; guard, every guard bit of a row), the rows of the whole
    word's Demazure product with every guard bit set, guards, the guard
    bits of every row, and for each letter, from the last back, the bit
    offset of its row t-1, row t of delta_k with every guard bit set,
    and whether delta grows there.  A label vector's rows are the
    running sums of its values' diffs.  delta_0 is the identity's label
    vector, and delta_(k+1) is delta_k with the labels of t and t+1
    swapped when label(t) < label(t+1): the take that raises length."""
    w = dims.d.bit_length()
    unit = sum(1 << c * (w + 1) for c in range(dims.n))
    guard, span = unit << w, dims.n * (w + 1)
    diffs = [unit & (1 << i * (w + 1)) - 1 for i in range(dims.n + 1)]
    delta = list(accumulate((diffs[i] for i, _ in dims.rows), initial=0))
    steps = []
    for t in letters:
        lo, mid, hi = delta[t - 1 : t + 2]
        grows = mid - lo < hi - mid
        steps.append(((t - 1) * span, mid | guard, grows))
        if grows:
            delta[t] = lo + hi - mid
    steps.reverse()
    guards = _pack([guard] * len(delta), span)
    return (diffs, span, guard), _pack(delta, span) | guards, guards, tuple(steps)


def _backward_pass(plan, accepted: list[int], reduced: bool) -> States:
    """The live states of the word's subsets from the start to the
    accepted vectors, in reduced mode of those whose every take raises
    length, by one pass from the last letter back: the pass of
    subword_states and of target_states, whose docstrings give the
    encoding and the proof."""
    (_, span, guard), final, guards, steps = plan
    row, window, two = (1 << span) - 1, (1 << 3 * span) - 1, 2 * span
    counts = dict.fromkeys((s for s in accepted if final - s & guards == guards), 1)
    levels = [dict.fromkeys(counts, ())]  # from the last letter back
    skipped = 0
    for k, (at, bound, grows) in zip(range(len(steps) - 1, -1, -1), steps):
        below, counts, level = counts, {}, {}
        at_t = at + span
        for s, n in below.items():
            y = s >> at & window  # rows t-1, t and t+1
            lo, mid, hi = y & row, y >> span & row, y >> two
            c = lo + hi - mid
            x = s + (c - mid << at_t)
            nx = below.get(x)
            # reduced, and the take s -> x raises length: mid - lo < hi - mid
            up = reduced and c > mid
            if nx is None and not up and bound - c & guard == guard:  # x's one kept child is s, its take
                level[x] = ((1, s),)
                counts[x] = n
            if not grows or bound - mid & guard == guard:
                if nx is None or reduced and not up:
                    level[s] = ((0, s),)
                    counts[s] = n
                else:
                    level[s] = ((0, s), (1, x))
                    counts[s] = n + nx
        if not level.keys().isdisjoint(below):
            skipped |= 1 << k
        levels.append(level)
    return States(tuple(reversed(levels)), sum(counts.values()), skipped, reduced)


def subword_states(letters: tuple[int, ...], r: RankArray, reduced: bool = False) -> States:
    """The subsets of the word whose ordered product lies in perm(r),
    only the reduced subwords for z(r) in reduced mode, counted over
    states instead of listed.

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

    The encoding.  Write D_p(c, x) for the number of values <= x whose
    label in p is later than c.  A label vector p is one int of rows:
    row x, for x = 0..d, holds D_p(c, x) in field c, for c = 0..n-1.  Row
    x sits at bit x*n*(w+1), field c at bit c*(w+1) within it, with w
    the bit length of d.  A count is at most d - 1 < 2^w, so bit w of
    each field, its guard bit, is 0.  Rows 0 (all 0) and d (the values
    labelled after c, the same for every p) are stored too, so that the
    rows on both sides of any letter's row can be read.  Row x less row
    x-1 has a 1 in each field c < label(x), an int that grows with
    label(x), so label(t) < label(t+1) exactly when row t - row t-1 <
    row t+1 - row t as ints.  Swapping the labels of t and t+1 changes
    row t alone, to row t-1 + row t+1 - row t.

    The accepted vectors.  A label vector is accepted when each column
    block j, a run of consecutive values, holds m(i, j) labels i for
    every i.  The pass starts from every accepted vector: each column
    block's labels in every distinct arrangement (_arrangements),
    combined over the blocks.  An arrangement is built as the int of its
    differences, row x less row x-1, on its block's values; a
    combination is the sum of its blocks' ints, whose running sums over
    the rows (_prefix_sums) are its rows.

    The Demazure bound.  D_p is constant on a coset, and one coset lies
    below another in Bruhat order exactly when each of its counts is at
    most the other's: the tableau criterion (Bjorner and Brenti,
    Combinatorics of Coxeter Groups, Thm. 2.1.5) read at the ends of the
    row blocks.  The Demazure product of a word, in the composition
    order of composite, is delta() = id and delta(Q + (t,)) = s_t
    delta(Q) when that raises length, that is when label(t) <
    label(t+1), else delta(Q).  The subword property (Knutson and
    Miller, Subword complexes in Coxeter groups, Adv. Math. 2004, sec. 3;
    Bjorner and Brenti, ch. 2): x <= delta(Q) exactly when some reduced
    subword of Q spells x, and every subword of Q spells some x <=
    delta(Q).  So a label vector at letter k is reached from the start
    exactly when D_p <= D_delta_k everywhere, delta_k the Demazure
    product of letters[:k], and only the start meets the bound at letter
    0, where delta_0 is the identity.  With bound a row with every guard
    bit set, bound - row keeps every guard bit exactly when each field
    of row is at most bound's: each field of the difference lies in
    1..2^(w+1) - 1, so none borrows from the next, and one subtraction
    tests a row, or the whole int against every row at once.

    Row t only.  Going back from letter k + 1 to k, a take predecessor
    differs from its child, and delta_k from delta_(k+1), in row t_k
    alone.  The accepted vectors are tested on every row against the
    whole word's delta; by induction a state kept at letter k + 1 meets
    the bound there, so a take predecessor is tested on row t_k alone,
    and a skip predecessor, its child, only where delta grows at k.

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

    Reduced mode: the reduced subwords for z(r), over the same states.
    A take raises the length of the coset's shortest element exactly
    when label(t) < label(t+1) before it, and s_t times that element is
    then the new coset's shortest.  z(r) is the shortest element of z(r)
    W_rows (no inversion inside a row block), and every right factor u
    of a reduced word for a minimal coset representative is minimal in
    u W_rows, since a descent of u in W_rows would be one of z(r)
    (Bjorner and Brenti, ch. 2).  So every take of a reduced word for
    z(r) raises length, and a path from the start whose every take
    raises length spells the shortest element of its last coset by a
    reduced word.  The reduced subwords for z(r) are therefore the paths
    to z(r)'s label vector whose every take raises length: the pass
    starts from that vector alone and keeps only those takes (a take
    between equal labels, which leaves the state as it is, among the
    dropped).  The bound stays exact as in target_states, read on
    shortest elements: a coset kept at letter k has its shortest element
    below delta_k, spelled by a reduced subword of letters[:k] whose
    prefixes are minimal too.  z(r) gives each column block's values to
    the row blocks in order (zelevinsky_permutation), so its vector is
    each block's first arrangement, labels ascending.  Paths, order,
    total and skipped are those of target_states toward z(r), over
    states of (d+1) n (w+1) bits, not (d+1)(d-1)(w+1), and z(r) is not
    built.

    Per word and per orbit.  The field layout, the rows of the whole
    word's delta and each letter's row offset, bound and growth depend
    on the word and the dims alone, and _plan builds them once per word
    and dims.  Each orbit builds only its own: the accepted vectors and
    the backward pass.
    """
    dims = r.dims
    plan = _plan(letters, dims)
    diffs, span, _ = plan[0]
    labels = range(dims.n + 1)
    m = block_counts(r)
    if reduced:  # z(r)'s vector: each column block, left to right, labels ascending
        z = (diffs[i] for j in range(dims.n, -1, -1) for i in labels for _ in range(m[i, j]))
        return _backward_pass(plan, [_pack(list(accumulate(z, initial=0)), span)], True)
    accepted, x = [0], 1
    for j in range(dims.n, -1, -1):  # the column blocks, left to right
        values = range(x, x + dims.r[j])
        placed = _arrangements({i: m[i, j] for i in labels}, values, diffs, span)
        accepted = [s + p for s in accepted for p in placed]
        x = values.stop
    accepted = [_prefix_sums(s, span, dims.d) for s in accepted]
    return _backward_pass(plan, accepted, False)


def target_states(letters: tuple[int, ...], v: Permutation, reduced: bool) -> States:
    """The subsets of the word whose ordered product is v, only the
    reduced subwords for v in reduced mode, counted over states instead
    of listed.

    These are the states of subword_states on the dims (1, ..., 1): every
    row block is one position, so the label vector of u is u^-1 less
    one, a coset is one permutation, and the one accepted vector is v's.
    A take raises length exactly when label(t) < label(t+1) before it,
    and in reduced mode the pass keeps only those takes.  The test stays
    exact: a state u kept at letter k lies below delta_k, so some reduced
    subword of letters[:k] spells it, a path from the start whose every
    take raises length, and the kept takes from u to v raise it too.  A
    subset spells v by takes that each raise length exactly when it is a
    reduced word for v.  For these dims the rows are those of u^-1's
    prefix counts: row x holds, in field j - 1 for j = 1..d-1, #{a <= x :
    u^-1(a) > j}.  Each target builds only its own: v's rows and the
    backward pass.  It serves any permutation and any word: pipe dreams
    of a given v (pipedream.enumerate_pipe_dreams) and the restrictions
    on any word (localization.ajs_billey, csm_restriction).  An orbit's
    walk toward z(r) takes subword_states in reduced mode instead, over
    the orbit's own cosets, whose states are n/(d-1) the size.
    """
    d = len(v)
    plan = _plan(letters, Dims((1,) * d))
    diffs, span, _ = plan[0]
    label = [0] * d
    for q, x in enumerate(v):
        label[x - 1] = q
    rows = list(accumulate((diffs[q] for q in label), initial=0))
    return _backward_pass(plan, [_pack(rows, span)], reduced)
