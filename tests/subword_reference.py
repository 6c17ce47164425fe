"""The references the tests check the subword states against.

subword_subsets lists subsets one by one over partial products, with its
own pruning, and shares no code with blockperm.subword_states,
target_states or States.paths.  forward_subword_states builds the coset
states of blockperm.subword_states from the other end: a forward pass
from the start under the flow bound, then its own backward count
(_live), which tracks the skipped mask per state, apart from the
package's states.live.  It returns a States whose states are label
vectors (tuples).
taken reads the paths of subword states as subsets.
"""

from qcalc.blockperm import (
    Permutation,
    block_counts,
    identity,
    left_mul_s,
    length,
)
from qcalc.quiver import RankArray
from qcalc.states import States


def subword_subsets(letters: tuple[int, ...], d: int, targets: frozenset, reduced: bool):
    """Pairs (J, v): index subsets of the word whose ordered product is a
    target v, depth first, each letter skipped before it is taken.  In
    reduced mode every taken letter must increase length, so J is a
    reduced word for v.

    Along with the partial product u of the letters taken so far, the
    search carries each target t still in reach and its distance
    d(u, t) = l(t u^-1), and drops t by rules 1 and 2 below: once
    d(u, t) exceeds the letters left, and in reduced mode once a taken
    letter raises d(u, t).  A letter with p > q lowers length and is
    refused in reduced mode.  The targets in reach at letter k are thus
    fixed by (k, u), so a state found to lead nowhere is never entered
    again.

    The distance.  The permutation t u^-1 sends u(a) to t(a), so its
    inversions are the position pairs a < b that u and t order
    differently (l counts inversions: Bjorner and Brenti, Combinatorics
    of Coxeter Groups, ch. 1).  Hence d(id, t) = l(t), d(u, t) = 0
    exactly when u = t, and d(u, t) >= l(t) - l(u) since
    l(t) <= l(t u^-1) + l(u).  Taking letter i swaps the values i and
    i+1 of u, which sit at positions p and q.  Every other value lies
    below both or above both, so only the pair {p, q} changes order, and
    d(u, t) moves by exactly one: down when s_i u, which has i+1 at p,
    agrees with t there, that is t(p) > t(q), and up otherwise.  Skipping
    a letter moves nothing.

    Rule 1.  A target whose distance exceeds the letters left is
    dropped.  It could never come back in reach: the distance falls by
    at most one per letter, and the letters left fall by exactly one.
    So after the last letter only distance 0 remains, and u = t.

    Rule 2, reduced mode.  If the letters still to be taken spell x with
    t = x u and l(x) letters, then l(t) = l(x) + l(u), so u lies below t
    in the left weak order (ch. 3) and d(u, t) = l(t) - l(u).  That
    holds at u = id.  A taken letter raises l(u) by one, so it must
    lower d(u, t), and a take keeps t only when the distance falls.  Had
    it raised it, the gap d(u, t) - l(t) + l(u) would be 2, and each
    later reduced step changes it by 0 or 2, so it never closes.
    """
    L = len(letters)
    dead: set[tuple[int, Permutation]] = set()
    chosen: list[int] = []
    found = 0

    def rec(k: int, u: Permutation, reach: list):
        # reach: a (t, d(u, t)) pair for each target in reach at (k, u)
        nonlocal found
        if k == L:
            found += 1
            yield tuple(chosen), u
            return
        before = found
        left = L - k - 1
        skip = [(t, e) for t, e in reach if e <= left]
        if skip and (k + 1, u) not in dead:
            yield from rec(k + 1, u, skip)
        i = letters[k]
        p, q = u.index(i), u.index(i + 1)
        if not (reduced and p > q):
            take = [(t, e - 1) for t, e in reach if t[p] > t[q]]
            if not reduced:
                take += [(t, e + 1) for t, e in reach if t[p] < t[q] and e < left]
            if take:
                su = left_mul_s(i, u)
                if (k + 1, su) not in dead:
                    chosen.append(k)
                    yield from rec(k + 1, su, take)
                    chosen.pop()
        if found == before:
            dead.add((k, u))

    reach = [(t, lt) for t in targets if (lt := length(t)) <= L]
    if reach:
        yield from rec(0, identity(d), reach)


def taken(states: States):
    """The taken positions of each path of subword states, a tuple, in
    States.paths order."""
    for path in states.paths():
        yield tuple(k for k, c in enumerate(path) if c)


def _swap(s: tuple, t: int) -> tuple:
    """s_t acting on a label vector: swap the labels of values t and t+1."""
    return s[: t - 1] + (s[t], s[t - 1]) + s[t + 1 :]


def _live(children: list, accepted: set, reduced: bool) -> States:
    """The backward pass of forward_subword_states.  children[k] maps each state
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
    return States(tuple(reversed(levels)), total, skipped, reduced)


def forward_subword_states(letters: tuple[int, ...], r: RankArray) -> States:
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
    and keeps the states with N > 0 and their edges (States).  Its
    total, N(0, start), is the number of subsets whose ordered product
    lies in perm(r), one per path that States.paths walks.  The number
    of accepted subsets that skip a position of a set D is positive
    exactly when the skipped mask meets D; csm_pd reads it so for the
    D_Hom cells.
    """
    dims = r.dims
    d = dims.d
    m = block_counts(r)
    col = [j for j, _ in dims.cols]
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

    live = {tuple(i for i, _ in dims.rows)}
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
