"""The reference subword search the tests check the subword states against.

It lists subsets one by one over partial products, with its own pruning,
and shares no code with blockperm.subword_states, target_states or
SubwordStates.subsets.
"""

from qcalc.blockperm import Permutation, identity, left_mul_s, length


def subword_subsets(letters: tuple[int, ...], d: int, targets: frozenset, reduced: bool):
    """Pairs (J, v): index subsets of the word whose ordered product is a
    target v, depth first, each letter skipped before it is taken.  In
    reduced mode every taken letter must increase length, so J is a
    reduced word for v.

    Along with the partial product u of the letters taken so far, the
    search carries each target t still in reach and its distance
    d(u, t) = l(t u^-1), and drops t by rules 1 and 2 of
    blockperm.target_states (their proofs are there): once d(u, t)
    exceeds the letters left, and in reduced mode once a taken letter
    raises d(u, t).  A letter with p > q lowers length and is refused
    in reduced mode.  The targets in reach at letter k are thus fixed by
    (k, u), so a state found to lead nowhere is never entered again.
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
