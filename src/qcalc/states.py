"""Levelled state DAGs: the record every state builder returns (States)
and the one path sum that every formula walks with its own weights
(state_sum)."""

from __future__ import annotations

from dataclasses import dataclass

from .poly import Poly


@dataclass(frozen=True)
class States:
    """The live states of a levelled DAG, level by level.

    levels[k] maps each state at level k that some path to the last
    level passes through to its edges (c, t) in order: label c, and t
    the state reached at level k + 1.  The last level's states have no
    edges.  total is the number of paths.  Of the builders,
    blockperm.subword_states and target_states, both one exact backward
    pass that keeps only live states, label the skip of letter k 0 and
    its take 1, skip first, over packed int states; a path is one
    accepted subset.  skipped has bit j set when some accepted subset
    skips position j (a position outside it is taken by all), and a
    skipped letter weighs 1 when reduced and h otherwise.  The formulas
    read skipped as it is: csm_pd against the D_Hom mask, and the ratio
    formulas, whose forced positions are its complement and whose h^D
    takes D from its bit count (localization._forced_sum), with position
    sets as masks in the same encoding.
    cgpd.orbit_states, kept live by the routing's own backward pass, and
    minimal_states label the p-th cell in laying order with the tile
    laid there, over states numbered within each level; a path is one
    diagram, and skipped and reduced keep their defaults.  An orbit's
    four state sets come from per_orbit builders (quiver.per_orbit):
    localization.orbit_states and orbit_reduced_states, both through
    subword_states over the orbit's cosets (all subsets toward perm(r),
    and in reduced mode the reduced subwords for z(r)), and
    cgpd.orbit_routing and minimal_states, so check() builds each once
    and every formula reads that one.  target_states, over permutations,
    serves a given permutation and any word.
    """

    levels: tuple[dict, ...]
    total: int
    skipped: int = 0
    reduced: bool = False

    def paths(self):
        """The labels of each path, a tuple, depth first along each
        state's edges in order.  Every state is live, so the walk enters
        no branch that reaches nothing.  It keeps a stack of the edges
        left at each state of the current path, not a recursion, so a
        path may be as long as any word."""
        levels = self.levels
        m = len(levels) - 1
        for s in levels[0]:
            if not m:
                yield ()
                continue
            labels: list = []  # the labels down to the state on top of stack
            stack = [iter(levels[0][s])]
            while stack:
                edge = next(stack[-1], None)
                if edge is None:
                    stack.pop()
                    if labels:
                        labels.pop()
                    continue
                c, t = edge
                if len(stack) == m:
                    yield (*labels, c)
                else:
                    labels.append(c)
                    stack.append(iter(levels[len(stack)][t]))


def state_sum(levels: tuple[dict, ...], weights) -> Poly:
    """The levelled path sum S(0, root), with S(k, s) the sum over the
    edges (c, t) of s of weights[k][c] * S(k+1, t) and S = 1 at the last
    level.  levels[k] maps each node at level k to its edges, label c and
    child t at level k + 1: the live subword states or the cgpd routing
    states (cgpd.orbit_states and minimal_states).  Two places build
    weights: localization.subword_pairs those of every subword walk, and
    cgpd._tile_weights those of the routing states.

    The CSM classes are h-weighted path sums in which every level gives
    each path one factor of degree 1, or a weight 1 that every path
    takes.  Both builders divide the weights by h and fold h^D into the
    last level's, D the number of levels divided (a level every path
    takes with weight 1 stays undivided).  The sum is the same, a skip
    or a turn weighs 1, and every node's sum is a polynomial of degree
    D, since the last level is multiplied first (Poly.times_hbar).

    It runs from the last level back, keeping one level of partial sums
    at a time.  A node whose single edge weighs 1 passes its child's sum
    through, a node whose single edge leads to a sum of 1 takes the
    edge's weight as its sum, and a node with an edge of weight 1 puts
    it first, so the kernel starts the node's sum as a copy of that
    child's.  A 1 is told by identity with the shared Poly.one(), from
    which every weight 1 of the package comes, and which a node passes
    through, so no weight or sum is compared term by term.  The take
    weights are built once per dims or per word, the sums once per
    orbit.  So a node's sum may be an object a weight table holds; the
    walk returns a copy of such a root (Poly.one() itself is returned
    as it is).  Level 0 holds the root, or nothing when nothing is
    accepted, and then the sum is 0.
    """
    one = Poly.one()
    below = dict.fromkeys(levels[-1], one)
    lent = set()  # the ids of the weights taken as a node's sum
    for k in range(len(levels) - 2, -1, -1):
        w = weights[k]
        level = {}
        for s, edges in levels[k].items():
            if len(edges) == 1:
                c, t = edges[0]
                if w[c] is one:
                    level[s] = below[t]
                    continue
                if below[t] is one:
                    level[s] = w[c]
                    lent.add(id(w[c]))
                    continue
            pairs = [(w[c], below[t]) for c, t in edges]
            if len(pairs) > 1 and pairs[0][0] is not one:
                for i, pair in enumerate(pairs):
                    if pair[0] is one:
                        pairs[0], pairs[i] = pair, pairs[0]
                        break
            level[s] = Poly.sum_of_products(pairs)
        below = level
    if not below:
        return Poly.zero()
    (root,) = below.values()
    return Poly(root.terms.copy(), root._bound) if id(root) in lent else root
