"""A table of named mutants of the package, and what check() makes of them.

Each row patches one package function, wherever a package module binds
it (a from-import binds it again), and clears the per-dims caches the
function feeds on the way in and out, so no result of the mutant
outlives it and none of the original leaks into it.  Its figures are
those of engine.check over every orbit of sweep(5), 214 orbits: how
many reports are not ok, and how many orbits each report field flags
(an equal pair, degree_ok or leading_ok read False).  A control is a
patch that must change nothing: every report stays ok, with the six
polynomials of the unpatched package.

Rows only tighten: a change to the package that makes check() miss a
row's mutant, or that flags a control, fails test_mutants.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

from qcalc import localization, pipedream, states
from qcalc.poly import Poly

_CELL_WEIGHTS = pipedream._cell_weights.__wrapped__
_FOLD_HBAR = localization._fold_hbar


@contextmanager
def patched(module, name: str, replacement, caches=()):
    """module.name replaced by replacement in every qcalc module that
    binds the original, each cache in caches cleared before and after."""
    original = getattr(module, name)
    owners = [
        m
        for key, m in list(sys.modules.items())
        if (key == "qcalc" or key.startswith("qcalc.")) and getattr(m, name, None) is original
    ]
    for cache in caches:
        cache.cache_clear()
    for m in owners:
        setattr(m, name, replacement)
    try:
        yield
    finally:
        for m in owners:
            setattr(m, name, original)
        for cache in caches:
            cache.cache_clear()


def _state_sum_passing_any_single_edge(levels, weights):
    """states.state_sum with its weight test left out: a node with one
    edge passes its child's sum through whatever that edge weighs."""
    below = dict.fromkeys(levels[-1], Poly.one())
    for k in range(len(levels) - 2, -1, -1):
        w = weights[k]
        below = {
            s: below[edges[0][1]] if len(edges) == 1
            else Poly.sum_of_products([(w[c], below[t]) for c, t in edges])
            for s, edges in levels[k].items()
        }
    if not below:
        return Poly.zero()
    (root,) = below.values()
    return root


def _fold_one_power_short(pairs, D):
    """localization._fold_hbar folding h^(D - 1) into the last letter's
    weights of a CSM subword walk, where h^D belongs."""
    _FOLD_HBAR(pairs, D - 1)


def _fold_after_an_equal_one_skip(pairs, D):
    """localization._fold_hbar after each skip weight of the CSM subword
    walk that is the shared Poly.one() became Poly.const(1): equal to 1,
    but not the shared one, so state_sum multiplies by it."""
    one = Poly.one()
    pairs[:] = [(Poly.const(1) if skip is one else skip, take) for skip, take in pairs]
    _FOLD_HBAR(pairs, D)


def _cell_weights_with_an_equal_one(dims):
    """pipedream._cell_weights with each D_Hom weight Poly.const(1): equal
    to 1, but not the shared Poly.one(), so state_sum multiplies by it."""
    return tuple(Poly.const(1) if w == 1 else w for w in _CELL_WEIGHTS(dims))


@dataclass(frozen=True)
class Mutant:
    name: str  # the test id
    patch: Callable[[], object]  # a fresh context manager per call
    failed: int  # reports of sweep(5) that are not ok
    flags: dict[str, int] = field(default_factory=dict)  # report field -> orbits it flags
    control: bool = False  # every report must equal the unpatched one


MUTANTS = [
    Mutant(
        "state_sum_passes_any_single_edge",
        lambda: patched(
            states, "state_sum", _state_sum_passing_any_single_edge, [localization._hom_factored]
        ),
        failed=214,
        flags={
            "qpoly:pd=cgpd": 6,
            "qpoly:pd=ratio": 177,
            "qpoly:cgpd=ratio": 181,
            "csm:pd=cgpd": 89,
            "csm:pd=ratio": 177,
            "csm:cgpd=ratio": 209,
            "degree_ok": 177,
            "leading_ok": 163,
        },
    ),
    Mutant(
        "csm_subword_walks_fold_one_power_of_h_short",
        lambda: patched(
            localization, "_fold_hbar", _fold_one_power_short, [pipedream._csm_cell_pairs]
        ),
        failed=214,
        flags={"csm:pd=cgpd": 214, "csm:cgpd=ratio": 214, "leading_ok": 214},
    ),
    Mutant(
        "control_csm_skip_weighs_an_equal_one",
        lambda: patched(
            localization, "_fold_hbar", _fold_after_an_equal_one_skip, [pipedream._csm_cell_pairs]
        ),
        failed=0,
        control=True,
    ),
    Mutant(
        "control_dhom_weighs_an_equal_one",
        lambda: patched(
            pipedream,
            "_cell_weights",
            _cell_weights_with_an_equal_one,
            [pipedream._cell_weights, pipedream._csm_cell_pairs],
        ),
        failed=0,
        control=True,
    ),
]
