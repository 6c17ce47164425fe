"""A table of named mutants of the package, and what check() makes of them.

Each row patches one package function or constant, wherever a package
module binds it (a from-import binds it again), one method of a package
class, or one entry of a package dict, and clears every functools cache
of the package on the way in and out, so no result of the mutant
outlives it and none of the original leaks into it.  Its figures are
those of engine.check over every orbit of sweep(5), 214 orbits: how many
reports are not ok, how many orbits each verdict of a report flags (an
entry of equal or of laws read False), and on how many orbits the six
polynomials differ from the unpatched ones, so a patch that stops biting
fails.  A control changes nothing: every report stays ok, with the
polynomials of the unpatched package.  A missed row is a mutant that
changes polynomials but that check() does not flag; it names the ROADMAP
item expected to catch it.

Rows only tighten: a change to the package that makes check() miss a
row's mutant, or that flags a control, fails test_mutants.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

from qcalc import engine, localization, pipedream, states
from qcalc.poly import Poly, xvar

_CELL_WEIGHTS = pipedream._cell_weights.__wrapped__
_FOLD_HBAR = localization._fold_hbar
_VAR_DIFF = Poly.var_diff
_HBAR_COEFFICIENT = Poly.hbar_coefficient


def _package_modules():
    return [m for key, m in list(sys.modules.items()) if key == "qcalc" or key.startswith("qcalc.")]


def _clear_caches():
    """cache_clear every functools cache a package module binds."""
    for m in _package_modules():
        for obj in vars(m).values():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


@contextmanager
def patched(owner, name: str, replacement):
    """owner's name replaced by replacement, every package cache cleared
    before and after.  owner is a dict (its entry name), a class (its
    attribute name, as the class holds it: a classmethod is passed as
    one) or a module (name in every qcalc module that binds the
    original)."""
    if isinstance(owner, dict):
        original, puts = owner[name], [owner.__setitem__]
    elif isinstance(owner, type):
        original, puts = vars(owner)[name], [partial(setattr, owner)]
    else:
        original = getattr(owner, name)
        owners = [m for m in _package_modules() if getattr(m, name, None) is original]
        puts = [partial(setattr, m) for m in owners]
    _clear_caches()
    for put in puts:
        put(name, replacement)
    try:
        yield
    finally:
        for put in puts:
            put(name, original)
        _clear_caches()


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


def _var_diff_swapped_at_x12(cls, a, b):
    """Poly.var_diff swapping its operands when the first is x^1_2."""
    return _VAR_DIFF(b, a) if a == xvar(1, 2) else _VAR_DIFF(a, b)


def _var_diff_reversed(cls, a, b):
    """Poly.var_diff returning b - a everywhere."""
    return _VAR_DIFF(b, a)


def _hbar_coefficient_one_power_up(self, k):
    """Poly.hbar_coefficient reading the coefficient of h^(k + 1)."""
    return _HBAR_COEFFICIENT(self, k + 1)


def _off_by_one(target: str, method: str):
    """A patch of the target's formula by method (an entry of
    engine.METHODS[target]) whose output is one term off: the formula's
    output plus 1."""
    table = engine.METHODS[target]
    fn = table[method]
    return patched(table, method, lambda r: fn(r) + Poly.const(1))


@dataclass(frozen=True)
class Mutant:
    name: str  # the test id
    patch: Callable[[], object]  # a fresh context manager per call
    failed: int  # reports of sweep(5) that are not ok
    changed: int  # orbits of sweep(5) whose polynomials differ from the unpatched ones
    flags: dict[str, int] = field(default_factory=dict)  # verdict -> orbits it flags
    missed_until: str = ""  # a missed row: the ROADMAP item expected to catch it


MUTANTS = [
    Mutant(
        "state_sum_passes_any_single_edge",
        lambda: patched(states, "state_sum", _state_sum_passing_any_single_edge),
        failed=214,
        changed=214,
        flags={
            "qpoly:pd=cgpd": 6,
            "qpoly:pd=ratio": 177,
            "qpoly:cgpd=ratio": 181,
            "csm:pd=cgpd": 89,
            "csm:pd=ratio": 177,
            "csm:cgpd=ratio": 209,
            "degree": 177,
            "leading term": 163,
        },
    ),
    Mutant(
        "csm_subword_walks_fold_one_power_of_h_short",
        lambda: patched(localization, "_fold_hbar", _fold_one_power_short),
        failed=214,
        changed=214,
        flags={"csm:pd=cgpd": 214, "csm:cgpd=ratio": 214, "leading term": 214},
    ),
    Mutant(
        "control_csm_skip_weighs_an_equal_one",
        lambda: patched(localization, "_fold_hbar", _fold_after_an_equal_one_skip),
        failed=0,
        changed=0,
    ),
    Mutant(
        "control_dhom_weighs_an_equal_one",
        lambda: patched(pipedream, "_cell_weights", _cell_weights_with_an_equal_one),
        failed=0,
        changed=0,
    ),
    Mutant(
        "control_undivided_skip_weighs_one",
        lambda: patched(localization, "_HBAR", Poly.one()),
        failed=0,
        changed=0,
    ),
    Mutant(
        "hbar_coefficient_reads_one_power_up",
        lambda: patched(Poly, "hbar_coefficient", _hbar_coefficient_one_power_up),
        failed=214,
        changed=0,
        flags={"leading term": 214},
    ),
    Mutant(
        "missed_var_diff_swaps_its_operands_at_x12",
        lambda: patched(Poly, "var_diff", classmethod(_var_diff_swapped_at_x12)),
        failed=0,
        changed=15,
        missed_until="14 (quiver coefficients)",
    ),
    Mutant(
        "missed_var_diff_returns_b_minus_a",
        lambda: patched(Poly, "var_diff", classmethod(_var_diff_reversed)),
        failed=0,
        changed=151,
        missed_until="9 (symmetry and duality laws)",
    ),
    *(
        Mutant(
            f"{target}_{method}_off_by_one_term",
            partial(_off_by_one, target, method),
            failed=214,
            changed=214,
            flags=flags,
        )
        for (target, method), flags in {
            ("qpoly", "pd"): {"qpoly:pd=cgpd": 214, "qpoly:pd=ratio": 214, "leading term": 214},
            ("qpoly", "cgpd"): {"qpoly:pd=cgpd": 214, "qpoly:cgpd=ratio": 214},
            ("qpoly", "ratio"): {"qpoly:pd=ratio": 214, "qpoly:cgpd=ratio": 214},
            ("csm", "pd"): {"csm:pd=cgpd": 214, "csm:pd=ratio": 214, "leading term": 33},
            ("csm", "cgpd"): {"csm:pd=cgpd": 214, "csm:cgpd=ratio": 214},
            ("csm", "ratio"): {"csm:pd=ratio": 214, "csm:cgpd=ratio": 214},
        }.items()
    ),
]
