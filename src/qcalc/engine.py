"""Formula dispatch, cross-formula consistency checks, and the sweep.

Every orbit class is computable three independent ways (pipe dreams,
chained generic pipe dreams, and a ratio of fixed-point restrictions),
for both the quiver polynomial and the CSM class of the open locus.
check() runs all six and also tests the two derived laws: the quiver
polynomial has degree l(z(r)) - |D_Hom|, and it is the coefficient of
h^(L - l(z(r))) in the CSM class.  A report holds two verdicts, equal
(each pair of formulas of one target) and laws (each law by name), and
every reader iterates them; a disagreement in either is recorded in the
report (ok is False).  A formula that raises (the DHomViolation of
csm_pd or of the ratio formulas, any bug) is not caught: the
exception leaves check() and ends sweep_reports(), so only the reports
of the orbits before it survive, as the lines the CLI has already
printed.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterator

from . import cgpd, localization, pipedream
from .blockperm import length, perm_count, regions, zelevinsky_permutation
from .poly import Poly, format_poly
from .quiver import Dims, Orbit, RankArray, enumerate_rank_arrays, to_json

QPOLY_METHODS = {
    "pd": pipedream.quiver_poly_pd,
    "cgpd": cgpd.quiver_poly_cgpd,
    "ratio": localization.quiver_poly_ratio,
}
CSM_METHODS = {
    "pd": pipedream.csm_pd,
    "cgpd": cgpd.csm_cgpd,
    "ratio": localization.csm_ratio,
}
METHODS = {"qpoly": QPOLY_METHODS, "csm": CSM_METHODS}  # target -> its formulas


def compute(r: RankArray, target: str, method: str) -> Poly:
    """One polynomial of the orbit of r, by the named formula."""
    table = METHODS.get(target)
    if table is None:
        raise ValueError(f"unknown target {target!r}")
    fn = table.get(method)
    if fn is None:
        raise ValueError(f"unknown method {method!r} for target {target!r}")
    return fn(r)


@dataclass(frozen=True)
class ConsistencyReport:
    """All six polynomials of one orbit with their agreement flags.

    equal maps pair names like "qpoly:pd=cgpd" to booleans; laws maps
    each law's name ("degree", "leading term") to whether it holds, so a
    new law is one entry; counts holds the enumeration sizes; timings_ms
    the per-method wall times.
    polynomials holds one object per distinct class: a formula whose
    polynomial equals an earlier one of its target names that earlier
    object, so a passing orbit holds two.  A pickle then carries each
    class once, and texts() formats it once.  A Poly is immutable:
    never write to its .terms, which another name may share.
    """

    rank: RankArray
    polynomials: dict[str, Poly]
    equal: dict[str, bool]
    laws: dict[str, bool]
    counts: dict[str, int]
    timings_ms: dict[str, float]

    @property
    def ok(self) -> bool:
        return all(self.equal.values()) and all(self.laws.values())

    def texts(self) -> dict[str, str]:
        """format_poly of each polynomial, each distinct object once."""
        distinct = {id(p): p for p in self.polynomials.values()}
        text = {key: format_poly(p) for key, p in distinct.items()}
        return {name: text[id(p)] for name, p in self.polynomials.items()}

    def to_json(self) -> dict:
        return {
            "input": to_json(self.rank),
            "polynomials": self.texts(),
            "equal": dict(self.equal),
            "laws": dict(self.laws),
            "counts": dict(self.counts),
            "timings_ms": dict(self.timings_ms),
            "ok": self.ok,
        }

    def to_text(self) -> str:
        """The report as qcalc check prints it: each polynomial, each
        flag of equal, each law, each count, then the result."""
        verdict = lambda flag: "ok" if flag else "FAIL"
        lines = [f"{name}: {text}" for name, text in sorted(self.texts().items())]
        lines += [f"{name}: {verdict(flag)}" for name, flag in sorted(self.equal.items())]
        lines += [f"{name} law: {verdict(flag)}" for name, flag in self.laws.items()]
        lines += [f"count {name}: {value}" for name, value in sorted(self.counts.items())]
        lines.append(f"result: {verdict(self.ok)}")
        return "\n".join(lines)

    def to_line(self) -> str:
        """The report as qcalc sweep prints it: the orbit and the result."""
        r = self.rank
        ranks = " ".join(f"{i}{j}:{r[i, j]}" for i, j in r.dims.pairs() if i != j)
        return f"dims {r.dims.r} ranks {ranks or '-'} {'ok' if self.ok else 'FAIL'}"


def check(r: RankArray) -> ConsistencyReport:
    """Compute all six polynomials of r and verify every cross relation.

    The formulas share one Orbit, so each object built by a per_orbit
    builder (quiver.per_orbit) is built once: the lace array, the block
    counts, z(r), the reduced and the CSM subword states, and the cgpd
    routing states (one forward pass, read by both cgpd formulas) and
    their minimal paths.  The counts are their sizes, and no subword,
    member of perm(r) or CGPD object is listed.
    rp_star, the number of reduced strict dreams of z(r), and p_total,
    the number of strict subwords with product in perm(r) (non-reduced
    strict dreams), are the totals (states.States.total) of the two
    state sets (localization.orbit_reduced_states and orbit_states);
    cgpd and cgpd_infinity are the totals of the cgpd states and of
    their minimal paths (cgpd.orbit_states and minimal_states); perm,
    the size of perm(r), follows from its block counts
    (blockperm.perm_count).  Once every flag of equal is computed,
    each polynomial equal to an earlier one of its target is replaced by
    that earlier object (see ConsistencyReport).
    """
    orbit = Orbit(r)
    polys: dict[str, Poly] = {}
    timings: dict[str, float] = {}
    for target, table in METHODS.items():
        for method, fn in table.items():
            start = time.perf_counter()
            polys[f"{target}_{method}"] = fn(orbit)
            timings[f"{target}_{method}"] = (time.perf_counter() - start) * 1000.0

    pairs = [
        (target, left, right)
        for target in METHODS
        for left, right in (("pd", "cgpd"), ("pd", "ratio"), ("cgpd", "ratio"))
    ]
    equal = {
        f"{t}:{left}={right}": polys[f"{t}_{left}"] == polys[f"{t}_{right}"]
        for t, left, right in pairs
    }
    # pd=cgpd, pd=ratio, cgpd=ratio: polys[left] already names its first equal
    for t, left, right in pairs:
        if equal[f"{t}:{left}={right}"]:
            polys[f"{t}_{right}"] = polys[f"{t}_{left}"]

    reg = regions(r.dims)
    lz = length(zelevinsky_permutation(orbit))
    laws = {
        "degree": polys["qpoly_pd"].degree() == lz - len(reg.dhom_cells),
        "leading term": polys["csm_pd"].hbar_coefficient(reg.L - lz) == polys["qpoly_pd"],
    }

    counts = {
        "perm": perm_count(orbit),
        "rp_star": localization.orbit_reduced_states(orbit).total,
        "p_total": localization.orbit_states(orbit).total,
        "cgpd": cgpd.orbit_states(orbit).total,
        "cgpd_infinity": cgpd.minimal_states(orbit).total,
    }
    return ConsistencyReport(
        rank=r,
        polynomials=polys,
        equal=equal,
        laws=laws,
        counts=counts,
        timings_ms=timings,
    )


def sweep_dims(budget: int) -> list[Dims]:
    """All dims with n >= 1 and dim Hom = sum r_i r_{i+1} <= budget,
    ordered by length then lexicographically."""
    out: list[Dims] = []

    def rec(prefix: list[int], used: int):
        if len(prefix) >= 2:
            out.append(Dims(tuple(prefix)))
        last = prefix[-1]
        nxt = 1
        while used + last * nxt <= budget:
            prefix.append(nxt)
            rec(prefix, used + last * nxt)
            prefix.pop()
            nxt += 1

    first = 1
    while first <= budget:
        rec([first], 0)
        first += 1
    out.sort(key=lambda dims: (dims.n, dims.r))
    return out


def worker_count() -> int:
    """QCALC_THREADS, at least 1 and at most the core count (a pool forks
    all its workers at once); the core count when it is unset."""
    cores = os.cpu_count() or 1
    env = os.environ.get("QCALC_THREADS", "").strip()
    if env:
        try:
            return max(1, min(int(env), cores))
        except ValueError:
            raise ValueError(f"QCALC_THREADS must be an integer, got {env!r}") from None
    return cores


def sweep_reports(budget: int) -> Iterator[ConsistencyReport]:
    """check() on every orbit of every dims within budget, yielded in the
    order of sweep_dims then enumerate_rank_arrays; parallel over orbits.

    The pool takes the orbits in contiguous chunks, about eight per
    worker: the pool's cost per task (a pickled call and a round trip)
    is paid per chunk, not per orbit.  A chunk spans a run of
    consecutive dims, and its worker fills each one's per-dims caches
    once: at budget 6 on two workers, the 551 orbits of 60 dims go in
    chunks of 34, over 1 to 15 dims each.  Eight chunks a worker are
    small enough that the heaviest dims, last in sweep_dims, still
    spread over every worker.  A report is yielded as soon as it and
    every report before it are done, so a consumer that drops each
    one holds one at a time, not the whole sweep.  check is looked up
    when the sweep starts, so a replacement of engine.check is used.
    """
    ranks = [
        r for dims in sweep_dims(budget) for r in enumerate_rank_arrays(dims)
    ]
    workers = worker_count()
    if workers <= 1 or len(ranks) <= 1:
        yield from map(check, ranks)
        return
    chunk = max(1, len(ranks) // (8 * workers))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(check, ranks, chunksize=chunk)


def sweep(budget: int) -> list[ConsistencyReport]:
    """Every report of sweep_reports(budget), as a list."""
    return list(sweep_reports(budget))
