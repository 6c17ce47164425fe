"""The benchmark's workloads: inputs, passes, output checks, metrics.

build() makes a workload's inputs from the freshly imported package:
the one round of work that every pass sends, and the warm-up that
fills the package's per-dims caches.  run_pass() sends the round
through the public entry points, checks every output as soon as it
arrives (outside the timed region, with tracing paused) and keeps only
latencies and failure counts, so no output outlives its check.

A run repeats the round `passes` times.  Every call is timed with
probes of the host's speed around it and scaled to nominal speed
(hostspeed.py).  Each latency metric is taken over the median scaled
time of every request across the passes, and each throughput over the
median scaled time of the round.
"""

from __future__ import annotations

import contextlib
import math
import os
import statistics
from dataclasses import dataclass, field
from time import perf_counter

import hostspeed
from common import HERE, digest, orbit_key, pool, sweep_pool

METHODS = ("pd", "cgpd", "ratio")


def quantile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a weighted mean of all
    order statistics, with Beta(q(n+1), (1-q)(n+1)) weights.  It tracks
    the sample quantile but does not jump with the one or two samples
    that happen to sit in the middle, so it varies less between runs.
    The Beta integral over each order statistic's interval is summed on
    a fine grid, in log space."""
    x = sorted(values)
    n = len(x)
    if n == 1:
        return x[0]
    a, b = q * (n + 1), (1 - q) * (n + 1)
    k = max(8, 8000 // n)  # grid points per interval
    logs = [
        (a - 1) * math.log(t) + (b - 1) * math.log1p(-t)
        for t in ((j + 0.5) / (n * k) for j in range(n * k))
    ]
    top = max(logs)
    weights = [0.0] * n
    for j, lg in enumerate(logs):
        weights[j // k] += math.exp(lg - top)
    return sum(w * v for w, v in zip(weights, x)) / sum(weights)


class Reference:
    """SHA-256 digests of trusted outputs, keyed by orbit (and target)."""

    def __init__(self, digests: dict[str, str], format_poly):
        self.digests = digests
        self.format_poly = format_poly

    def check(self, key: str, poly) -> str | None:
        """The output's digest if it matches the reference, else None.
        Outputs are compared by these digests only, never by the
        package's own equality or hash."""
        found = digest(self.format_poly(poly))
        return found if found == self.digests.get(key) else None


@dataclass
class Work:
    """The round: the orbits (rank arrays, or sweep keys) and, for query
    workloads, the requests as (orbit index, method)."""

    orbits: list
    requests: list | None = None


@dataclass
class Inputs:
    round: Work
    warm: Work | None = None


@dataclass
class Pass:
    wall_s: float = 0.0  # as measured
    scaled_s: float = 0.0  # at the host's nominal speed
    attempted: int = 0  # outputs checked
    failed: int = 0
    # label -> item -> scaled latency in ms; label "all" holds every
    # item, the other labels one method each
    ms: dict[str, dict] = field(default_factory=dict)
    formulas_s: float = 0.0  # sweep: sum of check()'s own timings_ms

    def add(self, label: str, item, ms: float):
        self.ms.setdefault(label, {})[item] = ms


def _paused(tracer):
    return tracer.paused() if tracer is not None else contextlib.nullcontext()


def _evenly(items: list, n: int) -> list:
    """n items spread evenly over the list, in its order."""
    n = min(n, len(items))
    return [items[(2 * i + 1) * len(items) // (2 * n)] for i in range(n)]


class QueryWorkload:
    """Closed loop, one client: compute(r, target, method) requests."""

    def __init__(self, name: str, spec: dict, reference: dict):
        self.name = name
        self.target = spec["target"]
        self.methods = spec["methods"]
        self.dims = spec["dims"]
        self.sizes = spec["sizes"]
        self.orbits = spec["orbits"]
        side = spec.get("cgpd_side")  # cgpd-only requests on one dims
        self.side_dims = tuple(side["dims"]) if side else None
        self.side_orbits = side["orbits"] if side else 0
        self.passes = spec["passes"]
        self.table = reference[name]  # key -> [digest, terms]

    def build(self, qcalc) -> Inputs:
        """The warm-up sends the smallest orbit of each dims by every
        method of the workload (and the smallest orbit of the cgpd side
        dims by cgpd).  The round takes `orbits` orbits spread evenly
        over the lower `sizes` share of the rest of the pool sorted by
        output size, by every method, and, where the workload has a cgpd
        side stream, cgpd alone on `side_orbits` orbits spread evenly
        over that dims in size order."""
        keyed = sorted(
            ((self.table[orbit_key(r)][1], orbit_key(r), r) for r in pool(qcalc, self.dims)),
            key=lambda t: (t[0], t[1]),
        )
        smallest, seen = [], set()
        for _, _, r in keyed:
            if r.dims.r not in seen:
                seen.add(r.dims.r)
                smallest.append(r)
        side = [r for _, _, r in keyed if r.dims.r == self.side_dims]
        warm = self._work(smallest, side[:1])
        rest = [r for _, _, r in keyed if not any(r is w for w in warm.orbits)]
        round_ = self._work(
            _evenly(rest[: round(len(rest) * self.sizes)], self.orbits),
            _evenly(side[1:], self.side_orbits),
        )
        return Inputs(round_, warm)

    def _work(self, orbits: list, cgpd_only: list) -> Work:
        """Every method of the workload on each orbit, then cgpd alone on
        each orbit of cgpd_only."""
        requests = [(i, m) for i in range(len(orbits)) for m in self.methods]
        requests += [(len(orbits) + j, "cgpd") for j in range(len(cgpd_only))]
        return Work(orbits + cgpd_only, requests)

    def reference(self, qcalc) -> Reference:
        digests = {key: value[0] for key, value in self.table.items()}
        return Reference(digests, qcalc.format_poly)

    def run_pass(self, qcalc, work: Work, ref: Reference, order, tracer=None) -> Pass:
        """The requests in the given order.  The client sends the next
        request as soon as the previous one is checked, so the pass's
        time is the sum of request latencies.  A request fails when it
        raised, its digest differs, its degree is wrong (qpoly), or its
        digest differs from that of the pd output of the same orbit (if
        pd was requested)."""
        compute = qcalc.engine.compute
        target = self.target
        run = Pass(attempted=len(order))
        seen: dict[int, dict[str, str | None]] = {}  # orbit -> method -> digest
        for idx in order:
            i, method = work.requests[idx]
            r = work.orbits[i]
            if tracer is not None:
                tracer.request = f"{orbit_key(r)}:{method}"
            before = hostspeed.probe()
            start = perf_counter()
            try:
                out = compute(r, target, method)
            except Exception:  # counted as a failed request
                out = None
            ms = (perf_counter() - start) * 1000.0
            scaled = hostspeed.scale(ms, before, hostspeed.probe())
            with _paused(tracer):
                found = None
                if out is not None and (target != "qpoly" or out.degree() == _codim(qcalc, r)):
                    found = ref.check(orbit_key(r), out)
                seen.setdefault(i, {})[method] = found
            run.wall_s += ms / 1000.0
            run.scaled_s += scaled / 1000.0
            run.add("all", idx, scaled)
            run.add(method, idx, scaled)
        for outs in seen.values():
            anchor = outs["pd"] if "pd" in outs else next(iter(outs.values()))
            run.failed += sum(1 for d in outs.values() if d is None or d != anchor)
        return run

    def round_s(self, passes: list[Pass], typical: dict) -> float:
        """One client, back to back: the round's time is the sum of the
        median latency of every request."""
        return sum(typical["all"].values()) / 1000.0

    def counts(self, work: Work) -> tuple[int, int]:
        """Orbits and formula evaluations in one round."""
        return len(work.orbits), len(work.requests)


def _codim(qcalc, r) -> int:
    """l(z(r)) - |D_Hom|, the degree of the quiver polynomial."""
    bp = qcalc.blockperm
    z = bp.zelevinsky_permutation(r)
    return bp.length(z) - len(bp.regions(r.dims).dhom_cells)


# The sweep's clock.  clock_on() points engine.check, and every formula
# in engine's method tables, at wrappers that time each call and append
# "<orbit key> <label> <ms>" to a file opened with O_APPEND.  The pool
# workers fork from this process after the wrappers are in place, so
# they write to the same file; the pool pickles the wrapped check by
# name, as timed_check of this module.  Each worker probes the host's
# speed after every check() call, and before its first one; the check
# line also carries the mean probe time around the call ("speed") and
# the time spent probing for it ("probe").
_clock = {"fd": None, "check": None, "tables": None, "probe": None}


def timed_check(r):
    start = perf_counter()
    before = _clock["probe"]
    if before is None:
        before = hostspeed.probe()
    probing = perf_counter() - start
    start = perf_counter()
    report = _clock["check"](r)
    ms = (perf_counter() - start) * 1000.0
    start = perf_counter()
    after = _clock["probe"] = hostspeed.probe()
    probing += perf_counter() - start
    _write(r, "all", ms)
    _write(r, "speed", (before + after) / 2.0)
    _write(r, "probe", probing * 1000.0)
    return report


def _write(r, label: str, ms: float):
    os.write(_clock["fd"], f"{orbit_key(r)} {label} {ms!r}\n".encode())


def _timed_formula(label: str, fn):
    def formula(r):
        start = perf_counter()
        out = fn(r)
        _write(r, label, (perf_counter() - start) * 1000.0)
        return out

    return formula


def clock_on(engine, path):
    tables = {"qpoly": engine.QPOLY_METHODS, "csm": engine.CSM_METHODS}
    _clock["fd"] = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC | os.O_APPEND)
    _clock["check"] = engine.check
    _clock["probe"] = None
    _clock["tables"] = {t: dict(table) for t, table in tables.items()}
    engine.check = timed_check
    for target, table in tables.items():
        for method, fn in list(table.items()):
            table[method] = _timed_formula(f"{target}_{method}", fn)


def clock_off(engine, path) -> dict[str, dict[str, float]]:
    """Restore the engine and return orbit key -> label -> value."""
    engine.check = _clock["check"]
    engine.QPOLY_METHODS.update(_clock["tables"]["qpoly"])
    engine.CSM_METHODS.update(_clock["tables"]["csm"])
    os.close(_clock["fd"])
    times: dict[str, dict[str, float]] = {}
    with open(path) as fh:
        for line in fh:
            key, label, ms = line.split()
            times.setdefault(key, {})[label] = float(ms)
    os.unlink(path)
    return times


class SweepWorkload:
    """engine.sweep(budget) on a fixed number of pool workers.  No
    warm-up: the workers fork from a process that computes nothing, so
    every sweep starts with empty caches."""

    FORMULAS = 6  # check() computes both targets by all three methods

    def __init__(self, name: str, spec: dict, reference: dict):
        self.name = name
        self.budget = spec["budget"]
        self.workers = spec["workers"]
        self.passes = spec["passes"]
        self.table = reference[name]  # key -> [qpoly digest, csm digest]

    def build(self, qcalc) -> Inputs:
        """The orbits the sweep must report, in its order."""
        return Inputs(Work([orbit_key(r) for r in sweep_pool(qcalc, self.budget)]))

    def reference(self, qcalc) -> Reference:
        digests = {}
        for key, (qpoly, csm) in self.table.items():
            digests["qpoly:" + key] = qpoly
            digests["csm:" + key] = csm
        return Reference(digests, qcalc.format_poly)

    def run_pass(self, qcalc, work: Work, ref: Reference, order=None, tracer=None,
                 workers=None, clock=False) -> Pass:
        """One sweep.  An orbit fails when it is missing, its report is
        not ok, or the digest of any of its six polynomials differs.
        With clock, the latency of an orbit is the time of its check()
        call, and its latency per method that of the method's two
        formulas, all timed by the benchmark's clock in the workers and
        scaled by the probes around the check() call.  The sweep's
        scaled time is its wall time less the probing (shared out over
        the workers), times the ratio of the orbits' scaled to measured
        check() times."""
        engine = qcalc.engine
        keys = work.orbits
        workers = workers or self.workers
        os.environ["QCALC_THREADS"] = str(workers)
        path = HERE / "out" / f"clock-{os.getpid()}.txt"
        if clock:
            path.parent.mkdir(exist_ok=True)
            clock_on(engine, path)
        start = perf_counter()
        try:
            reports = engine.sweep(self.budget)
        except Exception:  # the whole pass counts as failed
            reports = []
        finally:
            wall_s = perf_counter() - start
            times = clock_off(engine, path) if clock else {}
        run = Pass(wall_s=wall_s, scaled_s=wall_s, attempted=len(keys))
        measured = scaled = probing = 0.0
        with _paused(tracer):
            if len(reports) != len(keys):
                run.failed = len(keys)
                return run
            for key, report in zip(keys, reports):
                run.formulas_s += sum(report.timings_ms.values()) / 1000.0
                good = orbit_key(report.rank) == key and report.ok and all(
                    ref.check(f"{target}:{key}", report.polynomials[f"{target}_{method}"])
                    for target in ("qpoly", "csm")
                    for method in METHODS
                )
                if clock:
                    ms = times.get(key, {})
                    labels = ["all", "speed", "probe"]
                    labels += [f"{t}_{m}" for t in ("qpoly", "csm") for m in METHODS]
                    good = good and all(label in ms for label in labels)
                    if good:
                        factor = hostspeed.NOMINAL_MS / ms["speed"]
                        run.add("all", key, ms["all"] * factor)
                        for method in METHODS:
                            run.add(method, key, (ms[f"qpoly_{method}"] + ms[f"csm_{method}"]) * factor)
                        measured += ms["all"]
                        scaled += ms["all"] * factor
                        probing += ms["probe"]
                run.failed += not good
        if measured:
            run.scaled_s = (wall_s - probing / 1000.0 / workers) * scaled / measured
        return run

    def round_s(self, passes: list[Pass], typical: dict) -> float:
        """The pool runs orbits side by side: the median scaled time of
        a whole sweep."""
        return statistics.median(p.scaled_s for p in passes)

    def counts(self, work: Work) -> tuple[int, int]:
        return len(work.orbits), self.FORMULAS * len(work.orbits)


def metrics(wl, work: Work, passes: list[Pass]) -> tuple[dict, int]:
    """Latencies over the median scaled time of every request across
    the passes: p50 and p90 (Harrell-Davis) over all of them, and p50
    per method.  Throughputs over the median scaled time of the round.
    Returns the metrics and the number of requests the latencies are
    taken over."""
    samples: dict[str, dict] = {}
    for p in passes:
        for label, items in p.ms.items():
            for item, ms in items.items():
                samples.setdefault(label, {}).setdefault(item, []).append(ms)
    typical = {
        label: {item: statistics.median(ms) for item, ms in items.items()}
        for label, items in samples.items()
    }
    wall = wl.round_s(passes, typical)
    orbits, queries = wl.counts(work)
    out = {"orbits_per_s": orbits / wall, "queries_per_s": queries / wall}
    lat = list(typical.get("all", {}).values())
    if lat:
        out["latency_p50_ms"] = quantile(lat, 0.5)
        out["latency_p90_ms"] = quantile(lat, 0.9)
    for method in METHODS:
        if typical.get(method):
            out[f"latency_p50_ms.{method}"] = quantile(list(typical[method].values()), 0.5)
    return out, len(lat)


def make(name: str, spec: dict, reference: dict):
    kind = spec[name]["kind"]
    cls = SweepWorkload if kind == "sweep" else QueryWorkload
    return cls(name, spec[name], reference)
