"""qcalc benchmark: one workload per run, every metric by name and unit.

Run from the repository root:

    python3 perfbench/run.py --workload csm_mid --seed 1 --trace 0

--trace 0 measures the end-to-end metrics with tracing off: the
workload's round, `passes` times (workloads.json).  --trace 1 is the
separate traced run: the round once untraced, then again with every
public function of the package wrapped, giving the per-layer metrics,
the tracing overhead and a span file under perfbench/out/.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pickle
import random
import resource
import statistics
import sys
import traceback
from time import perf_counter

import hostspeed
import tracer as tracing
import workloads
from common import HERE, REFERENCE, ROOT, WORKLOADS, MissingSource, load_program, read_json, unload_program

SETUP_REPEATS = 5


def shuffled(work, rng):
    """A seeded order of the round's requests (None for a sweep)."""
    if work.requests is None:
        return None
    order = list(range(len(work.requests)))
    rng.shuffle(order)
    return order


def setup(wl, repeats: int):
    """Import the package, build the inputs and warm the per-dims caches,
    `repeats` times from a clean import.  Returns the last package,
    inputs, reference and warm-up pass, with the median time, scaled
    by the host's speed probed before and after each set-up."""
    times = []
    for _ in range(repeats):
        unload_program()
        gc.collect()
        before = hostspeed.probe()
        start = perf_counter()
        qcalc = load_program()
        inputs = wl.build(qcalc)
        elapsed = perf_counter() - start
        ref = wl.reference(qcalc)
        start = perf_counter()
        warm = warm_up(wl, qcalc, inputs, ref)
        elapsed += perf_counter() - start
        times.append(hostspeed.scale(elapsed, before, hostspeed.probe()))
    return qcalc, inputs, ref, warm, statistics.median(times)


def warm_up(wl, qcalc, inputs, ref, tracer=None):
    if inputs.warm is None:
        return None
    order = list(range(len(inputs.warm.requests)))
    return wl.run_pass(qcalc, inputs.warm, ref, order, tracer=tracer)


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def in_child(fn):
    """fn() in a forked child; returns its result, or None if the child
    failed.  Whatever the pass leaves in the package's memory (a cache of
    results, say) dies with the child, so no pass sees another's outputs."""
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(rfd)
        code = 1
        try:
            with os.fdopen(wfd, "wb") as fh:
                pickle.dump(fn(), fh)
            code = 0
        except BaseException:  # the child must never unwind into the parent's code
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(wfd)
    with os.fdopen(rfd, "rb") as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    return pickle.loads(data) if status == 0 and data else None


def measure(wl, qcalc, inputs, ref, seed: int):
    """The round `passes` times, back to back.  A query pass runs in a
    child forked from the warmed-up process; a sweep forks its own pool
    workers.  Each pass sends the requests in a fresh seeded order."""
    rng = random.Random(seed)
    work = inputs.round
    passes = []
    for _ in range(wl.passes):
        order = shuffled(work, rng)
        if isinstance(wl, workloads.SweepWorkload):
            run = wl.run_pass(qcalc, work, ref, clock=True)
        else:
            run = in_child(lambda: wl.run_pass(qcalc, work, ref, order))
            if run is None:  # the child died: every request failed
                run = workloads.Pass(attempted=len(order), failed=len(order))
        passes.append(run)
    metrics, samples = workloads.metrics(wl, work, passes)
    metrics["peak_rss_mb"] = peak_rss_mb()
    info = {
        "passes": len(passes),
        "requests": samples,
        "pass_wall_s": " ".join(f"{p.wall_s:.3f}" for p in passes),
        "pass_scaled_s": " ".join(f"{p.scaled_s:.3f}" for p in passes),
    }
    return metrics, passes, info


def traced(wl, qcalc, inputs, ref, seed: int, trace_path):
    """The round untraced, then traced; before each, the caches are
    emptied and warmed up again untraced.  A sweep runs in-process
    (QCALC_THREADS=1) for both, so its counts do not depend on how the
    pool shares orbits out, and a 2-worker sweep gives the efficiency."""
    work = inputs.round
    order = shuffled(work, random.Random(seed))
    extra = {}
    runs = []
    in_process = {}
    if isinstance(wl, workloads.SweepWorkload):
        in_process = {"workers": 1}
        tracing.clear_caches(qcalc)
        pooled = wl.run_pass(qcalc, work, ref)
        runs.append(pooled)

    tracing.clear_caches(qcalc)
    runs.append(warm_up(wl, qcalc, inputs, ref))
    plain = wl.run_pass(qcalc, work, ref, order, **in_process)
    if in_process:
        extra["engine.parallel_efficiency"] = plain.wall_s / (wl.workers * pooled.wall_s)

    tracing.clear_caches(qcalc)
    runs.append(warm_up(wl, qcalc, inputs, ref))
    tr = tracing.Tracer()
    tracing.install(tr, qcalc)
    tr.on = True
    tr.request = "setup"
    wl.build(qcalc)  # traced only to count the quiver enumeration
    run = wl.run_pass(qcalc, work, ref, order, tracer=tr, **in_process)
    tr.on = False
    runs += [plain, run]
    extra["engine.formulas.s"] = run.formulas_s

    extra["trace.untraced_s"] = plain.wall_s
    extra["trace.traced_s"] = run.wall_s
    metrics = layer_metrics(tr, extra)
    tr.write(trace_path, {"workload": wl.name, "seed": seed, "metrics": metrics})
    return metrics, runs, {"spans": len(tr.spans), "trace_file": str(trace_path)}


def layer_metrics(tr, extra: dict) -> dict:
    calls, incl, self_s, counts = tr.calls, tr.incl, tr.self_s, tr.counts
    tried = counts.get("cgpd.tilings_tried", 0)
    valid = counts.get("cgpd.diagrams_valid", 0)
    check_s = incl.get("engine.check", 0.0)
    formulas_s = extra.get("engine.formulas.s", 0.0)
    m = {
        "poly.add.calls": calls.get("poly.add", 0),
        "poly.add.s": incl.get("poly.add", 0.0),
        "poly.add.terms_copied": counts.get("poly.add.terms_copied", 0),
        "poly.mul.calls": calls.get("poly.mul", 0),
        "poly.mul.s": incl.get("poly.mul", 0.0),
        "poly.divide.calls": calls.get("poly.divide", 0),
        "poly.divide.s": incl.get("poly.divide", 0.0),
        "blockperm.subword.calls": calls.get("blockperm.subword", 0),
        "blockperm.subword.s": self_s.get("blockperm.subword#", 0.0),
        "blockperm.subword.yielded": counts.get("blockperm.subword.yielded", 0),
        "blockperm.length.calls": calls.get("blockperm.length", 0),
        "blockperm.perm_set.s": incl.get("blockperm.perm_set", 0.0),
        "blockperm.perm_set.size": counts.get("blockperm.perm_set.size", 0),
        "pipedream.dreams": counts.get("pipedream.locus.yielded", 0),
        "pipedream.weight.s": incl.get("pipedream.weight", 0.0),
        "cgpd.enumerate.s": incl.get("cgpd.enumerate", 0.0),
        "cgpd.tilings_tried": tried,
        "cgpd.diagrams_valid": valid,
        "cgpd.yield": valid / tried if tried else 0.0,
        "engine.check.s": check_s,
        "engine.formulas.s": formulas_s,
        "engine.counts.s": check_s - formulas_s if check_s else 0.0,
        "engine.parallel_efficiency": extra.get("engine.parallel_efficiency", 0.0),
        "quiver.enumerate.s": incl.get("quiver.enumerate", 0.0),
        "quiver.lace_array.calls": calls.get("quiver.lace_array", 0),
    }
    for layer in tracing.LAYERS:
        m[f"{layer}.self_s"] = tr.layer_self(layer)
    m["trace.untraced_s"] = extra["trace.untraced_s"]
    m["trace.traced_s"] = extra["trace.traced_s"]
    m["trace.overhead_s"] = extra["trace.traced_s"] - extra["trace.untraced_s"]
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    spec = read_json(WORKLOADS)
    names = [k for k, v in spec.items() if "kind" in v]
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="accepted for the harness; the work of a run is fixed by the "
        "workload's passes in workloads.json",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bench = read_json(ROOT / "BENCHMARK.json")
    group = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in bench[group]}

    wl = workloads.make(args.workload, spec, read_json(REFERENCE))
    try:
        qcalc, inputs, ref, warm, setup_s = setup(wl, 1 if args.trace else SETUP_REPEATS)
    except MissingSource as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    # the benchmark's own tables stay out of the collector's way
    gc.collect()
    gc.freeze()

    if args.trace:
        path = HERE / "out" / f"trace-{args.workload}-seed{args.seed}.json"
        metrics, runs, info = traced(wl, qcalc, inputs, ref, args.seed, path)
    else:
        metrics, runs, info = measure(wl, qcalc, inputs, ref, args.seed)
        metrics["setup_s"] = setup_s
    runs = [p for p in [warm, *runs] if p is not None]
    attempted = sum(p.attempted for p in runs)
    failed = sum(p.failed for p in runs)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for key, value in info.items():
        print(f"info {key} {value}")
    print(f"metric error_rate {failed / attempted if attempted else 1.0:.6g} ratio")
    missing = [name for name in units if name not in metrics]
    for name, unit in units.items():
        if name in metrics:
            value = metrics[name]
            shown = f"{value:.6g}" if isinstance(value, float) else value
            print(f"metric {name} {shown} {unit}")
    for name in missing:
        print(f"missing metric {name}", file=sys.stderr)
    result = {
        "correct": failed == 0 and not missing,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
            if name in metrics
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    os.chdir(ROOT)
    sys.exit(main())
