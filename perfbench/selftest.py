"""Self-test of the benchmark at minimal size.

Run from the repository root:

    python3 perfbench/selftest.py          # smoke size, a few minutes
    python3 perfbench/selftest.py --full   # adds the count check at full size

It copies BENCHMARK.json, perfbench/ and src/ under perfbench/out/,
with a workloads.json of smoke size, and runs run.py there exactly as a
benchmark run does.  For every workload it checks that

- the untraced and the traced run print every metric BENCHMARK.json
  names, with its unit, both as a text line and in the final JSON, plus
  error_rate, and that every output is correct;
- in a copy whose reference.json holds one wrong digest, for an orbit
  of the measured round, that output is counted as failed;
- two traced runs with one seed give identical exact counts;

and that run.py, in a copy holding only BENCHMARK.json and perfbench/,
exits non-zero without printing a result.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys

import workloads
from common import HERE, REFERENCE, ROOT, WORKLOADS, load_program, orbit_key, read_json

EXACT_COUNTS = (
    "poly.add.terms_copied",
    "blockperm.length.calls",
    "cgpd.tilings_tried",
    "pipedream.dreams",
)


class Failure(Exception):
    pass


def expect(cond: bool, message: str):
    if not cond:
        raise Failure(message)


def smoke(spec: dict) -> dict:
    """The workloads at minimal size: a budget-3 sweep, query rounds of
    two orbits (one cgpd side orbit), two passes each."""
    out = json.loads(json.dumps(spec))
    for w in out.values():
        if w.get("kind") == "sweep":
            w["budget"] = 3
        elif w.get("kind") == "queries":
            w["orbits"] = 2
            if "cgpd_side" in w:
                w["cgpd_side"]["orbits"] = 1
        if "kind" in w:
            w["passes"] = 2
    return out


def copy_tree(name: str, program: bool = True):
    """BENCHMARK.json and perfbench/ (and src/ if program) copied to a
    fresh directory under perfbench/out/selftest/."""
    dest = HERE / "out" / "selftest" / name
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    ignore = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(HERE, dest / "perfbench", ignore=ignore)
    if program:
        shutil.copytree(ROOT / "src", dest / "src", ignore=ignore)
    return dest


def write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)


def corrupt(root, workload: str, spec: dict):
    """Make the reference digest of the first orbit of the workload's
    round wrong in the copy at root."""
    qcalc = load_program()
    reference = read_json(REFERENCE)
    first = workloads.make(workload, spec, reference).build(qcalc).round.orbits[0]
    key = first if isinstance(first, str) else orbit_key(first)
    value = reference[workload][key][0]
    reference[workload][key][0] = ("0" if value[0] != "0" else "1") + value[1:]
    write_json(root / "perfbench" / "reference.json", reference)


def run(root, workload: str, trace: int, seed: int = 3):
    cmd = [
        sys.executable, "perfbench/run.py",
        "--workload", workload, "--seed", str(seed), "--seconds", "1",
        "--trace", str(trace),
    ]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=900)


def parse(proc, label: str):
    expect(proc.returncode == 0, f"{label}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    printed = {}
    for line in lines:
        if line.startswith("metric "):
            _, name, value, unit = line.split()
            printed[name] = (float(value), unit)
    return result, printed


def check_metrics(label: str, result: dict, printed: dict, wanted: dict):
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys {sorted(result)}")
    expect("error_rate" in printed, f"{label}: error_rate not printed")
    expect(set(result["metrics"]) == set(wanted), f"{label}: JSON metrics differ from BENCHMARK.json")
    for name, unit in wanted.items():
        expect(printed.get(name, (None, None))[1] == unit, f"{label}: {name} not printed in {unit}")
        expect(result["metrics"][name]["unit"] == unit, f"{label}: {name} has the wrong unit in the JSON")


def check_workload(workload: str, bench: dict, small, bad, full: bool):
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        wanted = {m["name"]: m["unit"] for m in bench[group]}
        label = f"{workload} trace {trace}"
        result, printed = parse(run(small, workload, trace), label)
        check_metrics(label, result, printed, wanted)
        expect(result["correct"] and result["failed"] == 0, f"{label}: outputs not correct")
        expect(result["attempted"] >= 1, f"{label}: nothing attempted")
        print(f"ok   {label}: {len(wanted)} metrics with units, {result['attempted']} outputs correct")

    label = f"{workload} corrupt digest"
    result, printed = parse(run(bad, workload, 0), label)
    expect(not result["correct"], f"{label}: a wrong digest passed")
    expect(0 < result["failed"] < result["attempted"], f"{label}: failed {result['failed']} of {result['attempted']}")
    expect(printed["error_rate"][0] > 0, f"{label}: error_rate is 0")
    print(f"ok   {label}: {result['failed']} of {result['attempted']} outputs counted as failed")

    roots = (("smoke", small), ("full", ROOT)) if full else (("smoke", small),)
    for size, root in roots:
        label = f"{workload} {size} counts"
        runs = [parse(run(root, workload, 1), label)[0]["metrics"] for _ in range(2)]
        for name in EXACT_COUNTS:
            a, b = (m[name]["value"] for m in runs)
            expect(a == b, f"{label}: {name} {a} != {b}")
        print(f"ok   {label}: " + ", ".join(f"{n}={runs[0][n]['value']}" for n in EXACT_COUNTS))


def check_bare_directory():
    """Only BENCHMARK.json and perfbench/: the run must fail cleanly."""
    proc = run(copy_tree("bare", program=False), "csm_mid", 0)
    expect(proc.returncode != 0, "bare directory: run.py exited 0")
    expect('"correct"' not in proc.stdout, "bare directory: a result was printed")
    print(f"ok   bare directory: exit {proc.returncode}, no result")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--full", action="store_true", help="also check counts at full size")
    args = parser.parse_args()
    bench = read_json(ROOT / "BENCHMARK.json")
    spec = smoke(read_json(WORKLOADS))
    small, bad = copy_tree("smoke"), copy_tree("corrupt")
    write_json(small / "perfbench" / "workloads.json", spec)
    write_json(bad / "perfbench" / "workloads.json", spec)
    try:
        for w in bench["workloads"]:
            corrupt(bad, w["name"], spec)
            check_workload(w["name"], bench, small, bad, args.full)
        check_bare_directory()
    except Failure as exc:
        print(f"FAIL {exc}")
        return 1
    finally:
        shutil.rmtree(HERE / "out" / "selftest", ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
