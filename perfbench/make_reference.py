"""Regenerate reference.json: SHA-256 digests of every benchmarked output.

Run from the repository root, on the commit whose outputs are to be
trusted:

    python3 perfbench/make_reference.py

For each sweep orbit it stores the digests of the quiver polynomial and
the CSM class; for each orbit of the csm_mid and qpoly_large pools the
digest of the requested class and its number of terms (the size that
orders the pool by size).  Every value is computed by the pd method
and cross-checked against the ratio method.  Takes a few minutes.
"""

from __future__ import annotations

import json
import os
import subprocess

from common import REFERENCE, ROOT, WORKLOADS, digest, load_program, orbit_key, pool, read_json


def main():
    qcalc = load_program()
    engine = qcalc.engine
    fmt = qcalc.format_poly
    spec = read_json(WORKLOADS)
    out = {"format": "sha256 of format_poly(p) in ascii style"}
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        ).stdout.strip()
        out["generated_at"] = commit
    except (OSError, subprocess.CalledProcessError):
        pass

    os.environ["QCALC_THREADS"] = str(spec["sweep"]["workers"])
    sweep = {}
    for report in engine.sweep(spec["sweep"]["budget"]):
        if not report.ok:
            raise SystemExit(f"sweep report not ok for {orbit_key(report.rank)}")
        sweep[orbit_key(report.rank)] = [
            digest(fmt(report.polynomials["qpoly_pd"])),
            digest(fmt(report.polynomials["csm_pd"])),
        ]
    out["sweep"] = sweep

    for name in ("csm_mid", "qpoly_large"):
        w = spec[name]
        table = {}
        for r in pool(qcalc, w["dims"]):
            p = engine.compute(r, w["target"], "pd")
            if p != engine.compute(r, w["target"], "ratio"):
                raise SystemExit(f"{name}: pd and ratio differ on {orbit_key(r)}")
            table[orbit_key(r)] = [digest(fmt(p)), len(p.terms)]
            print(name, orbit_key(r), len(p.terms), flush=True)
        out[name] = table

    with open(REFERENCE, "w") as fh:
        json.dump(out, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
