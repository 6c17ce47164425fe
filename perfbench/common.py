"""Shared helpers: locating the program's source, orbit keys, digests."""

from __future__ import annotations

import hashlib
import importlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = HERE / "workloads.json"
REFERENCE = HERE / "reference.json"


class MissingSource(Exception):
    """The checkout holds no src/qcalc to benchmark."""


def load_program():
    """Import qcalc from the checkout's own src/ and return the package.

    Refuses to fall back on any other installed copy, so the benchmark
    always measures the source next to it.
    """
    if not (SRC / "qcalc" / "__init__.py").is_file():
        raise MissingSource(f"no qcalc package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    qcalc = importlib.import_module("qcalc")
    if Path(qcalc.__file__).resolve().parent != SRC / "qcalc":
        raise MissingSource(f"qcalc was imported from {qcalc.__file__}, not {SRC}")
    importlib.import_module("qcalc.cli")
    return qcalc


def unload_program():
    """Drop every qcalc module, so the next load_program() imports afresh."""
    for name in [m for m in sys.modules if m == "qcalc" or m.startswith("qcalc.")]:
        del sys.modules[name]


def orbit_key(r) -> str:
    """'2,2,1|1,0,1': dims, then the off-diagonal ranks in dims.pairs() order."""
    dims = r.dims
    ranks = [r[i, j] for i, j in dims.pairs() if i != j]
    return ",".join(map(str, dims.r)) + "|" + ",".join(map(str, ranks))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def read_json(path: Path):
    with open(path) as fh:
        return json.load(fh)


def pool(qcalc, dims_list) -> list:
    """Every orbit of the listed dims, in enumeration order."""
    return [
        r
        for dims in dims_list
        for r in qcalc.enumerate_rank_arrays(qcalc.Dims(tuple(dims)))
    ]


def sweep_pool(qcalc, budget: int) -> list:
    """The orbits engine.sweep(budget) checks, in its order."""
    engine = qcalc.engine
    return [
        r
        for dims in engine.sweep_dims(budget)
        for r in qcalc.enumerate_rank_arrays(dims)
    ]
