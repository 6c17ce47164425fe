"""Command-line front end: qcalc.

Subcommands: lace, zperm, qpoly, csm, enum, check, sweep, render.
Inputs are JSON, given as a file path or inline; see quiver.parse_input
for the rank/lace schema.  Exit codes: 0 success, 1 input error (the
message names the offending entry or flag), 2 a consistency check or
sweep found a disagreement, 141 (silently) the reader of stdout closed
it early.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter

from . import engine, quiver
from .blockperm import perm_count, perm_set, zelevinsky_permutation
from .cgpd import CGPD, enumerate_cgpd
from .pipedream import PipeDream, enumerate_pipe_dreams
from .poly import format_poly
from .quiver import (
    Dims,
    LaceArray,
    lace_array,
    parse_dims,
    parse_input,
    representative,
    zelevinsky_matrix,
)


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems on the input-error exit code."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _load_json(text: str) -> dict:
    """Inline JSON or a file's; a key repeated in one object is an error."""
    if text.lstrip()[:1] in ("{", "["):
        return json.loads(text, object_pairs_hook=quiver.unique_keys)
    with open(text, encoding="utf-8") as handle:
        return json.load(handle, object_pairs_hook=quiver.unique_keys)


def _perm_text(v: tuple) -> str:
    if len(v) <= 9:
        return "".join(str(k) for k in v)
    return ",".join(str(k) for k in v)


# -- rendering --------------------------------------------------------------

def render_lacing(s: LaceArray) -> str:
    """Rows of vertices, one row per level, joined by lace edges.

    A '|' joins equal positions, '/' and '\\' mark a step left or right;
    vertex columns follow the representative's basis order.
    """
    dims = s.dims
    phi = representative(s).phi
    width = 2 * max(dims.r) - 1
    lines = []
    for i in range(dims.n + 1):
        row = [" "] * width
        for idx in range(dims.r[i]):
            row[2 * idx] = "*"
        lines.append("".join(row).rstrip())
        if i == dims.n:
            break
        link = [" "] * width
        for b, row in enumerate(phi[i]):  # basis a at level i -> b at i + 1
            for a, x in enumerate(row):
                if x:
                    link[a + b] = "|" if a == b else ("\\" if b > a else "/")
        lines.append("".join(link).rstrip())
    return "\n".join(lines)


def render_pipedream(dream: PipeDream) -> str:
    """The d x d grid, '+' at crosses and '.' elsewhere, with rules
    between the blocks of dims (a single block draws none)."""
    dims, crosses, d = dream.dims, dream.crosses, dream.dims.d
    cut = [p < d and dims.cols[p - 1][0] != dims.cols[p][0] for p in range(1, d + 1)]
    lines = []
    for q in range(1, d + 1):
        lines.append("".join(
            ("+" if (q, p) in crosses else ".") + ("|" if after else "")
            for p, after in enumerate(cut, start=1)
        ))
        if q < d and dims.rows[q - 1][0] != dims.rows[q][0]:
            lines.append("".join("-+" if after else "-" for after in cut))
    return "\n".join(lines)


def render_cgpd(delta: CGPD) -> str:
    """The chain of rectangles laid out northeast to southwest: rectangle
    i fills block (i, i + 1) of the d x d grid, whose rows of block n
    and columns of block 0 hold no rectangle and are left out."""
    dims = delta.dims
    return "\n".join(
        "".join(delta.grids[i][a - 1][b - 1] if j == i + 1 else " " for j, b in dims.cols).rstrip()
        for i, a in dims.rows
        if i < dims.n
    )


def render_zmatrix(rep) -> str:
    return "\n".join(" ".join(str(x) for x in row) for row in zelevinsky_matrix(rep))


def _field(obj: dict, key: str):
    """obj[key], or a ValueError naming the missing key."""
    if key not in obj:
        raise ValueError(f'missing "{key}"')
    return obj[key]


def _render(args) -> str:
    obj = _load_json(args.input)
    what = args.what
    if what == "lacing":
        return render_lacing(lace_array(parse_input(obj)))
    if not isinstance(obj, dict):
        raise ValueError(f"render input must be a JSON object, got {json.dumps(obj)}")
    if what == "pipedream":
        d, pairs = _field(obj, "d"), obj.get("crosses", [])
        if not (quiver.is_int(d) and d >= 1):
            raise ValueError(f'"d" must be a positive integer, got {json.dumps(d)}')
        if not (isinstance(pairs, list) and all(
            isinstance(c, list) and len(c) == 2 and all(map(quiver.is_int, c)) for c in pairs
        )):
            raise ValueError(f'"crosses" must be an array of [q, p] pairs, got {json.dumps(pairs)}')
        crosses = Counter(map(tuple, pairs))
        twice = [list(c) for c, count in crosses.items() if count > 1]
        if twice:
            raise ValueError(f'repeated cross {json.dumps(twice[0])} in "crosses"')
        dims = parse_dims(obj["dims"]) if "dims" in obj else Dims((d,))
        if dims.d != d:
            raise ValueError(f'"dims" {list(dims.r)} add up to {dims.d}, not "d" = {d}')
        return render_pipedream(PipeDream(dims, frozenset(crosses)))  # checks the region
    if what == "cgpd":
        return render_cgpd(CGPD.from_json(parse_dims(_field(obj, "dims")), obj))
    # "zmatrix"; argparse's choices admit nothing else
    return render_zmatrix(representative(lace_array(parse_input(obj))))


# -- subcommands ------------------------------------------------------------

def _cmd_lace(args) -> int:
    r = parse_input(_load_json(args.input))
    s = lace_array(r)
    if args.format == "json":
        print(json.dumps({
            "dims": list(s.dims.r),
            "lace": {f"{p},{q}": v for (p, q), v in sorted(s.entries.items()) if v},
        }))
        return 0
    for (p, q), v in sorted(s.entries.items()):
        print(f"s[{p},{q}] = {v}")
    return 0


def _cmd_zperm(args) -> int:
    r = parse_input(_load_json(args.input))
    z = zelevinsky_permutation(r)
    if args.format == "json":
        print(json.dumps({"zperm": list(z)}))
    else:
        print(_perm_text(z))
    return 0


def _cmd_poly(args) -> int:
    """qpoly and csm: the subcommand names the target."""
    r = parse_input(_load_json(args.input))
    p = engine.compute(r, args.command, args.method)
    if args.format == "json":
        payload = {"target": args.command, "method": args.method, "polynomial": format_poly(p)}
        print(json.dumps(payload))
    else:
        print(format_poly(p, "ascii" if args.format == "text" else args.format, r.dims.r))
    return 0


def _cmd_enum(args) -> int:
    """Prints the objects one at a time, each converted only to the format
    printed; the JSON items make the bytes json.dumps gives for their
    list.  perm(r) is counted without listing it and streamed from its
    search, so a large one starts printing at once."""
    if args.region and args.what != "pd":
        raise ValueError(f"--region applies to --what pd only, not to --what {args.what}")
    r = parse_input(_load_json(args.input))
    if args.what == "pd":
        found = enumerate_pipe_dreams(r.dims, zelevinsky_permutation(r), args.region or "strict")
        as_json, as_text = PipeDream.to_json, render_pipedream
    elif args.what == "cgpd":
        found, as_json, as_text = enumerate_cgpd(r), CGPD.to_json, render_cgpd
    else:  # "perm"; argparse's choices admit nothing else
        found, as_json, as_text = perm_set(r), lambda v: {"perm": list(v)}, _perm_text
    if args.format == "json":
        sys.stdout.write("[")
        for i, x in enumerate(found):
            sys.stdout.write(f"{', ' if i else ''}{json.dumps(as_json(x))}")
        print("]")
    else:
        print(f"count: {perm_count(r) if args.what == 'perm' else len(found)}")
        for x in found:
            print(as_text(x))
            print()
    return 0


def _cmd_check(args) -> int:
    r = parse_input(_load_json(args.input))
    report = engine.check(r)
    if args.format == "json":
        print(json.dumps(report.to_json()))
    else:
        print(report.to_text())
    return 0 if report.ok else 2


def _cmd_sweep(args) -> int:
    """Prints each report as the sweep yields it, so no report outlives
    its line; the JSON items make the bytes json.dumps gives for their
    list."""
    if args.budget < 1:
        raise ValueError(f"sweep budget must be at least 1, got {args.budget}")
    checked = failed = 0
    for report in engine.sweep_reports(args.budget):
        if args.format == "json":
            sys.stdout.write(f"{', ' if checked else '['}{json.dumps(report.to_json())}")
        else:
            print(report.to_line())
        checked += 1
        failed += not report.ok
    print("]" if args.format == "json" else f"checked {checked} orbits, {failed} failures")
    return 2 if failed else 0


def _cmd_render(args) -> int:
    print(_render(args))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _Parser(prog="qcalc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, formats=("text", "json"), methods=None):
        p = sub.add_parser(name)
        p.add_argument("input", help="path to a JSON file, or inline JSON")
        if methods:
            p.add_argument("--method", choices=tuple(methods), default="pd")
        if formats:
            p.add_argument("--format", choices=formats, default="text")
        p.set_defaults(fn=fn)
        return p

    add("lace", _cmd_lace)
    add("zperm", _cmd_zperm)
    for target, methods in engine.METHODS.items():
        add(target, _cmd_poly, ("text", "letters", "latex", "json"), methods)
    p = add("enum", _cmd_enum)
    p.add_argument("--what", choices=("pd", "cgpd", "perm"), default="pd")
    p.add_argument("--region", choices=("strict", "full"))  # --what pd's; strict by default
    add("check", _cmd_check)
    p = sub.add_parser("sweep")
    p.add_argument("budget", type=int)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=_cmd_sweep)
    p = add("render", _cmd_render, formats=())
    p.add_argument("--what", choices=("lacing", "pipedream", "cgpd", "zmatrix"), required=True)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help, or a usage error already printed
        return exc.code
    try:
        code = args.fn(args)
        sys.stdout.flush()  # so a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # the reader closed stdout early (qcalc ... | head): end quietly, as
        # a SIGPIPE death would, with the rest of the output sent nowhere
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)
        return 141
    except (ValueError, OSError) as exc:  # every input error of the package is a ValueError
        print(f"qcalc: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
