"""What the user paths run: the statements of src/qcalc that no command,
formula or law reaches, pinned by function.

The stdlib trace module follows, in a fresh interpreter (this file run
as a script), the import of the package, a serial sweep(5), the CLI on
the fixtures with every subcommand, option and format, and every
bad-input case of test_cli.  A statement is an ast statement or except
clause.  It ran when trace saw a line of its own: its header, for a
compound statement.  It counts only where the compiled code has a line,
so a docstring or a `global` is no statement.  A new statement left
unrun must be an error path that a named test reaches, or it goes:
either way, UNRUN changes with it.

Run as a script, the file prints the unrun statements by function as
JSON:

    PYTHONPATH=src:tests QCALC_THREADS=1 python tests/test_coverage.py
"""

import ast
import dis
import json
import os
import subprocess
import sys
import trace
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
PACKAGE = SRC / "qcalc"
FIXTURES = TESTS / "fixtures"

# A pipe dream of dims (1, 1, 1) and a chained generic pipe dream of
# ex_a3, as render reads them.
PIPEDREAM = '{"d":3,"dims":[1,1,1],"crosses":[[1,1],[1,2]]}'
CGPD = '{"dims":[1,2,1],"rects":[[["r","-"]],[["r"],["+"]]]}'


def _cli_runs() -> list[tuple[str, ...]]:
    """One or more argv per subcommand, option and format."""
    final, oldpd, lace = (str(FIXTURES / f"ex_{name}.json") for name in ("final", "oldpd", "lace"))
    a3, perm12 = (str(FIXTURES / f"ex_{name}.json") for name in ("a3", "perm12"))
    runs: list[tuple[str, ...]] = []
    for fmt in ("text", "json"):
        runs += [
            ("lace", "--format", fmt, lace),
            ("zperm", "--format", fmt, oldpd),
            ("enum", "--what", "cgpd", "--format", fmt, a3),
            ("enum", "--what", "perm", "--format", fmt, perm12),
            ("check", "--format", fmt, final),
            ("sweep", "2", "--format", fmt),
        ]
        runs += [("enum", "--format", fmt, *region, final)
                 for region in ((), ("--region", "strict"), ("--region", "full"))]
    for fmt in ("text", "letters", "latex", "json"):
        runs += [(target, "--method", method, "--format", fmt, final)
                 for target in ("qpoly", "csm") for method in ("pd", "cgpd", "ratio")]
    runs += [("render", "--what", "lacing", lace), ("render", "--what", "zmatrix", perm12)]
    runs += [("render", "--what", "pipedream", PIPEDREAM), ("render", "--what", "cgpd", CGPD)]
    return runs


def _user_paths() -> None:
    """Import the package, sweep(5) it in one process, and run the CLI:
    every run of _cli_runs, then every rejected option and bad input of
    test_cli."""
    from qcalc import engine
    from qcalc.cli import main
    from test_cli import BAD_INPUT, REJECTED_OPTIONS

    assert all(report.ok for report in engine.sweep(5))
    with redirect_stdout(StringIO()), redirect_stderr(StringIO()):
        for argv in _cli_runs():
            assert main(list(argv)) == 0, argv
        for argv, _ in REJECTED_OPTIONS + BAD_INPUT:
            assert main(list(argv)) == 1, argv


def _code_lines(code) -> set[int]:
    """The lines the compiled code of code and its nested code objects
    starts an instruction on."""
    lines = {line for _, line in dis.findlinestarts(code) if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_code"):
            lines |= _code_lines(const)
    return lines


def _statements(tree: ast.Module, scope: str):
    """(scope, own lines) of every statement of tree, scope the dotted
    name of the innermost function or class around it.  A statement's own
    lines run from its first (decorators included) to the line before its
    first child statement, or to its last when it has none."""
    for node in tree.body:
        yield from _statement(node, scope)


def _statement(node, scope: str):
    children = [child for field in ("body", "orelse", "finalbody", "handlers")
                for child in getattr(node, field, ())
                if isinstance(child, (ast.stmt, ast.ExceptHandler))]
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
    last = children[0].lineno - 1 if children else node.end_lineno
    yield scope, range(first, last + 1)
    inner = f"{scope}.{node.name}" if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else scope
    for child in children:
        yield from _statement(child, inner)


class _OutsideThePackage:
    """trace's test of which frames to leave untraced, by path: all
    outside src/qcalc.  trace's own ignoredirs test caches its verdict
    by module name, so a package module that shares a name with one
    under an ignored directory (__init__, say) would go untraced."""

    def __init__(self):
        self.verdicts: dict[str, bool] = {}

    def names(self, filename: str, modulename: str) -> bool:
        if filename not in self.verdicts:
            self.verdicts[filename] = Path(filename).resolve().parent != PACKAGE
        return self.verdicts[filename]


def unrun_by_function() -> dict[str, int]:
    """The number of statements of each package function (or module or
    class body) that the user paths leave unrun, where it is not 0."""
    tracer = trace.Trace(count=1, trace=0)
    tracer.ignore = _OutsideThePackage()
    tracer.runfunc(_user_paths)
    ran: dict[str, set[int]] = {}
    for (filename, line), _ in tracer.results().counts.items():
        ran.setdefault(os.path.realpath(filename), set()).add(line)
    unrun: dict[str, int] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        code = _code_lines(compile(source, str(path), "exec"))
        seen = ran.get(os.path.realpath(path), set())
        for scope, lines in _statements(ast.parse(source), path.stem):
            if code.intersection(lines) and not seen.intersection(lines):
                unrun[scope] = unrun.get(scope, 0) + 1
    return unrun


UNRUN = {
    "blockperm.require_permutation": 1,
    "blockperm.left_mul_s": 1,
    "blockperm.composite": 4,
    "cgpd.CGPD.__post_init__": 2,
    "cgpd._states.enter": 1,
    "cli._perm_text": 1,
    "cli.main": 4,
    "cli": 1,
    "engine.compute": 2,
    "engine.worker_count": 3,
    "engine.sweep_reports": 3,
    "localization.Word.value": 1,
    "localization._require_reduced": 2,
    "localization._restriction": 6,
    "localization.ajs_billey": 1,
    "localization.csm_restriction": 1,
    "localization._cancel_hom": 1,
    "localization._dhom_positions": 1,
    "pipedream.region_cells": 1,
    "pipedream.csm_pd": 1,
    "poly.ParseError.__init__": 2,
    "poly.Poly.__getstate__": 1,
    "poly.Poly.__setstate__": 2,
    "poly.Poly._degree_bound": 1,
    "poly.Poly.zero": 1,
    "poly.Poly.const": 1,
    "poly.Poly.var_diff": 1,
    "poly.Poly.sum": 2,
    "poly.Poly.sum_of_products": 1,
    "poly.Poly.__add__": 1,
    "poly.Poly.__neg__": 1,
    "poly.Poly.__sub__": 1,
    "poly.Poly.__rsub__": 1,
    "poly.Poly.__mul__": 1,
    "poly.Poly.__pow__": 6,
    "poly.Poly.__eq__": 2,
    "poly.Poly.__hash__": 3,
    "poly.Poly.__bool__": 1,
    "poly.Poly.__repr__": 1,
    "poly.Poly.degree": 1,
    "poly._coerce": 1,
    "poly._var_text": 1,
    "poly.format_poly": 1,
    "poly.parse_poly": 43,
    "poly.parse_poly.at": 2,
    "quiver.Dims.__post_init__": 1,
    "quiver.RankArray.__init__": 4,
    "quiver.RankArray.__getitem__": 1,
    "quiver.RankArray.__hash__": 1,
    "quiver.RankArray.__eq__": 1,
    "quiver.RankArray.__repr__": 1,
    "quiver.LaceArray.__init__": 5,
    "quiver.LaceArray.__getitem__": 1,
    "quiver.LaceArray.__hash__": 1,
    "quiver.LaceArray.__eq__": 1,
    "quiver.LaceArray.__repr__": 1,
    "quiver.Rep.__post_init__": 2,
    "quiver.rank_array": 10,
    "quiver.enumerate_lace_arrays": 1,
    "quiver.parse_input": 2,
    "quiver.parse_input.read_entries": 4,
    "states.States.paths": 2,
    "states.state_sum": 1,
}


def test_unrun_statements_are_pinned_by_function():
    """The user paths leave unrun exactly the statements of UNRUN: a
    statement that starts or stops running changes a count."""
    env = dict(os.environ, QCALC_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(TESTS)])
    done = subprocess.run(
        [sys.executable, __file__], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == UNRUN


if __name__ == "__main__":
    print(json.dumps(unrun_by_function(), indent=1))
