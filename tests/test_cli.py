"""The qcalc command line: outputs, exit codes, rendering, round trips."""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qcalc import cgpd, engine, localization, pipedream, poly, quiver
from qcalc.cgpd import CGPD, enumerate_cgpd
from qcalc.cli import main, render_lacing, render_pipedream
from qcalc.pipedream import PipeDream
from qcalc.poly import parse_poly
from qcalc.quiver import Dims, LaceArray, parse_input

FIXTURES = Path(__file__).parent / "fixtures"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_zperm_oldpd(capsys):
    code, out, _ = run(capsys, "zperm", str(FIXTURES / "ex_oldpd.json"))
    assert code == 0
    assert out.strip() == "52361487"


def test_zperm_of_a_large_vertex(capsys):
    """The search for z(r), the accepted subword states and the path walk
    are loops, so d is not limited by the depth of Python's recursion."""
    report = [f"{kind}_{m}: 1" for kind in ("csm", "qpoly") for m in ("cgpd", "pd", "ratio")]
    report += [
        f"{kind}:{pair}: ok"
        for kind in ("csm", "qpoly")
        for pair in ("cgpd=ratio", "pd=cgpd", "pd=ratio")
    ]
    report += ["degree law: ok", "leading term law: ok"]
    report += [f"count {name}: 1" for name in ("cgpd", "cgpd_infinity", "p_total")]
    report += [f"count perm: {math.factorial(1200)}", "count rp_star: 1", "result: ok"]
    for argv, expected in [
        (("zperm",), ",".join(map(str, range(1, 1201)))),
        (("csm", "--method", "pd"), "1"),
        (("csm", "--method", "cgpd"), "1"),
        (("csm", "--method", "ratio"), "1"),
        (("check",), "\n".join(report)),
    ]:
        code, out, _ = run(capsys, *argv, '{"dims":[1200],"rank":{}}')
        assert code == 0, argv
        assert out.strip() == expected, argv


FINAL = str(FIXTURES / "ex_final.json")
FINAL_LETTERS = "a1*a2 - a1*c - a2*c - b1*b2 + b1*c + b2*c"


def test_qpoly_letters_final(capsys):
    code, out, _ = run(capsys, "qpoly", "--method", "pd", "--format", "letters", FINAL)
    assert code == 0
    assert out.strip() == FINAL_LETTERS


REJECTED_OPTIONS = [
    # (argv, the flag stderr must name)
    (("qpoly", "--letters", FINAL), "--letters"),
    (("csm", "--format", "latex", "--letters", FINAL), "--letters"),
    *(((command, "--format", style, FINAL), "--format")
      for command in ("lace", "zperm", "enum", "check") for style in ("letters", "latex")),
    (("sweep", "1", "--format", "latex"), "--format"),
    (("render", "--what", "lacing", "--format", "json", FINAL), "--format"),
    (("enum", "--what", "cgpd", "--region", "full", FINAL), "--region"),
    (("enum", "--what", "perm", "--region", "strict", FINAL), "--region"),
]


def test_each_subcommand_takes_only_its_own_options(capsys):
    """Each --format lists only what its subcommand prints (qpoly and csm
    print letters by --format letters, as test_qpoly_letters_final reads
    them, and render has one output), and --region belongs to --what pd:
    anything else exits 1 naming the flag."""
    for argv, flag in REJECTED_OPTIONS:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert flag in err, argv


def test_qpoly_methods_agree(capsys):
    outputs = set()
    for method in ("pd", "cgpd", "ratio"):
        code, out, _ = run(
            capsys, "qpoly", "--method", method, str(FIXTURES / "ex_final.json")
        )
        assert code == 0
        outputs.add(out.strip())
    assert len(outputs) == 1
    parse_poly(outputs.pop())


def test_lace_output(capsys):
    code, out, _ = run(capsys, "lace", str(FIXTURES / "ex_lace.json"))
    assert code == 0
    values = dict(
        line.split(" = ") for line in out.strip().splitlines()
    )
    assert values["s[0,0]"] == "2"
    assert values["s[1,2]"] == "1"
    assert values["s[2,2]"] == "0"


def test_lace_json_round_trip(capsys):
    code, out, _ = run(capsys, "lace", "--format", "json", str(FIXTURES / "ex_lace.json"))
    assert code == 0
    obj = json.loads(out)
    r = parse_input(json.loads((FIXTURES / "ex_lace.json").read_text()))
    assert parse_input(obj) == r


def test_check_a3_exit_zero(capsys):
    code, out, _ = run(capsys, "check", str(FIXTURES / "ex_a3.json"))
    assert code == 0
    assert "result: ok" in out


def test_check_json_schema(capsys):
    code, out, _ = run(capsys, "check", "--format", "json", str(FIXTURES / "ex_a3.json"))
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["counts"]["perm"] == 4


def test_sweep_small(capsys):
    code, out, _ = run(capsys, "sweep", "1")
    assert code == 0
    assert "0 failures" in out


def _sweep_line(report) -> str:
    r = report.rank
    ranks = " ".join(f"{i}{j}:{r[i, j]}" for i, j in r.dims.pairs() if i != j)
    return f"dims {r.dims.r} ranks {ranks or '-'} {'ok' if report.ok else 'FAIL'}"


def _untimed(reports: list[dict]) -> list[dict]:
    return [{k: v for k, v in report.items() if k != "timings_ms"} for report in reports]


@pytest.mark.parametrize("threads", ["1", "2"])
def test_sweep_streams_the_reports_of_the_list(capsys, monkeypatch, threads):
    """sweep prints each report as it arrives: the text printed from the
    whole list, and the bytes json.dumps gives for the list, equal to the
    list's reports once timings_ms is removed, serially and pooled."""
    monkeypatch.setenv("QCALC_THREADS", threads)
    reports = engine.sweep(3)
    code, out, _ = run(capsys, "sweep", "3")
    assert code == 0
    assert out.splitlines() == [_sweep_line(report) for report in reports] + [
        f"checked {len(reports)} orbits, 0 failures"
    ]
    code, out, _ = run(capsys, "sweep", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert out == json.dumps(payload) + "\n"
    assert _untimed(payload) == _untimed([report.to_json() for report in reports])


def test_sweep_prints_each_orbit_before_the_next(capsys, monkeypatch):
    """When check() raises on the last orbit, the lines of every earlier
    orbit are already on stdout as the exception leaves."""
    monkeypatch.setenv("QCALC_THREADS", "1")
    reports = engine.sweep(3)
    last, check = reports[-1].rank, engine.check

    def failing(r):
        if r == last:
            raise RuntimeError("a formula failed")
        return check(r)

    monkeypatch.setattr(engine, "check", failing)
    with pytest.raises(RuntimeError):
        main(["sweep", "3"])
    assert capsys.readouterr().out.splitlines() == [_sweep_line(report) for report in reports[:-1]]


def test_enum_perm(capsys):
    code, out, _ = run(
        capsys, "enum", "--what", "perm", "--format", "json", str(FIXTURES / "ex_perm12.json")
    )
    assert code == 0
    perms = [tuple(item["perm"]) for item in json.loads(out)]
    assert perms == [(1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1)]


def test_enum_pd_counts(capsys):
    code, out, _ = run(
        capsys, "enum", "--what", "pd", "--region", "full", "--format", "json",
        str(FIXTURES / "ex_oldpd.json"),
    )
    assert code == 0
    assert len(json.loads(out)) == 21
    code, out, _ = run(
        capsys, "enum", "--what", "pd", "--format", "json", str(FIXTURES / "ex_oldpd.json")
    )
    assert len(json.loads(out)) == 9


def test_enum_pd_of_a_long_word(capsys):
    """The path walk is a loop, so a word of 1,081 letters, longer than
    Python's recursion limit, lists its one dream."""
    dims = [1] * 47
    code, out, _ = run(capsys, "enum", "--what", "pd", json.dumps({"dims": dims, "lace": {"0,46": 1}}))
    assert code == 0
    assert out.splitlines()[0] == "count: 1"


def test_enum_pd_order_pinned(capsys):
    """`qcalc enum --what pd` prints the dreams of a frontier orbit in a
    fixed order in both regions; the SHA-256 digests of the JSON output
    were captured at commit 5c27f57, from the subword search that
    tests/subword_reference.py keeps."""
    path = str(FIXTURES / "ex_lace.json")
    pinned = {
        "strict": (162, "91bc75914f23133a641cee9d35de1b51aa74a5961712c499fbdefdfcb78e1952"),
        "full": (834, "6156090713b87f3082622c26f464151c1424943a5866cc686a4b692d8bb54a16"),
    }
    for region, (count, digest) in pinned.items():
        code, out, _ = run(capsys, "enum", "--what", "pd", "--region", region, "--format", "json", path)
        assert code == 0
        assert len(json.loads(out)) == count
        assert hashlib.sha256(out.encode()).hexdigest() == digest, region


def test_enum_cgpd(capsys):
    path = str(FIXTURES / "ex_a3.json")
    code, out, _ = run(capsys, "enum", "--what", "cgpd", path)
    assert code == 0
    assert out.startswith("count: 3\n")
    code, out, _ = run(capsys, "enum", "--what", "cgpd", "--format", "json", path)
    assert code == 0
    r = parse_input(json.loads(Path(path).read_text()))
    items = json.loads(out)
    assert len(items) == 3
    assert [CGPD.from_json(r.dims, item) for item in items] == enumerate_cgpd(r)


def test_input_error_names_entry(capsys):
    code, out, err = run(capsys, "zperm", '{"dims":[1,2,1],"rank":{"0,1":1}}')
    assert code == 1
    assert "(0,2)" in err


def test_malformed_input_exits_one(capsys):
    code, out, err = run(capsys, "check", '{"dims":[1,1],"rank":{"0,1":1.5}}')
    assert code == 1
    assert out == ""
    assert err.startswith("qcalc: error:") and '"0,1"' in err
    assert "Traceback" not in err


BAD_INPUT = [
    # (argv, the key or value stderr must name)
    (("render", "--what", "cgpd", '{"dims":["a"],"rects":[]}'), '"dims"'),
    (("render", "--what", "pipedream", '{"d":1,"dims":["a"]}'), '"dims"'),
    (("render", "--what", "cgpd", '{"dims":[1,1],"rects":5}'), '"rects"'),
    (("render", "--what", "cgpd", '{"dims":[1,1],"rects":[[[["r"]]]]}'), '"rects"'),
    (("render", "--what", "cgpd", '{"dims":5,"rects":[]}'), '"dims"'),
    (("render", "--what", "pipedream", '{"d":3,"dims":[1,1]}'), '"d"'),
    (("render", "--what", "pipedream", '{"d":[3]}'), '"d"'),
    (("render", "--what", "pipedream", '{"d":3,"crosses":5}'), '"crosses"'),
    (("render", "--what", "pipedream", "[1]"), "[1]"),
    (("check", "[1]"), "JSON object"),
    (("render", "--what", "cgpd", '{"dims":[1,1]}'), 'missing "rects"'),
    (("render", "--what", "pipedream", '{"dims":[1,1]}'), 'missing "d"'),
    (("sweep", "-3"), "-3"),
    (("sweep", "0"), "budget"),
    # a variable outside poly's packed range
    (("qpoly", "--method", "pd", '{"dims":[129,1],"rank":{"0,1":1}}'), "x0_129"),
    # two keys that name one entry, and both input objects at once
    (("lace", '{"dims":[1,1],"rank":{"0,1":1,"0,1 ":0}}'), '"0,1" and "0,1 "'),
    (("lace", '{"dims":[1,1],"rank":{"0,1":1},"lace":{"0,0":1,"1,1":1}}'), '"rank" and a "lace"'),
    # one key twice in one object, which json.loads would resolve to its last value
    (("lace", '{"dims":[1,1],"rank":{"0,1":1,"0,1":0}}'), 'repeated key "0,1"'),
    # one cross twice, which a set of crosses would draw once
    (("render", "--what", "pipedream", '{"d":3,"crosses":[[1,1],[1,1]]}'), "repeated cross [1, 1]"),
    # one case for each input-error class the cases above do not reach
    (("zperm", '{"dims":[1,1],"rank":{"0,1":2}}'), "s[0,0]"),  # NotRealizable
    (("lace", '{"dims":[1,1],"lace":{"0,0":2}}'), "row 0"),  # BadRowSums
    (("render", "--what", "pipedream", '{"d":2,"crosses":[[2,2]]}'), "(2,2)"),  # RegionViolation
    (("render", "--what", "cgpd", '{"dims":[1,1],"rects":[[["?"]]]}'), "'?'"),  # InvalidCGPD
    # a negative lace entry, named by its interval
    (("lace", '{"dims":[1,1],"lace":{"0,0":-1,"0,1":1,"1,1":1}}'), "(0,0)"),
]


@pytest.mark.parametrize(
    "argv, named", BAD_INPUT, ids=[f"argv{i}" for i in range(len(BAD_INPUT))]
)
def test_bad_input_exits_one(capsys, argv, named):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("qcalc: error:") and named in err
    assert "Traceback" not in err and "No such file" not in err


def test_a_fault_is_not_bad_input(monkeypatch):
    """Every input-error class of the package is a ValueError, which main
    reports on exit 1; a formula's own faults are not, and a KeyError
    from a formula leaves main with its traceback."""
    for bad_input in (
        quiver.NotRealizable, quiver.BadRowSums, cgpd.InvalidCGPD,
        pipedream.RegionViolation, poly.ParseError, localization.NotReducedWord,
    ):
        assert issubclass(bad_input, ValueError)
    # one fault class for csm_pd and the ratio formulas' Hom cancellation
    assert pipedream.DHomViolation is localization.DHomViolation
    assert not issubclass(localization.DHomViolation, ValueError)

    def faulty(r):
        raise KeyError(r.dims)

    monkeypatch.setitem(engine.METHODS["qpoly"], "pd", faulty)
    with pytest.raises(KeyError):
        main(["qpoly", str(FIXTURES / "ex_final.json")])


def test_closed_stdout_is_not_an_input_error():
    """A reader that closes stdout after the first line (qcalc ... | head -1)
    gets no message on stderr, and the exit code is not the input error's
    1.  The 834 dreams fill far more than a pipe's buffer, so the command
    is still writing when the pipe closes."""
    paths = [str(Path(__file__).parent.parent / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    argv = ["enum", "--what", "pd", "--region", "full", str(FIXTURES / "ex_lace.json")]
    proc = subprocess.Popen(
        [sys.executable, "-m", "qcalc.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline() == b"count: 834\n"
    proc.stdout.close()
    try:
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert err == b""
    assert proc.returncode in (0, 141)


def test_enum_perm_streams_its_members():
    """enum --what perm prints the count from perm_count and then the
    members as its search finds them: the 12! members of (12) are never
    listed, and a reader that closes stdout after two lines ends it."""
    paths = [str(Path(__file__).parent.parent / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.Popen(
        [sys.executable, "-m", "qcalc.cli", "enum", "--what", "perm", '{"dims":[12],"rank":{}}'],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline() == b"count: 479001600\n"
    assert proc.stdout.readline() == b"1,2,3,4,5,6,7,8,9,10,11,12\n"
    proc.stdout.close()
    try:
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert err == b""
    assert proc.returncode in (0, 141)


def test_bad_flag_exits_one(capsys):
    try:
        code = main(["qpoly", "--method", "sorcery", str(FIXTURES / "ex_a3.json")])
    except SystemExit as exc:
        code = exc.code
    assert code == 1


def test_render_pipedream_empty_grid(capsys):
    code, out, _ = run(capsys, "render", '{"d": 3}', "--what", "pipedream")
    assert code == 0
    assert out == "...\n...\n...\n"


def test_render_pipedream_with_blocks():
    text = render_pipedream(PipeDream(Dims((1, 2, 1)), frozenset([(1, 1)])))
    assert text.splitlines() == [
        "+|..|.",
        "-+--+-",
        ".|..|.",
        ".|..|.",
        "-+--+-",
        ".|..|.",
    ]
    # rules after rows 2 and 5 and after columns 1 and 4 (blocks right to left)
    text = render_pipedream(PipeDream(Dims((2, 3, 1)), frozenset([(1, 1), (2, 4)])))
    assert text.splitlines() == [
        "+|...|..",
        ".|..+|..",
        "-+---+--",
        ".|...|..",
        ".|...|..",
        ".|...|..",
        "-+---+--",
        ".|...|..",
    ]


def test_render_cgpd_forced(capsys):
    code, out, _ = run(
        capsys, "render", '{"dims": [1, 1], "rects": [[["r"]]]}', "--what", "cgpd"
    )
    assert code == 0
    assert out.strip() == "r"


def test_render_lacing_shape():
    s = LaceArray(Dims((1, 2, 1)), {(0, 2): 1, (1, 1): 1})
    lines = render_lacing(s).splitlines()
    assert lines[0] == "*"
    assert lines[2] == "* *"
    assert lines[4] == "*"
    assert len(lines) == 5


def test_render_unknown_object(capsys):
    code, _, err = run(capsys, "render", '{"d": 3}', "--what", "sculpture")
    assert code == 1
    assert "sculpture" in err


def test_render_zmatrix(capsys):
    code, out, _ = run(capsys, "render", str(FIXTURES / "ex_perm12.json"), "--what", "zmatrix")
    assert code == 0
    rows = [line.split() for line in out.strip().splitlines()]
    assert len(rows) == 3 and all(len(row) == 3 for row in rows)


def test_csm_json_round_trip(capsys):
    code, out, _ = run(
        capsys, "csm", "--format", "json", str(FIXTURES / "ex_a3.json")
    )
    assert code == 0
    payload = json.loads(out)
    from qcalc.engine import compute

    r = parse_input(json.loads((FIXTURES / "ex_a3.json").read_text()))
    assert parse_poly(payload["polynomial"]) == compute(r, "csm", "pd")


def test_thread_count_is_at_most_the_cores(monkeypatch):
    """A pool forks all its workers at once, so QCALC_THREADS is capped at
    the core count; this starts no pool."""
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    for env, workers in (("100000", 3), ("2", 2), ("0", 1), ("-4", 1), ("", 3)):
        monkeypatch.setenv("QCALC_THREADS", env)
        assert engine.worker_count() == workers


def test_bad_thread_count_exits_one(capsys, monkeypatch):
    monkeypatch.setenv("QCALC_THREADS", "abc")
    code, _, err = run(capsys, "sweep", "1")
    assert code == 1
    assert "QCALC_THREADS" in err and "'abc'" in err
