import ast
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import pbp
from pbp.classifier import Flags
from pbp.cli import COMMANDS, main, parse, usage

SRC = Path(__file__).resolve().parents[1] / "src"
GOLDEN = Path(__file__).parent / "golden"


def write(tmp_path, name, obj):
    """Write obj as JSON; bytes are written as they are, for JSON that json.dumps cannot emit."""
    path = tmp_path / name
    path.write_bytes(obj if isinstance(obj, bytes) else json.dumps(obj).encode())
    return str(path)


def lie_bracket_value(text):
    """A one-bracket algebra [g, e] = value * e, its value given as JSON text."""
    return (b'{"dim": 2, "basis": ["e", "g"], "brackets": [{"x": "g", "y": "e", "value": {"e": '
            + text.encode() + b'}}]}')


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    out = json.loads(captured.out) if captured.out.strip() else None
    return code, out, captured.err


# fails the Jacobi identity
JACOBI_FAILS = {
    "dim": 3,
    "basis": ["x", "y", "z"],
    "brackets": [
        {"x": "x", "y": "y", "value": {"x": "1"}},
        {"x": "y", "y": "z", "value": {"y": "1"}},
        {"x": "z", "y": "x", "value": {"z": "1"}},
    ],
}


def test_classify_command(tmp_path, capsys):
    path = write(tmp_path, "d.json", {"kind": "bs", "m": 2, "n": 3})
    code, out, _ = run(capsys, ["classify", "-i", path])
    assert code == 0
    assert out["answer"] == "NO"
    assert out["trace"][0]["rule"] == "delegate/bs"


def test_classify_unknown_still_exits_zero(tmp_path, capsys):
    path = write(tmp_path, "d.json", {"kind": "flagged", "flags": {"ends": 1}})
    code, out, _ = run(capsys, ["classify", "-i", path])
    assert code == 0
    assert out["answer"] == "UNKNOWN"


def test_classify_vcd_zero_is_not_applicable_and_exits_zero(tmp_path, capsys):
    path = write(tmp_path, "d.json", {"kind": "flagged", "flags": {"vcd": 0}})
    code, out, _ = run(capsys, ["classify", "-i", path])
    assert code == 0
    assert out["answer"] == "NOT_APPLICABLE"
    assert [entry["rule"] for entry in out["trace"]] == ["scope"]


def test_classify_inconsistent_exits_two(tmp_path, capsys):
    path = write(tmp_path, "d.json", {"kind": "flagged", "flags": {"ends": 2, "simple": True}})
    code, out, err = run(capsys, ["classify", "-i", path])
    assert code == 2
    assert "invalid input" in err


def test_coxeter_command(tmp_path, capsys):
    path = write(tmp_path, "m.json", {"n": 3, "m": [[1, 3, 2], [3, 1, 3], [2, 3, 1]]})
    code, out, _ = run(capsys, ["coxeter", "-i", path])
    assert code == 0
    assert out["answer"] == "NOT_APPLICABLE"
    assert out["components"][0]["signature"] == [3, 0, 0]


def test_coxeter_inf_entry(tmp_path, capsys):
    path = write(tmp_path, "m.json", {"n": 2, "m": [[1, "inf"], ["inf", 1]]})
    code, out, _ = run(capsys, ["coxeter", "-i", path])
    assert code == 0
    assert out["answer"] == "YES"
    assert out["components"][0]["label"] == "Affine"


def test_coxeter_large_labels(tmp_path, capsys):
    path = write(tmp_path, "m.json", {"n": 3, "m": [[1, 2, 101], [2, 1, 103], [101, 103, 1]]})
    code, out, _ = run(capsys, ["coxeter", "-i", path])
    assert code == 0
    assert out["answer"] == "NO"
    assert out["components"][0]["signature"] == [2, 1, 0]


@pytest.mark.parametrize("matrix", [
    {"n": 2, "m": [[1, 3.7], [3.7, 1]]},
    {"n": 2, "m": [[1, 2.5], [2.5, 1]]},
    {"n": 2, "m": [[1, True], [True, 1]]},
    {"n": 2.5, "m": [[1, 3], [3, 1]]},
    {"n": 2, "m": [[1, None], [None, 1]]},
], ids=["label-3.7", "label-2.5", "label-true", "n-2.5", "label-null"])
def test_coxeter_refuses_non_integral_entries(tmp_path, capsys, matrix):
    code, out, err = run(capsys, ["coxeter", "-i", write(tmp_path, "m.json", matrix)])
    assert code == 2 and out is None
    assert err.startswith("invalid input:") and "must be an integer" in err


def test_coxeter_accepts_integral_floats(tmp_path, capsys):
    floats = write(tmp_path, "f.json", {"n": 3.0, "m": [[1, 3.0, 2], [3.0, 1.0, "inf"], [2, "inf", 1]]})
    ints = write(tmp_path, "i.json", {"n": 3, "m": [[1, 3, 2], [3, 1, "inf"], [2, "inf", 1]]})
    assert run(capsys, ["coxeter", "-i", floats]) == run(capsys, ["coxeter", "-i", ints])


@pytest.mark.parametrize("descriptor", [
    {"kind": "bs", "m": 2.5, "n": -2},
    {"kind": "bs", "m": 2, "n": True},
    {"kind": "free_product", "factors": [2.5, 2]},
    {"kind": "free_product", "factors": [2, False]},
    {"kind": "direct_product_of_infinite", "count": 2.5},
    {"kind": "direct_product_of_infinite", "count": True},
    {"kind": "coxeter", "matrix": {"n": 2, "m": [[1, 3.7], [3.7, 1]]}},
    {"kind": "flagged", "flags": {"virtually": {"form": "free-abelian", "rank": 2.5}}},
    {"kind": "flagged", "flags": {"virtually": {"form": "product-of-free-groups", "ranks": [2.7, 3]}}},
], ids=["bs-m", "bs-n-bool", "factor", "factor-bool", "count", "count-bool", "coxeter-label",
        "virtually-rank", "virtually-ranks"])
def test_classify_refuses_non_integral_numbers(tmp_path, capsys, descriptor):
    code, out, err = run(capsys, ["classify", "-i", write(tmp_path, "d.json", descriptor)])
    assert code == 2 and out is None
    assert err.startswith("invalid input:") and "must be an integer" in err


@pytest.mark.parametrize("floats, ints", [
    ({"kind": "bs", "m": 2.0, "n": -2.0}, {"kind": "bs", "m": 2, "n": -2}),
    ({"kind": "free_product", "factors": [2.0, "inf"]}, {"kind": "free_product", "factors": [2, "inf"]}),
    ({"kind": "direct_product_of_infinite", "count": 2.0}, {"kind": "direct_product_of_infinite", "count": 2}),
])
def test_classify_accepts_integral_floats(tmp_path, capsys, floats, ints):
    a = run(capsys, ["classify", "-i", write(tmp_path, "f.json", floats)])
    b = run(capsys, ["classify", "-i", write(tmp_path, "i.json", ints)])
    assert a == b and a[0] == 0


def test_bs_command_with_checks(capsys):
    code, out, _ = run(capsys, ["bs", "2", "-2", "--witness", "--verify-bound", "5"])
    assert code == 0
    assert out["answer"] == "YES"
    assert out["certificate"]["index"] == 4
    assert out["checks"]["passed"] is True
    assert out["checks"]["abelianization_free_rank"] == 4


def test_bs_command_checks_bs4_at_bound_6(capsys):
    code, out, _ = run(capsys, ["bs", "4", "-4", "--verify-bound", "6"])
    assert code == 0
    assert out["checks"]["passed"] is True
    assert out["checks"]["abelianization_free_rank"] == 8


@pytest.mark.parametrize("m, n", [(3, 3), (-3, -3), (2, -2), (-2, 2)])
def test_bs_command_checks_the_group_as_given(capsys, m, n):
    """The witness words do not depend on the signs, so the one witness for
    |m| passes its checks in BS(m, n) for every sign pair."""
    code, out, _ = run(capsys, ["bs", str(m), str(n), "--verify-bound", "4"])
    assert code == 0
    assert out["checks"]["passed"] is True
    assert out["checks"]["index"] == 2 * abs(m)


def test_bs_command_compact_certificate(capsys):
    code, out, _ = run(capsys, ["bs", "3", "3"])
    assert code == 0
    assert out["certificate"] == {"kind": "finite-index-direct-product", "index": 6}


def test_bs_rejects_nonpositive_verify_bound(capsys):
    code, out, err = run(capsys, ["bs", "2", "2", "--verify-bound", "-1"])
    assert code == 2
    assert out is None
    assert "length bound" in err


@pytest.mark.parametrize("m, n", [(2, 3), (1, -1)])
def test_bs_verify_bound_needs_bs_m_pm_m_with_m_at_least_2(capsys, m, n):
    code, out, err = run(capsys, ["bs", str(m), str(n), "--verify-bound", "4"])
    assert code == 2
    assert out is None
    assert err == "invalid input: --verify-bound applies to BS(m, +-m) with |m| >= 2\n"


@pytest.mark.parametrize("names", [["x", "x^-1"], ["", "b"]], ids=["caret", "empty"])
def test_subgroup_refuses_names_the_word_syntax_cannot_write(tmp_path, capsys, names):
    pres = write(tmp_path, "pres.json", {"generators": names, "relators": []})
    hom = write(tmp_path, "hom.json", {"images": [[0], [0]]})
    code, out, err = run(capsys, ["subgroup", "-i", pres, "--hom", hom])
    assert code == 2
    assert out is None
    assert err.startswith("invalid input: generator name") and "is empty or has whitespace or '^'" in err


def test_bs_zero_parameter(capsys):
    code, out, err = run(capsys, ["bs", "0", "3"])
    assert code == 2


def test_lie_catalogue_command(capsys):
    code, out, _ = run(capsys, ["lie", "--catalogue", "sol"])
    assert code == 0
    assert out["answer"] == "NO"
    assert len(out["ideal_trace"]) == 4


def test_lie_catalogue_dimension_twelve(capsys):
    code, out, _ = run(capsys, ["lie", "--catalogue", "so(4)+so(4)"])
    assert code == 0
    assert out["answer"] == "YES"


def test_lie_catalogue_dimension_thirteen(capsys):
    code, out, _ = run(capsys, ["lie", "--catalogue", "so(5)+sl2"])
    assert code == 0
    assert out["algebra"]["dim"] == 13
    assert out["answer"] == "YES"


@pytest.mark.parametrize("name, answer", [("so(6)", "NO"), ("so(7)", "NO"),
                                          ("vr(2,1,2)+vr(2,1,2)", "YES")])
def test_lie_catalogue_past_dimension_twelve(capsys, name, answer):
    code, out, _ = run(capsys, ["lie", "--catalogue", name])
    assert code == 0
    assert out["answer"] == answer


def test_lie_json_command(tmp_path, capsys):
    algebra = {
        "dim": 3,
        "basis": ["x", "y", "z"],
        "brackets": [{"x": "x", "y": "y", "value": {"z": "1"}}],
    }
    path = write(tmp_path, "alg.json", algebra)
    code, out, _ = run(capsys, ["lie", "-i", path])
    assert code == 0
    assert out["answer"] == "YES"  # Heisenberg: nonzero centre


def test_lie_invalid_algebra(tmp_path, capsys):
    path = write(tmp_path, "alg.json", JACOBI_FAILS)
    code, out, err = run(capsys, ["lie", "-i", path])
    assert code == 2
    assert "Jacobi" in err


def test_subgroup_command(tmp_path, capsys):
    pres = write(
        tmp_path, "p.json", {"generators": ["s", "t"], "relators": ["t s^2 t^-1 s^-2"]}
    )
    hom = write(
        tmp_path,
        "h.json",
        {"images": [[1, 0, 2, 3], [0, 1, 3, 2]]},  # C2 x C2 on four points
    )
    code, out, _ = run(capsys, ["subgroup", "-i", pres, "--hom", hom])
    assert code == 0
    assert out["index"] == 4
    assert out["subgroup_generators"] == 5
    assert out["subgroup_relators"] == 4
    assert out["abelianization"] == {"free_rank": 4, "torsion": []}

    # <a | a^4> onto the trivial group: the whole group, Z/4
    pres = write(tmp_path, "c4.json", {"generators": ["a"], "relators": ["a^4"]})
    hom = write(tmp_path, "trivial.json", {"images": [[0]]})
    code, out, _ = run(capsys, ["subgroup", "-i", pres, "--hom", hom])
    assert code == 0
    assert (out["index"], out["subgroup_generators"], out["subgroup_relators"]) == (1, 1, 1)
    assert out["abelianization"] == {"free_rank": 0, "torsion": [4]}


def test_subgroup_relator_not_killed(tmp_path, capsys):
    pres = write(tmp_path, "p.json", {"generators": ["s"], "relators": ["s^2"]})
    hom = write(tmp_path, "h.json", {"images": [[1, 2, 0]]})
    code, out, err = run(capsys, ["subgroup", "-i", pres, "--hom", hom])
    assert code == 2


def test_abels_command(capsys):
    code, out, _ = run(capsys, ["abels", "--prime", "3", "--trials", "200"])
    assert code == 0
    assert out["symbolic"] == "pass"
    assert out["randomized"] == "pass"
    assert out["counterexamples"] == []


def test_abels_rejects_nonpositive_trials(capsys):
    code, out, err = run(capsys, ["abels", "--prime", "3", "--trials", "-5"])
    assert code == 2
    assert out is None
    assert "trials" in err


def test_abels_rejects_composite_prime(capsys):
    code, out, err = run(capsys, ["abels", "--prime", "4", "--trials", "20"])
    assert code == 2
    assert "not prime" in err


def test_missing_file_exits_two(capsys):
    code, out, err = run(capsys, ["classify", "-i", "/nonexistent.json"])
    assert code == 2


def python(script):
    """Run a Python script in a fresh interpreter that imports pbp from src/."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=300,
    )


def run_fresh(argv):
    """main(argv) in a fresh interpreter: (exit code, stderr, loaded pbp modules)."""
    proc = python(
        "import contextlib, io, json, sys\n"
        "from pbp.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = main({argv!r})\n"
        "print(json.dumps([code, sorted(m for m in sys.modules if m.startswith('pbp'))]))\n"
    )
    assert proc.returncode == 0, proc.stderr
    code, loaded = json.loads(proc.stdout)
    return code, proc.stderr, set(loaded)


def test_no_subcommand_imports_sympy(tmp_path):
    """The runtime is the standard library: no subcommand loads sympy."""
    runs = []
    for golden in sorted(GOLDEN.glob("*.json")):
        descriptor = json.loads(golden.read_text())["descriptor"]
        runs.append(["classify", "-i", write(tmp_path, golden.name, descriptor)])
    runs += [
        ["coxeter", "-i", write(tmp_path, "m.json", {"n": 3, "m": [[1, 3, 3], [3, 1, 7], [3, 7, 1]]})],
        ["bs", "2", "-2"],
        ["lie", "--catalogue", "af+af"],
        ["lie", "--catalogue", "sl2"],
        ["abels", "--prime", "3", "--trials", "20"],
    ]
    script = (
        "import contextlib, io, sys\n"
        "from pbp.cli import main\n"
        f"for argv in {runs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) == 0, argv\n"
        "assert 'sympy' not in sys.modules, 'sympy was imported'\n"
    )
    proc = python(script)
    assert proc.returncode == 0, proc.stderr
    assert not [p for p in SRC.rglob("*.py") if "sympy" in p.read_text()]


def test_subcommands_load_only_their_modules(tmp_path):
    """Each subcommand, in a fresh interpreter, leaves the deciders it does not run unloaded."""
    matrix = write(tmp_path, "m.json", {"n": 3, "m": [[1, 3, 3], [3, 1, 7], [3, 7, 1]]})
    cases = [
        (["abels", "--prime", "3", "--trials", "20"], "pbp.abels",
         {"pbp.lie", "pbp.coxeter", "pbp.presentations"}),
        (["coxeter", "-i", matrix], "pbp.coxeter", {"pbp.lie", "pbp.bs", "pbp.poly", "pbp.linalg"}),
    ]
    for golden in sorted(GOLDEN.glob("*.json")):
        descriptor = json.loads(golden.read_text())["descriptor"]
        if descriptor["kind"] not in ("coxeter", "bs"):
            cases.append((["classify", "-i", write(tmp_path, golden.name, descriptor)],
                          "pbp.classifier", {"pbp.coxeter", "pbp.bs", "pbp.lie"}))
    assert len(cases) == 12
    for argv, own, absent in cases:
        code, _, loaded = run_fresh(argv)
        assert code == 0, argv
        assert own in loaded and not loaded & absent, (argv, sorted(loaded))


def test_subcommands_load_no_typing(tmp_path):
    """No subcommand imports typing: ``bs`` (verifying or not), ``subgroup``,
    ``coxeter``, ``lie``, ``abels``, and ``classify`` on the golden
    descriptors and on a flagged one with a presentation.  The modules take
    annotation names from collections.abc, and the classifier reads the flag
    types from the annotation strings.  The process runs with -S, since site
    may import typing on its own."""
    runs = [
        ["classify", "-i", write(tmp_path, golden.name, json.loads(golden.read_text())["descriptor"])]
        for golden in sorted(GOLDEN.glob("*.json"))
    ]
    assert len(runs) == 12
    runs += [
        ["classify", "-i", write(tmp_path, "flagged.json", {
            "kind": "flagged", "presentation": {"generators": ["a", "b"], "relators": ["a b a^-1 b^-1"]},
            "flags": {"infinite": True, "ends": 1}})],
        ["bs", "2", "-2"],
        ["bs", "2", "-2", "--verify-bound", "4"],
        ["subgroup", "-i", write(tmp_path, "p.json", {"generators": ["a", "b"], "relators": ["a^2", "b^3", "a b a b"]}),
         "--hom", write(tmp_path, "h.json", {"images": [[1, 0, 2], [1, 2, 0]]})],
        ["coxeter", "-i", write(tmp_path, "m.json", {"n": 3, "m": [[1, 3, 3], [3, 1, 7], [3, 7, 1]]})],
        ["lie", "--catalogue", "sl2"],
        ["abels", "--prime", "3", "--trials", "20"],
    ]
    script = (
        "import contextlib, io, sys\n"
        "from pbp.cli import main\n"
        f"for argv in {runs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) == 0, argv\n"
        "print('typing' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", script], env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=300)
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr


@pytest.mark.parametrize("argv", [["bs", "2", "3"], ["bs", "0", "1"]], ids=["verdict", "invalid"])
def test_python_dash_m_runs_the_cli(capsys, argv):
    """``python -m pbp`` from a checkout prints what main prints and exits with its code."""
    proc = subprocess.run([sys.executable, "-m", "pbp", *argv], capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))
    code = main(argv)
    captured = capsys.readouterr()
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, captured.out, captured.err)
    loaded = python("import json, sys, pbp\nprint(json.dumps(sorted(m for m in sys.modules if m.startswith('pbp'))))")
    assert json.loads(loaded.stdout) == ["pbp"]


# Every README command line and every cli-mix argv shape, with the handler and the attributes
# that the argparse parser of earlier versions gave them.
PARSED = [
    (["classify", "-i", "descriptor.json"], "cmd_classify", {"input": "descriptor.json"}),
    (["coxeter", "-i", "m.json"], "cmd_coxeter", {"input": "m.json"}),
    (["bs", "2", "-2", "--witness", "--verify-bound", "8"], "cmd_bs",
     {"m": 2, "n": -2, "witness": True, "verify_bound": 8}),
    (["lie", "--catalogue", "sol"], "cmd_lie", {"input": None, "catalogue": "sol"}),
    (["lie", "--catalogue", "vr(2,1,2)"], "cmd_lie", {"input": None, "catalogue": "vr(2,1,2)"}),
    (["lie", "-i", "algebra.json"], "cmd_lie", {"input": "algebra.json", "catalogue": None}),
    (["subgroup", "-i", "presentation.json", "--hom", "hom.json"], "cmd_subgroup",
     {"input": "presentation.json", "hom": "hom.json"}),
    (["abels", "--prime", "3", "--trials", "10000"], "cmd_abels", {"prime": 3, "trials": 10000}),
    (["bs", "2", "-2"], "cmd_bs", {"m": 2, "n": -2, "witness": False, "verify_bound": None}),
    (["bs", "-3", "5"], "cmd_bs", {"m": -3, "n": 5, "witness": False, "verify_bound": None}),
    (["bs", "-2", "2", "--verify-bound", "4"], "cmd_bs", {"m": -2, "n": 2, "witness": False, "verify_bound": 4}),
    (["bs", "6", "-1", "--witness"], "cmd_bs", {"m": 6, "n": -1, "witness": True, "verify_bound": None}),
    (["lie", "--catalogue", "so(4)+so(4)"], "cmd_lie", {"input": None, "catalogue": "so(4)+so(4)"}),
    (["abels", "--prime", "7", "--trials", "200"], "cmd_abels", {"prime": 7, "trials": 200}),
    (["bs", "-3", "-3"], "cmd_bs", {"m": -3, "n": -3, "witness": False, "verify_bound": None}),
    (["abels", "--prime", "5"], "cmd_abels", {"prime": 5, "trials": 10000}),
    (["classify", "--input=d.json"], "cmd_classify", {"input": "d.json"}),
    (["bs", "2", "-2", "--verify-bound=8"], "cmd_bs", {"m": 2, "n": -2, "witness": False, "verify_bound": 8}),
    (["subgroup", "--hom", "h.json", "--input", "p.json"], "cmd_subgroup", {"input": "p.json", "hom": "h.json"}),
    (["bs", "--witness", "3", "3"], "cmd_bs", {"m": 3, "n": 3, "witness": True, "verify_bound": None}),
]


@pytest.mark.parametrize("argv, handler, attributes", PARSED, ids=[" ".join(a) for a, _, _ in PARSED])
def test_command_lines_parse_as_before(argv, handler, attributes):
    parsed_handler, args = parse(argv)
    assert (parsed_handler.__name__, vars(args)) == (handler, attributes)


@pytest.mark.parametrize("argv, message", [
    ([], "no subcommand given"),
    (["frobnicate"], "unknown subcommand 'frobnicate'"),
    (["bs", "2", "3", "--frob"], "unrecognized argument --frob"),
    (["classify"], "the following arguments are required: -i/--input"),
    (["subgroup", "-i", "p.json"], "the following arguments are required: --hom"),
    (["abels", "--trials", "5"], "the following arguments are required: --prime"),
    (["bs", "2"], "the following arguments are required: n"),
    (["coxeter", "-i"], "argument -i expects a value"),
    (["bs", "2", "3", "--verify-bound"], "argument --verify-bound expects a value"),
    (["abels", "--prime", "x"], "argument --prime: invalid int value: 'x'"),
    (["bs", "2", "3", "4"], "unrecognized argument 4"),
    (["bs", "2", "3", "--witness=yes"], "unrecognized argument --witness=yes"),
    (["lie", "--cat", "sl2"], "unrecognized argument --cat"),
    (["bs", "2", "-2", "--verify", "8"], "unrecognized argument --verify"),
], ids=["no-subcommand", "unknown-subcommand", "unknown-option", "missing-input", "missing-hom",
        "missing-prime", "missing-positional", "input-without-value", "bound-without-value",
        "prime-not-an-int", "third-positional", "flag-with-value", "abbreviated-catalogue",
        "abbreviated-verify-bound"])
def test_usage_errors_exit_two_in_a_fresh_process(argv, message):
    """A malformed command line exits 2 with pbp's or the subcommand's usage line and one error
    line on stderr, and no traceback."""
    proc = subprocess.run([sys.executable, "-m", "pbp", *argv], capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))
    usage_line, error_line = proc.stderr.splitlines()
    assert (proc.returncode, proc.stdout, error_line) == (2, "", f"pbp: error: {message}")
    assert usage_line == f"usage: {usage(argv[0] if argv[:1] and argv[0] in COMMANDS else None)}"


def test_usage_error_returns_two_from_main(capsys):
    assert main(["bs", "2"]) == 2
    assert capsys.readouterr().err == ("usage: pbp bs [-h] [--witness] [--verify-bound L] m n\n"
                                       "pbp: error: the following arguments are required: n\n")


@pytest.mark.parametrize("argv, listed", [
    (["-h"], ["classify", "coxeter", "bs", "lie", "subgroup", "abels"]),
    (["bs", "--help"], ["--witness", "--verify-bound L", "m", "n"]),
], ids=["pbp", "bs"])
def test_help_lists_subcommands_or_options(argv, listed):
    proc = subprocess.run([sys.executable, "-m", "pbp", *argv], capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("usage: pbp ")
    rows = [line.split("  ")[1] for line in proc.stdout.splitlines() if line.startswith("  ")]
    assert rows == listed


def test_lie_refuses_a_file_and_a_catalogue_name(tmp_path, capsys):
    """Given both -i and --catalogue, lie names both and exits 2 instead of ignoring the file."""
    path = write(tmp_path, "alg.json", {"dim": 1, "basis": ["x"]})
    code, out, err = run(capsys, ["lie", "-i", path, "--catalogue", "sl2"])
    assert (code, out) == (2, None)
    assert err == "invalid input: give exactly one of -i algebra.json and --catalogue NAME\n"


@pytest.mark.parametrize("argv", [
    ["classify", "-i", {"kind": "flagged", "flags": {"ends": 2, "simple": True}}],
    ["subgroup", "-i", {"generators": [], "relators": []}, "--hom", {"images": [[0]]}],
    ["subgroup", "-i", {"generators": ["s"], "relators": ["s^2"]}, "--hom", {"images": [[1, 2, 0]]}],
    ["lie", "-i", JACOBI_FAILS],
    ["bs", "0", "1"],
    ["coxeter", "-i", {"n": 2, "m": 5}],
    ["coxeter", "-i", {"n": 2, "m": [[1, 3], 3]}],
    ["classify", "-i", {"kind": "coxeter", "matrix": {"n": 2, "m": 5}}],
    ["subgroup", "-i", {"generators": ["s"], "relators": ["s^2"]}, "--hom", {"images": 5}],
    ["lie", "-i", {"dim": True, "basis": ["x"]}],
    ["lie", "-i", {"dim": 2.5, "basis": ["x", "y"]}],
    ["lie", "-i", {"dim": 2, "basis": "xy"}],
    ["lie", "-i", {"dim": 1, "basis": ["x"], "brackets": [5]}],
    ["subgroup", "-i", {"generators": ["s"], "relators": ["s^2"]}, "--hom", {"images": [[1, "a"]]}],
    ["subgroup", "-i", {"generators": ["s"], "relators": [5]}, "--hom", {"images": [[0]]}],
    ["subgroup", "-i", {"generators": "st", "relators": []}, "--hom", {"images": [[0], [0]]}],
    ["classify", "-i", [1]],
    ["classify", "-i", {"kind": "flagged", "flags": 5}],
    ["classify", "-i", {"kind": "free_product", "factors": 5}],
    ["classify", "-i", {"kind": "flagged", "flags": {"deficiency": "a", "infinite": False}}],
    ["classify", "-i", {"kind": "flagged", "flags": {"vcd": "x"}}],
    ["classify", "-i", {"kind": "bs", "m": "2", "n": "3"}],
    ["classify", "-i", {"kind": "flagged", "flags": {"deficiency": "3"}}],
    ["lie", "-i", lie_bracket_value('"1/0"')],
    ["lie", "-i", lie_bracket_value("Infinity")],
    ["lie", "-i", lie_bracket_value("1e400")],
    ["lie", "-i", lie_bracket_value("true")],
    ["subgroup", "-i", {"generators": ["s"], "relators": ["s^"]}, "--hom", {"images": [[0]]}],
    ["subgroup", "-i", {"generators": ["s"], "relators": ["s^99999999999999999999"]}, "--hom", {"images": [[0]]}],
    ["classify", "-i", {"kind": "coxeter"}],
    ["classify", "-i", {"kind": "bs", "m": 2}],
    ["classify", "-i", {"kind": "direct_product_of_infinite"}],
], ids=["InconsistentInput", "PresentationFormatError", "RelatorNotKilled", "InvalidAlgebra",
        "ZeroParameter", "CoxeterRowsNotAList", "CoxeterRowNotAList", "ClassifyCoxeterRowsNotAList",
        "ImagesNotAList", "LieDimBool", "LieDimFloat", "LieBasisNotAList", "LieBracketNotAnObject",
        "ImageEntryNotAnInteger", "RelatorNotAString", "GeneratorsNotAList", "DescriptorNotAnObject",
        "FlagsNotAnObject", "FactorsNotAList", "DeficiencyNotAnInteger", "VcdNotAnInteger",
         "BsParameterNumericString", "DeficiencyNumericString", "LieValueZeroDenominator",
         "LieValueInfinity", "LieValueOverflow", "LieValueBool", "WordEmptyExponent",
         "WordExponentTooLarge", "CoxeterMatrixMissing", "BsParameterMissing", "CountMissing"])
def test_input_errors_exit_two_in_a_fresh_process(tmp_path, argv):
    """Each pbp input error exits 2 although main loads its module only on demand."""
    argv = [a if isinstance(a, str) else write(tmp_path, f"{i}.json", a) for i, a in enumerate(argv)]
    code, err, _ = run_fresh(argv)
    assert code == 2
    assert err.startswith("invalid input: ") and "Traceback" not in err


@pytest.mark.parametrize("flags, message", [
    ({"l2-betti1-positive": True, "infinite": False},
     "derive/betti-infinite concludes infinite = true, but infinite = false is asserted"),
    ({"vcd": -1}, "vcd must be at least 0, not -1"),
    ({"vcd": 1, "infinite": False}, "derive/vcd concludes infinite = true, but infinite = false is asserted"),
], ids=["ContradictedDerivation", "NegativeVcd", "PositiveVcdFinite"])
def test_refused_flags_exit_two_in_a_fresh_process(tmp_path, flags, message):
    """Flags that contradict a derivation, or leave a flag's domain, exit 2 and name the rule."""
    code, err, _ = run_fresh(["classify", "-i", write(tmp_path, "d.json", {"kind": "flagged", "flags": flags})])
    assert (code, err) == (2, f"invalid input: {message}\n")


def test_a_bug_exits_three_on_one_line(tmp_path, capsys, monkeypatch):
    """An exception that is no input error, a KeyError included, is reported as
    an internal error, not as invalid input."""
    from pbp import classifier

    def broken(descriptor):
        raise KeyError("rule")

    monkeypatch.setattr(classifier, "classify", broken)
    code, out, err = run(capsys, ["classify", "-i", write(tmp_path, "d.json", {"kind": "bs", "m": 2, "n": 3})])
    assert (code, out, err) == (3, None, "internal error: KeyError: 'rule'\n")


BOOL_AND_INT_FLAGS = [name.replace("_", "-") for name, kind in Flags.__annotations__.items()
                      if kind in ("bool | None", "int | None")]


@pytest.mark.parametrize("key", BOOL_AND_INT_FLAGS)
def test_wrongly_typed_flags_exit_two(tmp_path, capsys, key):
    """A bool flag given an integer, or an integer flag given a bool, is invalid input."""
    wrong = True if key in ("vcd", "deficiency") else 1
    path = write(tmp_path, "d.json", {"kind": "flagged", "flags": {key: wrong}})
    code, out, err = run(capsys, ["classify", "-i", path])
    assert (code, out) == (2, None)
    assert err.startswith(f"invalid input: flag {key} must be")


def test_flag_types_are_read_from_the_flags_class():
    from pbp import classifier

    assert (len(classifier._BOOL_FLAGS), len(classifier._INT_FLAGS)) == (8, 2)
    assert classifier._BOOL_FLAGS | classifier._INT_FLAGS == set(BOOL_AND_INT_FLAGS)


def test_src_imports_only_stdlib():
    """Every import in src/pbp is relative, of pbp itself, or of the standard
    library other than dataclasses and typing: importing either would add to
    the start of every CLI process, dataclasses with the methods it generates
    with exec.  Annotation names come from collections.abc instead."""
    allowed = sys.stdlib_module_names - {"dataclasses", "typing"} | {"pbp"}
    foreign = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            top = {name.partition(".")[0] for name in names}
            foreign += [(path.name, name) for name in top - allowed]
    assert not foreign


FLOAT_MATH = {"cos", "sin", "tan", "pi", "sqrt", "exp", "log"}


def test_src_computes_no_floating_point():
    """No verdict depends on floating point: src/pbp names none of math's cos,
    sin, tan, pi, sqrt, exp or log, and calls float() only in the label check
    of CoxeterMatrix.__init__."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        allowed = {
            id(node)
            for cls in tree.body if isinstance(cls, ast.ClassDef) and cls.name == "CoxeterMatrix"
            for fn in cls.body if isinstance(fn, ast.FunctionDef) and fn.name == "__init__"
            for node in ast.walk(fn)
        }
        nodes = list(ast.walk(tree))
        math_names = {alias.asname or alias.name for node in nodes if isinstance(node, ast.Import)
                      for alias in node.names if alias.name == "math"}
        for node in nodes:
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                    and node.value.id in math_names and node.attr in FLOAT_MATH:
                found.append((path.name, node.lineno, f"math.{node.attr}"))
            elif isinstance(node, ast.ImportFrom) and node.module == "math":
                found += [(path.name, node.lineno, alias.name) for alias in node.names
                          if alias.name in FLOAT_MATH | {"*"}]
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float" \
                    and id(node) not in allowed:
                found.append((path.name, node.lineno, "float()"))
    assert found == []


def test_src_draws_random_numbers_only_where_seeded():
    """Only abels (sampling) and poly (seeded Cantor-Zassenhaus) import random;
    every other verdict, the Lie ideal lattice included, is deterministic."""
    users = set()
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            if "random" in {name.partition(".")[0] for name in names}:
                users.add(path.stem)
    assert users == {"abels", "poly"}


def test_src_imports_are_used():
    """Every name a src/pbp module imports, at any depth, is used in that module."""
    unused = []
    for path in sorted(SRC.rglob("*.py")):
        nodes = list(ast.walk(ast.parse(path.read_text(), str(path))))
        imported = {alias.asname or alias.name.partition(".")[0]
                    for node in nodes if isinstance(node, (ast.Import, ast.ImportFrom))
                    for alias in node.names}
        used = {node.id for node in nodes if isinstance(node, ast.Name)}
        unused += [(path.name, name) for name in sorted(imported - used - {"annotations"})]
    assert unused == []


def test_src_parameters_are_read():
    """Every parameter of every function in src/pbp is read in its body.
    self, cls and names that start with _ are exempt, and so is the value
    that Record.__setattr__ refuses to set."""
    unread = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        owner = {id(fn): cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                 for fn in cls.body if isinstance(fn, ast.FunctionDef)}
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.Lambda)):
                continue
            args = fn.args
            params = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg) if a]
            body = fn.body if isinstance(fn, ast.FunctionDef) else [fn.body]
            read = {node.id for stmt in body for node in ast.walk(stmt)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            name = f"{owner[id(fn)]}.{fn.name}" if id(fn) in owner else getattr(fn, "name", "<lambda>")
            unread += [(path.stem, name, p) for p in params
                       if p not in read and p not in ("self", "cls") and not p.startswith("_")
                       and (name, p) != ("Record.__setattr__", "value")]
    assert unread == []


def test_src_private_definitions_are_used():
    """Every module-level private function or class in src/pbp is referenced
    somewhere in src/pbp outside its own definition."""
    defined, used = set(), set()
    for path in sorted(SRC.rglob("*.py")):
        for top in ast.parse(path.read_text(), str(path)).body:
            own = getattr(top, "name", None)
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and own.startswith("_") \
                    and not own.startswith("__"):
                defined.add((path.name, own))
            nodes = list(ast.walk(top))
            used |= {node.id for node in nodes if isinstance(node, ast.Name)} - {own}
            used |= {node.attr for node in nodes if isinstance(node, ast.Attribute)} - {own}
    assert sorted((module, name) for module, name in defined if name not in used) == []


def test_src_internal_public_definitions_are_used():
    """Every module-level public function or class of a module that the pbp
    package exports nothing from is referenced somewhere in src/pbp outside
    its own definition: such a module only serves the others."""
    internal = set(pbp._SUBMODULES) - {module for module, _name in pbp._EXPORTS.values()}
    defined, used = set(), set()
    for path in sorted(SRC.rglob("*.py")):
        for top in ast.parse(path.read_text(), str(path)).body:
            own = getattr(top, "name", None)
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and not own.startswith("_") \
                    and path.stem in internal:
                defined.add((path.stem, own))
            nodes = list(ast.walk(top))
            used |= {node.id for node in nodes if isinstance(node, ast.Name)} - {own}
            used |= {node.attr for node in nodes if isinstance(node, ast.Attribute)} - {own}
    assert {"algebraic", "linalg", "poly"} <= internal
    assert sorted((module, name) for module, name in defined if name not in used) == []



# Public definitions in src/pbp that nothing there references, each with the
# reason it stays; being exported from pbp is no reason by itself.
UNREFERENCED_PUBLIC = {
    ("lie", "algebra_to_json"): "perfbench/climix.py writes its algebra inputs with it",
    ("presentations", "presentation_to_json"): "it writes the JSON that presentation_from_json reads",
    ("bs", "BrittonForm.t_length"): "perfbench reads it",
    ("presentations", "smith_normal_form"): "the dense SNF entry point that the README documents",
    ("coxeter", "tits_form"): "the certified form API that test_acceptance.py and the README's Guarantees read",
    ("coxeter", "signature"): "the certified form API that test_acceptance.py and the README's Guarantees read",
    ("coxeter", "standard_diagram"): "perfbench/workloads.py builds the classical diagrams with it",
}


def referenced_names(tree):
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute)))


def test_src_public_definitions_are_used_or_allowed():
    """Every public module-level function or class, and every public method
    of such a class, in src/pbp is referenced somewhere in src/pbp outside
    its own definition, or is in UNREFERENCED_PUBLIC with its reason; an
    exported name meets the same rule.  A name that only tests use belongs
    in a test oracle."""
    refs, defined = Counter(), []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        refs += referenced_names(tree)
        for top in tree.body:
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                defined.append((path.stem, top.name, top))
            if isinstance(top, ast.ClassDef):
                defined += [(path.stem, f"{top.name}.{node.name}", node)
                            for node in top.body if isinstance(node, ast.FunctionDef)]
    unused = {(module, name) for module, name, node in defined
              if not node.name.startswith("_") and refs[node.name] == referenced_names(node)[node.name]}
    assert all(UNREFERENCED_PUBLIC.values())
    assert sorted(unused) == sorted(UNREFERENCED_PUBLIC)
