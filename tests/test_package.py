"""The lazy ``pbp`` namespace: every public name resolves, loading only its module."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pbp

ROOT = Path(__file__).resolve().parents[1]

# The public names of pbp, by defining module; aliases name the attribute there.
PUBLIC = {
    "verdict": "Answer FG_QUALIFIER InternalVerificationError TraceEntry Verdict",
    "words": "Word format_word parse_word",
    "presentations": "AbelianInvariants BoundExceeded CosetTable FinitePresentation RelatorNotKilled"
    " abelianization coset_enumerate reidemeister_schreier_data"
    " rs_counts smith_normal_form",
    "coxeter": "CoxeterMatrix Signature SymmetricForm coxeter_presentable"
    " standard_diagram tits_form",
    "lie": "IdealLattice InvalidAlgebra LieAlgebra LieCertificate Subspace UnsupportedParams"
    " centralizer centre ideal_lattice lie_presentable verify_product_certificate",
    "bs": "BrittonForm BSGroup SubgroupWitness ZeroParameter britton_reduce"
    " bs_presentable verify_witness witness_subgroup",
    "abels": "A3Matrix GammaElement acentral_check gamma_commutes",
    "classifier": "Flags GroupDescriptor InconsistentInput classify",
}
ALIASES = {
    "coxeter_classify": ("coxeter", "classify"),
    "coxeter_components": ("coxeter", "components"),
    "form_signature": ("coxeter", "signature"),
    "lie_catalogue": ("lie", "catalogue"),
    "lie_validate": ("lie", "validate"),
}
EXPORTS = {name: (module, name) for module, names in PUBLIC.items() for name in names.split()}
EXPORTS.update(ALIASES)


def fresh(*args):
    """stdout of a fresh interpreter run with these arguments and pbp on its path."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *args], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_public_names_resolve_to_their_defining_objects():
    assert len(EXPORTS) == 56
    for name, (module, attr) in EXPORTS.items():
        assert getattr(pbp, name) is getattr(importlib.import_module(f"pbp.{module}"), attr), name


def test_star_import_and_dir_list_every_public_name():
    assert sorted(pbp.__all__) == sorted(EXPORTS)
    namespace = {}
    exec("from pbp import *", namespace)
    assert all(namespace[name] is getattr(pbp, name) for name in EXPORTS)
    listed = set(dir(pbp))
    assert listed >= set(EXPORTS) | set(PUBLIC)


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(pbp, "no_such_name")
    assert not hasattr(pbp, "EnumerationBudget")


def test_import_pbp_loads_no_submodule():
    loaded = json.loads(fresh(
        "-c",
        "import json, sys, pbp\n"
        "before = sorted(m for m in sys.modules if m.startswith('pbp'))\n"
        "assert pbp.lie.__name__ == 'pbp.lie' and pbp.lie_presentable.__module__ == 'pbp.lie'\n"
        "after = sorted(m for m in sys.modules if m.startswith('pbp'))\n"
        "print(json.dumps([before, after]))\n"
    ))
    assert loaded == [["pbp"], ["pbp", "pbp.lie", "pbp.linalg", "pbp.poly", "pbp.verdict"]]


def test_traced_cli_still_runs(tmp_path):
    """perfbench/tracecli.py wraps every module from outside before the command runs."""
    out = tmp_path / "aggregate.json"
    stdout = fresh("perfbench/tracecli.py", str(out), "bs", "2", "3")
    assert json.loads(stdout)["answer"] == "NO"
    calls = json.loads(out.read_text())["calls"]
    assert calls["cli.main"] == 1 and calls["bs.bs_presentable"] == 1


def test_subcommands_load_neither_dataclasses_nor_inspect(tmp_path):
    """Each subcommand, in a fresh interpreter, loads beyond a bare interpreter
    neither dataclasses nor inspect, and neither argparse nor the gettext and
    locale that it imports; ``bs 2 -2`` loads no presentations and
    no fractions either, since it neither enumerates cosets nor needs rationals,
    and a flagged descriptor without a presentation loads neither presentations
    nor words."""
    inputs = {
        "matrix.json": {"n": 3, "m": [[1, 3, 3], [3, 1, 7], [3, 7, 1]]},
        "pres.json": {"generators": ["s"], "relators": ["s^2"]},
        "hom.json": {"images": [[1, 0]]},
        "flagged.json": {"kind": "flagged", "flags": {"ends": 2}},
    }
    for name, obj in inputs.items():
        (tmp_path / name).write_text(json.dumps(obj))
    runs = {
        ("abels", "--prime", "3", "--trials", "20"): set(),
        ("bs", "2", "-2"): {"fractions", "pbp.presentations"},
        ("coxeter", "-i", "matrix.json"): set(),
        ("lie", "--catalogue", "sl2"): set(),
        ("subgroup", "-i", "pres.json", "--hom", "hom.json"): set(),
        ("classify", "-i", "flagged.json"): {"pbp.presentations", "pbp.words"},
    }
    for argv, also_absent in runs.items():
        argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
        out = fresh(
            "-c",
            "import io, sys\n"
            "bare = set(sys.modules)\n"
            "from pbp.cli import main\n"
            "sys.stdout = io.StringIO()\n"
            f"code = main({argv!r})\n"
            "sys.stdout = sys.__stdout__\n"
            "print(code, *sorted(set(sys.modules) - bare))\n"
        )
        code, *loaded = out.split()
        assert code == "0", (argv, out)
        never = {"dataclasses", "inspect", "argparse", "gettext", "locale"}
        assert not set(loaded) & (never | also_absent), (argv, loaded)
