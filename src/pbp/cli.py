"""Command-line interface: JSON verdicts on stdout.

Exit codes: 0 a verdict was produced (UNKNOWN included), 2 invalid or
inconsistent input, 3 an internal verification failed.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import abels as abels_mod
from . import bs as bs_mod
from . import classifier as classifier_mod
from . import coxeter as coxeter_mod
from . import lie as lie_mod
from .presentations import (
    BoundExceeded,
    PresentationFormatError,
    RelatorNotKilled,
    abelianization,
    coset_enumerate,
    presentation_from_json,
    reidemeister_schreier_data,
)
from .verdict import InternalVerificationError
from .words import format_word


def _load(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _emit(obj: dict) -> None:
    json.dump(obj, sys.stdout, indent=2)
    sys.stdout.write("\n")


def cmd_classify(args) -> int:
    descriptor = classifier_mod.descriptor_from_json(_load(args.input))
    verdict = classifier_mod.classify(descriptor)
    _emit(verdict.to_json())
    return 0


def cmd_coxeter(args) -> int:
    matrix = coxeter_mod.coxeter_from_json(_load(args.input))
    _emit(coxeter_mod.coxeter_report(matrix))
    return 0


def cmd_bs(args) -> int:
    verdict = bs_mod.bs_presentable(args.m, args.n)
    out = verdict.to_json()
    if not args.witness and out.get("certificate"):
        out["certificate"] = {
            key: value
            for key, value in out["certificate"].items()
            if key in ("kind", "index", "generator")
        }
    if args.verify_bound is not None:
        if abs(args.m) != abs(args.n) or abs(args.m) < 2:
            raise ValueError("--verify-bound applies to BS(m, +-m) with |m| >= 2")
        big, eta = abs(args.m), (1 if args.m * args.n > 0 else -1)
        group = bs_mod.BSGroup(big, eta * big)
        report = bs_mod.verify_witness(group, bs_mod.witness_subgroup(big, eta), args.verify_bound)
        out["checks"] = {
            "passed": report.passed,
            "index": report.index,
            "abelianization_free_rank": report.abelian.free_rank,
            "abelianization_torsion": list(report.abelian.torsion),
            "failures": list(report.failures),
        }
        if not report.passed:
            raise InternalVerificationError("; ".join(report.failures))
    _emit(out)
    return 0


def cmd_lie(args) -> int:
    if args.catalogue:
        algebra = lie_mod.catalogue(args.catalogue)
    elif args.input:
        algebra = lie_mod.algebra_from_json(_load(args.input))
    else:
        raise ValueError("provide -i algebra.json or --catalogue NAME")
    result = lie_mod.lie_presentable(algebra)
    out = result.to_json(algebra)
    out["algebra"] = {"dim": algebra.dim, "basis": list(algebra.labels)}
    _emit(out)
    return 0


def cmd_subgroup(args) -> int:
    pres = presentation_from_json(_load(args.input))
    hom = _load(args.hom)
    images = [tuple(p) for p in hom["images"]]
    table = coset_enumerate(pres, images)
    data = reidemeister_schreier_data(pres, table)
    invariants = abelianization(data.presentation)
    names = pres.names()
    _emit(
        {
            "index": table.d,
            "subgroup_generators": data.presentation.generator_count,
            "subgroup_relators": data.presentation.relator_count,
            "generator_words": [format_word(w, names) for w in data.generator_words],
            "transversal": [format_word(w, names) for w in data.transversal],
            "abelianization": {
                "free_rank": invariants.free_rank,
                "torsion": list(invariants.torsion),
            },
        }
    )
    return 0


def cmd_abels(args) -> int:
    report = abels_mod.acentral_check(args.prime, trials=args.trials)
    _emit(report.to_json())
    if not report.passed:
        raise InternalVerificationError("acentrality check found counterexamples")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pbp", description="presentability-by-a-product verdicts with certificates"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify a group descriptor")
    p.add_argument("-i", "--input", required=True, help="descriptor JSON file")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("coxeter", help="classify a Coxeter matrix")
    p.add_argument("-i", "--input", required=True, help="matrix JSON file")
    p.set_defaults(func=cmd_coxeter)

    p = sub.add_parser("bs", help="Baumslag-Solitar verdict")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--witness", action="store_true", help="include full witness data")
    p.add_argument("--verify-bound", type=int, default=None, metavar="L",
                   help="run the witness checks with freeness bound L")
    p.set_defaults(func=cmd_bs)

    p = sub.add_parser("lie", help="Lie algebra verdict")
    p.add_argument("-i", "--input", help="algebra JSON file")
    p.add_argument("--catalogue", help="named algebra, e.g. sol or so(2,1) or vr(2,1,1)")
    p.set_defaults(func=cmd_lie)

    p = sub.add_parser("subgroup", help="finite-index subgroup presentation")
    p.add_argument("-i", "--input", required=True, help="presentation JSON file")
    p.add_argument("--hom", required=True, help="JSON file with permutation images")
    p.set_defaults(func=cmd_subgroup)

    p = sub.add_parser("abels", help="acentrality verification over Z[1/p]")
    p.add_argument("--prime", type=int, required=True)
    p.add_argument("--trials", type=int, default=10_000)
    p.set_defaults(func=cmd_abels)

    return parser


_INPUT_ERRORS = (
    ValueError,
    KeyError,
    OSError,
    json.JSONDecodeError,
    classifier_mod.InconsistentInput,
    PresentationFormatError,
    RelatorNotKilled,
    BoundExceeded,
    lie_mod.InvalidAlgebra,
)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InternalVerificationError as exc:
        print(f"internal verification failure: {exc}", file=sys.stderr)
        return 3
    except _INPUT_ERRORS as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
