"""Command-line interface: JSON verdicts on stdout.

Exit codes: 0 a verdict was produced (UNKNOWN included), 2 invalid or
inconsistent input, 3 an internal verification failed or any other error
was raised, which is a bug; it is reported on one line, without a traceback.

Each subcommand imports its own modules when it runs, so a process loads
only what its subcommand needs.
"""

from __future__ import annotations

import argparse
import json
import sys

from .verdict import InternalVerificationError, json_int


def _load(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _emit(obj: dict) -> None:
    json.dump(obj, sys.stdout, indent=2)
    sys.stdout.write("\n")


def cmd_classify(args) -> int:
    from .classifier import classify, descriptor_from_json

    verdict = classify(descriptor_from_json(_load(args.input)))
    _emit(verdict.to_json())
    return 0


def cmd_coxeter(args) -> int:
    from .coxeter import coxeter_from_json, coxeter_report

    _emit(coxeter_report(coxeter_from_json(_load(args.input))))
    return 0


def cmd_bs(args) -> int:
    from .bs import BSGroup, bs_presentable, verify_witness, witness_subgroup

    verdict = bs_presentable(args.m, args.n)
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
        group = BSGroup(big, eta * big)
        report = verify_witness(group, witness_subgroup(big, eta), args.verify_bound)
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
    from .lie import algebra_from_json, catalogue, lie_presentable

    if args.catalogue:
        algebra = catalogue(args.catalogue)
    elif args.input:
        algebra = algebra_from_json(_load(args.input))
    else:
        raise ValueError("provide -i algebra.json or --catalogue NAME")
    result = lie_presentable(algebra)
    out = result.to_json()
    out["algebra"] = {"dim": algebra.dim, "basis": list(algebra.labels)}
    _emit(out)
    return 0


def cmd_subgroup(args) -> int:
    from .presentations import (
        abelianization,
        coset_enumerate,
        presentation_from_json,
        reidemeister_schreier_data,
    )
    from .words import format_word

    pres = presentation_from_json(_load(args.input))
    hom = _load(args.hom)
    images = hom.get("images") if isinstance(hom, dict) else None
    if not isinstance(images, list) or any(not isinstance(p, list) for p in images):
        raise ValueError('the --hom file must hold {"images": [permutation, ...]}')
    images = [tuple(json_int(v, "a permutation entry") for v in p) for p in images]
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
    from .abels import acentral_check

    report = acentral_check(args.prime, trials=args.trials)
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
                   help="run the witness checks with freeness bound L: no relation of "
                        "length <= L among the conjugates, found by reducing the words of "
                        "length <= ceil(L/2) and matching their normal forms")
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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InternalVerificationError as exc:
        print(f"internal verification failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:  # every pbp input error is a ValueError
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
