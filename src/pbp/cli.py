"""Command-line interface: JSON verdicts on stdout.

Exit codes: 0 a verdict was produced (UNKNOWN included), 2 invalid or
inconsistent input, 3 an internal verification failed or any other error
was raised, which is a bug; it is reported on one line, without a traceback.

Each subcommand imports its own modules when it runs, so a process loads
only what its subcommand needs.
"""

from __future__ import annotations

import json
import sys
from types import SimpleNamespace

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
        witness = witness_subgroup(abs(args.m), args.n // args.m)
        report = verify_witness(BSGroup(args.m, args.n), witness, args.verify_bound)
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

    if bool(args.catalogue) == bool(args.input):
        raise ValueError("give exactly one of -i algebra.json and --catalogue NAME")
    algebra = catalogue(args.catalogue) if args.catalogue else algebra_from_json(_load(args.input))
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


# subcommand: (handler, help, {flags: (attribute, type, default, metavar, help)}).  Flags without a dash
# name the positionals, in order; type bool makes an option a flag, and a default of ... a required one.
COMMANDS = {
    "classify": (cmd_classify, "classify a group descriptor",
                 {"-i --input": ("input", str, ..., "FILE", "descriptor JSON file")}),
    "coxeter": (cmd_coxeter, "classify a Coxeter matrix",
                {"-i --input": ("input", str, ..., "FILE", "matrix JSON file")}),
    "bs": (cmd_bs, "Baumslag-Solitar verdict", {
        "--witness": ("witness", bool, False, "", "include full witness data"),
        "--verify-bound": ("verify_bound", int, None, "L", "check the witness up to relation length L"),
        "m": ("m", int, ..., "", "BS(m, n) parameter"), "n": ("n", int, ..., "", "BS(m, n) parameter")}),
    "lie": (cmd_lie, "Lie algebra verdict", {"-i --input": ("input", str, None, "FILE", "algebra JSON file"),
            "--catalogue": ("catalogue", str, None, "NAME", "named algebra, e.g. sol or so(2,1) or vr(2,1,1)")}),
    "subgroup": (cmd_subgroup, "finite-index subgroup presentation", {
        "-i --input": ("input", str, ..., "FILE", "presentation JSON file"),
        "--hom": ("hom", str, ..., "FILE", "JSON file with permutation images")}),
    "abels": (cmd_abels, "acentrality verification over Z[1/p]", {"--prime": ("prime", int, ..., "P", "a prime"),
              "--trials": ("trials", int, 10_000, "N", "random pairs to check (default 10000)")}),
}


class UsageError(Exception):
    """A malformed command line: (message, the subcommand whose usage applies, or None)."""


def usage(command: str | None, full: bool = False) -> str:
    """pbp's or a subcommand's usage line; with ``full``, the help text that it heads."""
    if command is None:
        line, title, options = "pbp [-h] {%s} ..." % ",".join(COMMANDS), "verdicts with certificates", {}
        rows = "".join(f"\n  {name:<10}{spec[1]}" for name, spec in COMMANDS.items())
    else:
        line, title, options, rows = f"pbp {command} [-h]", COMMANDS[command][1], COMMANDS[command][2], ""
    for flags, (_, _, default, metavar, text) in options.items():
        word = f"{flags.split()[0]} {metavar}".strip()
        line += f" {word}" if default is ... else f" [{word}]"
        rows += f"\n  {flags.replace(' ', ', ') + ' ' + metavar:<20}{text}"
    return f"{line}\n\n{title}\n{rows}" if full else line


def parse(argv: list[str]):
    """(handler, arguments) for a command line; -2 is a negative positional, not an option."""
    tokens = iter(argv)
    command = next(tokens, None)
    if command not in COMMANDS:
        raise UsageError(f"unknown subcommand {command!r}" if command else "no subcommand given", None)
    handler, _, options = COMMANDS[command]
    specs = {flag: spec for flags, spec in options.items() for flag in flags.split()}
    positionals = [flags for flags in options if not flags.startswith("-")]
    values = {spec[0]: spec[2] for spec in options.values()}
    for token in tokens:
        flag, eq, text = token.partition("=") if token.startswith("--") else (token, "", token)
        if (not token.startswith("-") or token[1:].isdigit()) and positionals:
            flag = positionals.pop(0)
        elif flag not in specs or not flag.startswith("-") or eq and specs[flag][1] is bool:
            raise UsageError(f"unrecognized argument {token}", command)
        elif not eq and specs[flag][1] is not bool and (text := next(tokens, None)) is None:
            raise UsageError(f"argument {flag} expects a value", command)
        attribute, kind = specs[flag][:2]
        try:
            values[attribute] = True if kind is bool else kind(text)
        except ValueError:
            raise UsageError(f"argument {flag}: invalid int value: {text!r}", command) from None
    missing = [flags.replace(" ", "/") for flags, spec in options.items() if values[spec[0]] is ...]
    if missing:
        raise UsageError(f"the following arguments are required: {', '.join(missing)}", command)
    return handler, SimpleNamespace(**values)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "-h" in argv or "--help" in argv:
        print(f"usage: {usage(argv[0] if argv[0] in COMMANDS else None, full=True)}")
        return 0
    try:
        handler, args = parse(argv)
    except UsageError as exc:
        print(f"usage: {usage(exc.args[1])}\npbp: error: {exc.args[0]}", file=sys.stderr)
        return 2
    try:
        return handler(args)
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
