"""Inputs of the cli-mix workload: one ``pbp`` process per input.

``build`` runs in a set-up worker: it writes the input files and returns
one spec per command line.  ``check`` runs in run.py on each process's
stdout; it needs no pbp.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import reference as ref

GOLDEN = Path("tests/golden")
CATALOGUE = ["af", "sol", "sl2", "heisenberg", "so(3)", "af+af"]
PRIMES = (2, 3, 5, 7)
ABELS_TRIALS = 200
# Inputs pbp refuses today (exit 2); they stay in failed_share until decided.
FRONTIER_COXETER = [[1, 2, 101], [2, 1, 103], [101, 103, 1]]
FRONTIER_LIE = "so(4)+so(4)"


def _write(path: Path, obj) -> str:
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def _coxeter_json(rows):
    return {"n": len(rows), "m": [["inf" if v == ref.INF else v for v in row] for row in rows]}


def build(seed: int, out: Path) -> list[dict]:
    import pbp
    import workloads

    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    specs = []

    def add(name, argv, kind, frontier=False, **expect):
        specs.append({"name": name, "argv": argv, "kind": kind, "frontier": frontier, **expect})

    for path in sorted(GOLDEN.glob("*.json")):
        blob = json.loads(path.read_text(encoding="utf-8"))
        file = _write(out / f"classify-{path.stem}.json", blob["descriptor"])
        add(f"classify.{path.stem}", ["classify", "-i", file], "golden", expected=blob["expected"])

    for k in range(10):
        rank = 3 + k % 2
        rows = workloads.random_rows(rng, rank, workloads.PALETTES[k % len(workloads.PALETTES)])
        file = _write(out / f"coxeter-{k}.json", _coxeter_json(rows))
        add(f"coxeter.{k}", ["coxeter", "-i", file], "coxeter", rows=_coxeter_json(rows)["m"])
    file = _write(out / "coxeter-frontier.json", _coxeter_json(FRONTIER_COXETER))
    add("frontier.coxeter.2-101-103", ["coxeter", "-i", file], "coxeter", True,
        rows=FRONTIER_COXETER)

    add("bs.roadmap.2.-2", ["bs", "2", "-2"], "bs", expected="YES", rank=None)
    for k in range(10):
        m = rng.randint(1, 6) * rng.choice((1, -1))
        n = (abs(m) if k % 2 else rng.randint(1, 6)) * rng.choice((1, -1))
        argv = ["bs", str(m), str(n)]
        verify = k in (1, 3) and abs(m) in (2, 3)
        if verify:
            argv += ["--verify-bound", "4"]
        elif k % 3 == 0:
            argv.append("--witness")
        add(f"bs.{m}.{n}", argv, "bs", expected="YES" if abs(m) == abs(n) else "NO",
            rank=2 * abs(m) if verify else None)

    for name in CATALOGUE:
        add(f"lie.{name}", ["lie", "--catalogue", name], "lie", expected=ref.LIE_VERDICTS[name])
    for name, change in (("sl2", workloads.permuted_scaled), ("sol", workloads.dense_unimodular)):
        algebra = pbp.lie.catalogue(name)
        rebased = workloads.rebase(algebra, change(rng, algebra.dim))
        file = _write(out / f"lie-{name}.json", pbp.lie.algebra_to_json(rebased))
        add(f"lie.rebased.{name}", ["lie", "-i", file], "lie", expected=ref.LIE_VERDICTS[name])
    add(f"frontier.lie.{FRONTIER_LIE}", ["lie", "--catalogue", FRONTIER_LIE], "lie", True,
        expected=ref.LIE_VERDICTS[FRONTIER_LIE])

    maps = [(4, False)] * 3 + [(5, True)] * 2
    for k, (degree, alternating) in enumerate(maps):
        a, b, (l, m, n), d = workloads.triangle_map(rng, degree, alternating)
        pres = {"generators": ["a", "b"], "relators": [f"a^{l}", f"b^{m}", " ".join(["a b"] * n)]}
        add(f"subgroup.triangle.{k}",
            ["subgroup", "-i", _write(out / f"pres-{k}.json", pres),
             "--hom", _write(out / f"hom-{k}.json", {"images": [a, b]})],
            "subgroup", images=[a, b], gens=2, rels=3, rank=2 * ref.triangle_genus(l, m, n, d))
    images = workloads.affine_a2_images(2, rng.randrange(3))
    pres = {"generators": ["a", "b", "c"], "relators": workloads.A2_RELATORS}
    add("subgroup.a2.k2",
        ["subgroup", "-i", _write(out / "pres-a2.json", pres),
         "--hom", _write(out / "hom-a2.json", {"images": images})],
        "subgroup", images=images, gens=3, rels=6, rank=2)

    for p in PRIMES:
        add(f"abels.p{p}", ["abels", "--prime", str(p), "--trials", str(ABELS_TRIALS)], "abels")
    return specs


def check(spec: dict, stdout: str) -> str | None:
    """None when the command's output matches the reference."""
    out = json.loads(stdout)
    kind = spec["kind"]
    if kind == "golden":
        got = json.dumps(out, indent=2, sort_keys=True)
        want = json.dumps(spec["expected"], indent=2, sort_keys=True)
        return None if got == want else "output differs from the golden fixture"
    if kind == "coxeter":
        rows = [[ref.INF if v == "inf" else v for v in row] for row in spec["rows"]]
        return ref.check_coxeter(rows, out)
    if kind in ("bs", "lie"):
        if out["answer"] != spec["expected"]:
            return f"answer {out['answer']} != {spec['expected']}"
        if kind == "bs" and spec["rank"] is not None:
            checks = out["checks"]
            if not checks["passed"] or checks["abelianization_free_rank"] != spec["rank"]:
                return f"witness checks {checks} != passed with Z^{spec['rank']}"
        return None
    if kind == "subgroup":
        inv = out["abelianization"]
        result = (out["index"], out["subgroup_generators"], out["subgroup_relators"],
                  inv["free_rank"], tuple(inv["torsion"]))
        return ref.check_kernel(spec["images"], spec["gens"], spec["rels"], spec["rank"], result)
    if kind == "abels":
        ok = out["symbolic"] == "pass" and out["randomized"] == "pass"
        return None if ok else f"acentrality check failed: {out}"
    raise ValueError(f"unknown cli-mix kind {kind!r}")
