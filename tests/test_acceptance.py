"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
report.  Every bound and tolerance is pinned here; none is configurable.
"""

import itertools
import json
import random
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from bs_oracles import britton_reduce_random
from coxeter_oracles import float_matrix, from_rational_matrix
from linalg_oracles import char_poly
from pbp import lie
from pbp.abels import acentral_check
from pbp.bs import (
    BSGroup,
    britton_reduce,
    bs_presentable,
    cm_x_c2_images,
    verify_witness,
    witness_subgroup,
)
from pbp.classifier import classify, descriptor_from_json
from pbp.coxeter import (
    AFFINE,
    FINITE,
    classify as coxeter_classify,
    signature,
    standard_diagram,
    tits_form,
)
from pbp.presentations import (
    AbelianInvariants,
    abelianization,
    coset_enumerate,
    rs_counts,
)
from pbp.verdict import Answer
from pbp.words import Word
from presentations_oracles import (
    deficiency_count,
    kunneth_bound,
    perm_identity,
    perm_mul,
    reidemeister_schreier,
    word_image,
)

FINITE_TYPES = (
    [f"A{n}" for n in range(1, 9)]
    + [f"B{n}" for n in range(2, 9)]
    + [f"D{n}" for n in range(4, 9)]
    + ["E6", "E7", "E8", "F4", "H3", "H4"]
    + [f"I2({m})" for m in range(3, 13)]
)
AFFINE_TYPES = ["A~1", "A~2", "C~2", "G~2", "F~4", "E~8"]


def eig_counts(form, tol=1e-9):
    vals = np.linalg.eigvalsh(np.array(float_matrix(form)))
    return (int((vals > tol).sum()), int((vals < -tol).sum()))


def report(tag, detail):
    print(f"ACCEPTANCE {tag}: PASS ({detail})")


def test_criterion_1_coxeter_catalogue():
    start = time.monotonic()
    mismatches = 0
    for name in FINITE_TYPES:
        matrix = standard_diagram(name)
        parts = coxeter_classify(matrix)
        assert len(parts) == 1
        _, label, sig = parts[0]
        assert label == FINITE and (sig.p, sig.q, sig.r) == (matrix.n, 0, 0), name
        if eig_counts(tits_form(matrix)) != (sig.p, sig.q):
            mismatches += 1
    for name in AFFINE_TYPES:
        matrix = standard_diagram(name)
        parts = coxeter_classify(matrix)
        assert len(parts) == 1
        _, label, sig = parts[0]
        assert label == AFFINE and sig.r == 1 and sig.q == 0, name
        if eig_counts(tits_form(matrix)) != (sig.p, sig.q):
            mismatches += 1
    elapsed = time.monotonic() - start
    assert mismatches == 0
    assert elapsed < 10.0
    report("1", f"{len(FINITE_TYPES)} finite + {len(AFFINE_TYPES)} affine types, "
                f"0 oracle mismatches, {elapsed:.2f}s")


def _random_admissible(rng, n):
    rows = [[Fraction(1)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            den = rng.randint(1, 12)
            value = -Fraction(rng.randint(0, den), den)
            rows[i][j] = rows[j][i] = value
    return rows


def _det3(rows):
    a, b, c = rows[0]
    d, e, f = rows[1]
    g, h, i = rows[2]
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def _connected(rows):
    n = len(rows)
    seen, queue = {0}, [0]
    while queue:
        i = queue.pop()
        for j in range(n):
            if j not in seen and i != j and rows[i][j] != 0:
                seen.add(j)
                queue.append(j)
    return len(seen) == n


def test_criterion_2_admissible_form_properties():
    rng = random.Random(66001)
    violations = 0
    for _ in range(1000):
        rows = _random_admissible(rng, 3)
        sig = signature(from_rational_matrix(rows))
        if sig.p < 2:
            violations += 1
        if _det3(rows) > 0 and sig.p != 3:
            violations += 1
    produced = 0
    while produced < 1000:
        rows = _random_admissible(rng, 4)
        if not _connected(rows):
            continue
        produced += 1
        sig = signature(from_rational_matrix(rows))
        if sig.p < 3:
            violations += 1
    assert violations == 0

    all_minus_one = [[1, -1, -1], [-1, 1, -1], [-1, -1, 1]]
    cp = char_poly(all_minus_one)
    # (x + 1)(x - 2)^2 = x^3 - 3x^2 + 4, low-to-high coefficients
    assert tuple(cp) == (4, 0, -3, 1)
    report("2", "1000 x 3x3 and 1000 x irreducible 4x4 forms, 0 violations; "
                "all-(-1) characteristic polynomial is (x+1)(x-2)^2 exactly")


def test_criterion_3_lie_verdicts():
    start = time.monotonic()
    no_cases = ["af", "sol", "sl2", "so(2,1)", "vr(2,1,1)", "vr(3,1,1)", "vr(2,1,2)"]
    for name in no_cases:
        result = lie.lie_presentable(lie.catalogue(name))
        assert result.answer == Answer.NO, name
        if name == "sol":
            assert len(result.trace) == 4  # exactly four nonzero ideals listed
    yes_cases = ["abelian(2)", "heisenberg", "sl2+sl2"]
    for name in yes_cases:
        algebra = lie.catalogue(name)
        result = lie.lie_presentable(algebra)
        assert result.answer == Answer.YES, name
        ok, reason = lie.verify_product_certificate(algebra, result.certificate)
        assert ok, (name, reason)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    report("3", f"{len(no_cases)} NO + {len(yes_cases)} verified YES, {elapsed:.2f}s")


def test_criterion_4_bs_suite():
    for m in (-3, -2, -1, 1, 2, 3):
        for n in (-3, -2, -1, 1, 2, 3):
            verdict = bs_presentable(m, n)
            expected = Answer.YES if abs(m) == abs(n) else Answer.NO
            assert verdict.answer == expected, (m, n)

    for m in (2, 3):
        for eta in (1, -1):
            group = BSGroup(m, eta * m)
            table = coset_enumerate(group.presentation(), cm_x_c2_images(m))
            assert table.d == 2 * m
            rep = verify_witness(group, witness_subgroup(m, eta), 6)
            assert rep.passed, rep.failures
            sub = reidemeister_schreier(group.presentation(), table)
            assert abelianization(sub) == AbelianInvariants(2 * m)

    group = BSGroup(2, 3)
    rng = random.Random(8080)
    discrepancies = 0
    words = 0
    for length in range(9):
        for tup in itertools.product((1, -1, 2, -2), repeat=length):
            word = Word(tup)
            words += 1
            if britton_reduce(group, word) != britton_reduce_random(group, word, rng):
                discrepancies += 1
    assert discrepancies == 0
    report("4", f"verdict table 6x6 exact; witnesses verified for m in {{2,3}}; "
                f"confluence on {words} words, 0 discrepancies")


def test_criterion_5_subgroup_count_identity():
    rng = random.Random(424242)
    from pbp.presentations import FinitePresentation

    checked = 0
    while checked < 20:
        gens = rng.randint(1, 3)
        degree = rng.randint(2, 5)
        images = []
        for _ in range(gens):
            perm = list(range(degree))
            rng.shuffle(perm)
            images.append(tuple(perm))
        relators = []
        for _ in range(rng.randint(0, 3)):
            word = Word([rng.choice([1, -1]) * rng.randint(1, gens)
                         for _ in range(rng.randint(1, 6))])
            image = word_image(word, images, degree)
            order, acc = 1, image
            while acc != perm_identity(degree):
                acc = perm_mul(acc, image)
                order += 1
            relators.append(word**order)
        pres = FinitePresentation(gens, tuple(relators))
        table = coset_enumerate(pres, images)
        sub = reidemeister_schreier(pres, table)
        assert (sub.generator_count, sub.relator_count) == rs_counts(
            pres.generator_count, pres.relator_count, table.d
        )
        checked += 1
    report("5", "20 random (presentation, quotient) pairs match ((a-1)d+1, bd)")


def test_criterion_6_kunneth_and_deficiency():
    for k in range(2, 11):
        for l in range(2, 11):
            assert kunneth_bound(k, l) <= 0
    assert deficiency_count(BSGroup(7, -3).presentation()) == 1
    assert deficiency_count(BSGroup(2, 3).presentation()) == 1
    report("6", "k + l - kl <= 0 on [2,10]^2; BS presentation deficiency count is 1")


def test_criterion_7_abels_acentrality():
    for p in (2, 3, 5):
        rep = acentral_check(p, trials=10_000)
        assert rep.symbolic_ok
        assert rep.counterexamples == ()
        assert rep.commuting_cases > 0
    report("7", "symbolic identities exact; 3 x 10^4 randomized trials, 0 counterexamples")


def test_criterion_8_classifier_golden_corpus():
    golden = sorted(Path(__file__).parent.glob("golden/*.json"))
    assert len(golden) == 12
    for path in golden:
        blob = json.loads(path.read_text())
        verdict = classify(descriptor_from_json(blob["descriptor"]))
        produced = json.dumps(verdict.to_json(), indent=2, sort_keys=True)
        expected = json.dumps(blob["expected"], indent=2, sort_keys=True)
        assert produced == expected, path.stem
        wrapped = descriptor_from_json(
            {"kind": "flagged", "flags": {"virtually": blob["descriptor"]}}
        )
        assert classify(wrapped).answer.value == blob["expected"]["answer"], path.stem
    report("8", "12 fixtures byte-for-byte; finite-index metamorphic wrap agrees on all")
