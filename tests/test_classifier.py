import ast
import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pbp import classifier
from pbp.classifier import (
    GroupDescriptor,
    InconsistentInput,
    classify,
    descriptor_from_json,
)
from pbp.verdict import FG_QUALIFIER, Answer, TraceEntry

GOLDEN = sorted(Path(__file__).parent.glob("golden/*.json"))


def flagged(**raw):
    return descriptor_from_json({"kind": "flagged", "flags": raw})


# --- golden corpus: byte-for-byte ------------------------------------------------


@pytest.mark.parametrize("path", GOLDEN, ids=lambda p: p.stem)
def test_golden_fixture(path):
    blob = json.loads(path.read_text())
    verdict = classify(descriptor_from_json(blob["descriptor"]))
    produced = json.dumps(verdict.to_json(), indent=2, sort_keys=True)
    expected = json.dumps(blob["expected"], indent=2, sort_keys=True)
    assert produced == expected


def test_golden_corpus_is_complete():
    assert len(GOLDEN) == 12
    rules = set()
    for path in GOLDEN:
        blob = json.loads(path.read_text())
        for entry in blob["expected"]["trace"]:
            if not entry["rule"].startswith("derive/"):
                rules.add(entry["rule"].split("/")[0])
    # one fixture per rule family
    assert rules >= {
        "delegate", "coxeter", "bs", "free-product", "direct-product",
        "centre", "virtually", "seifert", "simple", "hyperbolic", "ends",
        "schreier", "small-dim",
    }


@pytest.mark.parametrize("path", GOLDEN, ids=lambda p: p.stem)
def test_finite_index_invariance_metamorphic(path):
    blob = json.loads(path.read_text())
    wrapped = descriptor_from_json(
        {"kind": "flagged", "flags": {"virtually": blob["descriptor"]}}
    )
    verdict = classify(wrapped)
    assert verdict.answer.value == blob["expected"]["answer"]
    assert verdict.qualifier == blob["expected"]["qualifier"]


def test_a_wrapped_qualified_yes_keeps_its_qualifier():
    inner = {"kind": "flagged", "flags": {"centre": "infinite", "schreier": True, "finitely-generated": True,
                                          "ends": 1}}
    direct = classify(descriptor_from_json(inner))
    assert (direct.answer, direct.qualifier) == (Answer.YES, FG_QUALIFIER)
    wrapped = classify(flagged(virtually=inner))
    assert (wrapped.answer, wrapped.qualifier) == (Answer.YES, FG_QUALIFIER)
    assert wrapped.certificate == {"kind": "finite-index", "inner": direct.to_json()}
    assert wrapped.trace == (TraceEntry("virtually", classifier.CITE_FINITE_INDEX),) + direct.trace


def test_a_wrapped_qualified_no_beside_a_yes_qualifies_the_yes():
    """As a Schreier group with infinite centre reads YES with the qualifier,
    so does an infinite-centre group virtually a Schreier group."""
    schreier = {"kind": "flagged", "flags": {"schreier": True, "finitely-generated": True, "ends": 1}}
    verdict = classify(flagged(centre="infinite", virtually=schreier))
    assert (verdict.answer, verdict.qualifier) == (Answer.YES, FG_QUALIFIER)
    assert verdict.certificate == {"kind": "infinite-centre"}
    # an unqualified NO beside the qualified one outranks it
    verdict = classify(flagged(ends="inf", virtually=schreier))
    assert (verdict.answer, verdict.qualifier) == (Answer.NO, None)
    assert [entry.rule for entry in verdict.trace][:3] == ["derive/ends", "ends", "virtually"]


FLAGGED = st.recursive(
    st.fixed_dictionaries({}, optional={
        "infinite": st.booleans(), "finitely-generated": st.booleans(), "schreier": st.booleans(),
        "ends": st.sampled_from([0, 1, 2, "inf"]), "vcd": st.integers(0, 3), "deficiency": st.integers(-1, 3),
        "l2-betti1-positive": st.booleans(), "hyperbolic": st.booleans(), "elementary": st.booleans(),
        "simple": st.booleans(), "centre": st.sampled_from(["finite", "infinite"]), "seifert": st.booleans(),
    }).map(lambda flags: {"kind": "flagged", "flags": flags}),
    lambda inner: st.tuples(inner, inner).map(
        lambda pair: {"kind": "flagged", "flags": {**pair[0]["flags"], "virtually": pair[1]}}),
    max_leaves=3,
)


@settings(max_examples=300)
@given(FLAGGED)
def test_virtually_keeps_answer_and_qualifier(inner):
    """A group virtually isomorphic to a flagged one reads its answer and
    qualifier, or both descriptors are refused."""
    try:
        direct = classify(descriptor_from_json(inner))
    except InconsistentInput:
        with pytest.raises(InconsistentInput):
            classify(flagged(virtually=inner))
        return
    wrapped = classify(flagged(virtually=inner))
    assert (wrapped.answer, wrapped.qualifier) == (direct.answer, direct.qualifier)


def test_classify_is_deterministic():
    for path in GOLDEN:
        blob = json.loads(path.read_text())
        first = classify(descriptor_from_json(blob["descriptor"]))
        second = classify(descriptor_from_json(blob["descriptor"]))
        assert first == second


# --- individual rules: positive and negative fixtures ------------------------------


def test_centre_rule():
    assert classify(flagged(centre="infinite")).answer == Answer.YES
    assert classify(flagged(centre="finite")).answer == Answer.UNKNOWN


def test_free_product_rules():
    yes = descriptor_from_json({"kind": "free_product", "factors": [2, 2]})
    assert classify(yes).answer == Answer.YES
    no = descriptor_from_json({"kind": "free_product", "factors": [2, 3]})
    assert classify(no).answer == Answer.NO
    three = descriptor_from_json({"kind": "free_product", "factors": [2, 2, 2]})
    assert classify(three).answer == Answer.NO
    inf = descriptor_from_json({"kind": "free_product", "factors": [2, "inf"]})
    assert classify(inf).answer == Answer.NO
    with pytest.raises(ValueError):
        classify(descriptor_from_json({"kind": "free_product", "factors": [2]}))
    with pytest.raises(ValueError):
        classify(descriptor_from_json({"kind": "free_product", "factors": [1, 5]}))


def test_simple_rule_needs_infinite():
    assert classify(flagged(simple=True, infinite=True)).answer == Answer.NO
    assert classify(flagged(simple=True)).answer == Answer.UNKNOWN


def test_seifert_rule_needs_infinite():
    assert classify(flagged(seifert=True, infinite=True)).answer == Answer.YES
    assert classify(flagged(seifert=True)).answer == Answer.UNKNOWN
    assert classify(flagged(seifert=False, infinite=True)).answer == Answer.NO


def test_hyperbolic_rules():
    assert classify(flagged(hyperbolic=True, elementary=False)).answer == Answer.NO
    v = classify(flagged(hyperbolic=True, elementary=True, infinite=True))
    assert v.answer == Answer.YES
    assert classify(flagged(hyperbolic=True)).answer == Answer.UNKNOWN


def test_ends_rules():
    assert classify(flagged(ends=2)).answer == Answer.YES
    assert classify(flagged(ends="inf")).answer == Answer.NO
    assert classify(flagged(ends=0)).answer == Answer.NOT_APPLICABLE
    assert classify(flagged(ends=1)).answer == Answer.UNKNOWN


def test_vcd_zero_is_out_of_scope_like_zero_ends():
    """vcd 0 means a finite group, so it reads NOT_APPLICABLE with the scope
    trace, as ends 0 does."""
    for flags in ({"vcd": 0}, {"vcd": 0, "ends": 0}, {"vcd": 0, "infinite": False}):
        verdict = classify(flagged(**flags))
        assert verdict.answer == Answer.NOT_APPLICABLE
        assert [entry.rule for entry in verdict.trace] == ["scope"]
    # vcd >= 1 derives an infinite group, and the derivation opens the trace
    verdict = classify(flagged(vcd=1))
    assert verdict.answer == Answer.UNKNOWN
    assert [entry.rule for entry in verdict.trace] == ["derive/vcd", "small-dim"]


def test_schreier_rule_and_negatives():
    full = classify(flagged(schreier=True, **{"finitely-generated": True}, ends=1))
    assert full.answer == Answer.NO
    assert full.qualifier == FG_QUALIFIER
    # drop any one hypothesis and the rule goes silent
    assert classify(flagged(schreier=True, ends=1)).answer == Answer.UNKNOWN
    assert (
        classify(flagged(schreier=True, **{"finitely-generated": True})).answer
        == Answer.UNKNOWN
    )


def test_betti_and_deficiency_rules():
    assert classify(flagged(**{"l2-betti1-positive": True})).answer == Answer.NO
    assert classify(flagged(deficiency=2)).answer == Answer.NO
    one = classify(flagged(deficiency=1))
    assert one.answer == Answer.UNKNOWN
    assert any("positive deficiency" in t.cite for t in one.trace)
    vcd = classify(flagged(vcd=2, infinite=True))
    assert vcd.answer == Answer.UNKNOWN
    assert any("cohomological" in t.cite for t in vcd.trace)


def test_virtually_named_forms():
    for form in (
        {"form": "infinite-cyclic"},
        {"form": "free-abelian", "rank": 3},
        {"form": "product-of-free-groups", "ranks": [1, 4]},
        {"form": "free-times-cyclic", "rank": 2},
    ):
        assert classify(flagged(virtually=form)).answer == Answer.YES
    with pytest.raises(ValueError):
        classify(flagged(virtually={"form": "perfect"}))
    with pytest.raises(ValueError):
        classify(flagged(virtually={"form": "product-of-free-groups", "ranks": [0, 1]}))


def test_virtually_nested_descriptor():
    wrapped = flagged(virtually={"kind": "bs", "m": 2, "n": 3})
    assert classify(wrapped).answer == Answer.NO
    wrapped = flagged(virtually={"kind": "bs", "m": 3, "n": -3})
    assert classify(wrapped).answer == Answer.YES


def test_virtually_a_finite_coxeter_group_is_not_applicable():
    # the finite group A3 is out of scope, and so is every group it is virtually
    wrapped = flagged(virtually={"kind": "coxeter", "matrix": {"n": 3, "m": [[1, 3, 2], [3, 1, 3], [2, 3, 1]]}})
    assert classify(wrapped).answer == Answer.NOT_APPLICABLE


def test_delegation_matches_direct_calls():
    from pbp.bs import bs_presentable
    from pbp.coxeter import coxeter_presentable, standard_diagram

    for m, n in [(1, 1), (2, 2), (2, 3), (3, -3), (1, -5)]:
        delegated = classify(descriptor_from_json({"kind": "bs", "m": m, "n": n}))
        assert delegated.answer == bs_presentable(m, n).answer
    for name in ["A3", "A~2", "E8", "I2(7)"]:
        matrix = standard_diagram(name)
        delegated = classify(GroupDescriptor("coxeter", coxeter=matrix))
        assert delegated.answer == coxeter_presentable(matrix).answer


# --- flag validation ----------------------------------------------------------------


def test_inconsistent_flags_rejected():
    with pytest.raises(InconsistentInput):
        classify(flagged(ends=2, infinite=False))
    with pytest.raises(InconsistentInput):
        classify(flagged(simple=True, centre="infinite"))
    with pytest.raises(InconsistentInput):
        classify(flagged(hyperbolic=True, elementary=False, centre="infinite"))
    with pytest.raises(InconsistentInput):
        classify(flagged(ends=0, infinite=True))
    with pytest.raises(InconsistentInput):
        classify(flagged(deficiency=2, infinite=False))


@pytest.mark.parametrize("flags, message", [
    ({"ends": 3}, "ends must be 0, 1, 2 or 'inf', not 3"),
    ({"centre": "huge"}, "centre must be 'finite' or 'infinite'"),
    pytest.param({"centre": "infinite", "infinite": False},
                 "derive/centre concludes infinite = true, but infinite = false is asserted", id="derive-centre"),
    pytest.param({"vcd": 0, "infinite": True}, "virtual cohomological dimension 0 means a finite group",
                 id="vcd-zero-infinite"),
    pytest.param({"vcd": 1, "ends": 0}, "ends = 0 asserts a finite group, but infinite = true",
                 id="vcd-one-zero-ends"),
])
def test_clashing_flags_name_the_clash(flags, message):
    with pytest.raises(InconsistentInput, match=f"^{re.escape(message)}$"):
        classify(flagged(**flags))


@pytest.mark.parametrize("flags, presented, message", [
    ({"l2-betti1-positive": True, "infinite": False}, False,
     "derive/betti-infinite concludes infinite = true, but infinite = false is asserted"),
    ({"hyperbolic": True, "elementary": False, "infinite": False}, False,
     "derive/non-elementary concludes infinite = true, but infinite = false is asserted"),
    ({"deficiency": 2, "l2-betti1-positive": False}, False,
     "derive/deficiency-betti concludes l2-betti1-positive = true, but l2-betti1-positive = false is asserted"),
    ({"l2-betti1-positive": True, "finitely-generated": True, "schreier": False, "ends": 1}, False,
     "derive/betti-schreier concludes schreier = true, but schreier = false is asserted"),
    ({"finitely-generated": False, "ends": 1, "schreier": True}, True,
     "derive/presentation concludes finitely-generated = true, but finitely-generated = false is asserted"),
    ({"vcd": -1}, False, "vcd must be at least 0, not -1"),
    ({"vcd": 1, "infinite": False}, False, "derive/vcd concludes infinite = true, but infinite = false is asserted"),
    ({"vcd": 2, "infinite": False}, False, "derive/vcd concludes infinite = true, but infinite = false is asserted"),
], ids=["betti-infinite", "non-elementary", "deficiency-betti", "betti-schreier", "presentation", "negative-vcd",
        "vcd-one", "vcd-two"])
def test_contradicted_derivations_and_negative_vcd_are_refused(flags, presented, message):
    """A flag asserted against what a derivation concludes is refused with the rule named."""
    obj = {"kind": "flagged", "flags": flags}
    if presented:
        obj["presentation"] = {"generators": ["a", "b"], "relators": []}
    with pytest.raises(InconsistentInput, match=f"^{re.escape(message)}$"):
        classify(descriptor_from_json(obj))


# The implications between flags, restated from the paper's invariants: each
# is (rule, premise on the flags after derivation, JSON key, concluded value).
# The last needs a presentation, which the test passes as the key "presented".
IMPLICATIONS = [
    ("derive/ends", lambda f: f.get("ends") in (1, 2, "inf"), "infinite", True),
    ("derive/vcd", lambda f: f.get("vcd", 0) >= 1, "infinite", True),
    ("derive/non-elementary", lambda f: f.get("hyperbolic") is True and f.get("elementary") is False,
     "infinite", True),
    ("derive/centre", lambda f: f.get("centre") == "infinite", "infinite", True),
    ("derive/deficiency", lambda f: f.get("deficiency", 0) >= 1, "infinite", True),
    ("derive/deficiency-betti", lambda f: f.get("deficiency", 0) >= 2, "l2-betti1-positive", True),
    ("derive/betti-infinite", lambda f: f.get("l2-betti1-positive") is True, "infinite", True),
    ("derive/betti-schreier", lambda f: f.get("l2-betti1-positive") is True and f.get("finitely-generated") is True,
     "schreier", True),
    ("derive/presentation", lambda f: f.get("presented", False), "finitely-generated", True),
]


def test_every_derivation_is_restated_as_an_implication():
    """The rules of ``_derive``'s ``set_flag`` calls, the presentation rule
    among them, are the rules of IMPLICATIONS, so the hypothesis test below
    covers every derivation."""
    tree = ast.parse(Path(classifier.__file__).read_text())
    rules = [call.args[3].value for call in ast.walk(tree)
             if isinstance(call, ast.Call) and getattr(call.func, "id", None) in ("set_flag", "_implied")
             and isinstance(call.args[3], ast.Constant)]
    assert sorted(rules) == sorted(rule for rule, *_ in IMPLICATIONS)


def test_flagged_rules_conclude_verdicts():
    """The rules conclude ``Verdict``s, so no second answer vocabulary (a
    conclusion class or strength strings) can drop a qualifier on the way."""
    tree = ast.parse(Path(classifier.__file__).read_text())
    classes = {node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}
    assert classes == {"InconsistentInput", "Flags", "GroupDescriptor"}
    strengths = {"yes", "no", "no-fg", "unknown-info", "not-applicable"}
    assert not [node.value for node in ast.walk(tree)
                if isinstance(node, ast.Constant) and node.value in strengths]


FLAG_VALUES = {
    "infinite": st.booleans(), "finitely-generated": st.booleans(), "schreier": st.booleans(),
    "ends": st.sampled_from([0, 1, 2, "inf"]), "vcd": st.integers(0, 3), "deficiency": st.integers(-1, 3),
    "l2-betti1-positive": st.booleans(), "hyperbolic": st.booleans(), "elementary": st.booleans(),
    "simple": st.booleans(), "centre": st.sampled_from(["finite", "infinite"]), "seifert": st.booleans(),
}


def derived(asserted: dict) -> dict:
    """The asserted flags with every implication whose premise holds set where unasserted."""
    flags = dict(asserted)
    grown = True
    while grown:
        grown = False
        for _rule, premise, key, value in IMPLICATIONS:
            if premise(flags) and key not in flags:
                flags[key], grown = value, True
    return flags


@settings(max_examples=300)
@given(st.fixed_dictionaries({}, optional=FLAG_VALUES), st.booleans())
def test_no_verdict_contradicts_an_implication(flags, presented):
    """Flags that contradict an implication are refused; any verdict given respects them all."""
    obj = {"kind": "flagged", "flags": flags}
    if presented:
        obj["presentation"] = {"generators": ["a", "b"], "relators": []}
    closure = derived({**flags, "presented": presented})
    contradicted = [key for _rule, premise, key, value in IMPLICATIONS
                    if premise(closure) and closure[key] != value]
    if contradicted:
        with pytest.raises(InconsistentInput):
            classify(descriptor_from_json(obj))
        return
    try:
        verdict = classify(descriptor_from_json(obj))
    except InconsistentInput:
        return
    if closure.get("infinite"):
        assert verdict.answer != Answer.NOT_APPLICABLE


def test_conflicting_rules_rejected():
    with pytest.raises(InconsistentInput):
        classify(flagged(ends=2, simple=True))


def test_unknown_flag_rejected():
    with pytest.raises(ValueError):
        descriptor_from_json({"kind": "flagged", "flags": {"amenable": True}})


@pytest.mark.parametrize("flags", [
    {"deficiency": "a", "infinite": False},
    {"vcd": "x"},
    {"deficiency": True},
    {"ends": [1]},
    {"infinite": "false"},
    {"seifert": 1},
    {"virtually": 5},
    {"virtually": {"form": ["free-abelian"]}},
    {"virtually": {"form": "product-of-free-groups", "ranks": 5}},
])
def test_wrongly_typed_flags_rejected(flags):
    """A flag of the wrong JSON type is invalid input, not a crash in the rules."""
    with pytest.raises(ValueError):
        classify(descriptor_from_json({"kind": "flagged", "flags": flags}))


def test_presentation_implies_finitely_generated():
    desc = descriptor_from_json(
        {
            "kind": "flagged",
            "presentation": {"generators": ["a"], "relators": []},
            "flags": {"schreier": True, "ends": 1},
        }
    )
    v = classify(desc)
    assert v.answer == Answer.NO and v.qualifier == FG_QUALIFIER
