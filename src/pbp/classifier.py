"""Citation-producing rules engine for presentability-by-a-product verdicts.

Structured descriptors (Coxeter matrices, Baumslag-Solitar parameters) are
delegated to their exact deciders; flag-annotated descriptors run through a
fixed rule base in which every flag is treated as a user-asserted axiom.
Conflicting conclusions raise InconsistentInput instead of picking a side:
a flag that a derivation concludes (say, a positive first L2-Betti number
makes the group infinite) and that is asserted with the other value is
refused, with the rule named.
"""

from __future__ import annotations

from .verdict import FG_QUALIFIER, Answer, Record, TraceEntry, Verdict, json_int


class InconsistentInput(ValueError):
    """The asserted flags (or fired rules) contradict each other."""


INF_ENDS = "inf"

# --- citations, one per rule family ------------------------------------------

CITE_DELEGATE_COXETER = (
    "Decided by the exact classification of the Coxeter system's bilinear form."
)
CITE_DELEGATE_BS = "Decided by the Baumslag-Solitar parameter criterion |m| = |n|."
CITE_FREE_PRODUCT_YES = (
    "The free product of two groups of order two is infinite dihedral, hence "
    "virtually infinite cyclic and presentable by a product."
)
CITE_FREE_PRODUCT_NO = (
    "A free product of nontrivial groups other than C2 * C2 has infinitely "
    "many ends and is not presentable by a product (Kotschick-Loeh)."
)
CITE_DIRECT_PRODUCT = (
    "A direct product of two infinite groups is presentable by a product via "
    "the identity homomorphism."
)
CITE_CENTRE = (
    "A group with infinite centre C admits the presentation C x G -> G by a product."
)
CITE_FINITE_INDEX = (
    "Presentability by a product is invariant under passage to finite-index "
    "subgroups (Kotschick-Loeh)."
)
CITE_SEIFERT_YES = (
    "An infinite finitely presented three-manifold group is presentable by a "
    "product iff it is the fundamental group of a compact Seifert fibre "
    "space, which has a finite-index subgroup with infinite centre."
)
CITE_SEIFERT_NO = (
    "An infinite finitely presented three-manifold group that is not a "
    "Seifert fibre space group is not presentable by a product (it is either "
    "a Sol-manifold group, excluded by Zariski density in Sol, or a Powers group)."
)
CITE_SIMPLE = "An infinite simple group is not presentable by a product."
CITE_HYPERBOLIC_NO = (
    "An infinite non-elementary Gromov hyperbolic group is not presentable "
    "by a product (Kotschick-Loeh)."
)
CITE_HYPERBOLIC_YES = (
    "An infinite elementary hyperbolic group is virtually infinite cyclic."
)
CITE_TWO_ENDS = "A two-ended group is virtually infinite cyclic, hence presentable by a product."
CITE_INF_ENDS = (
    "A group with infinitely many ends is not presentable by a product (Kotschick-Loeh)."
)
CITE_SCHREIER = (
    "A finitely generated one-ended group in which every finitely generated "
    "normal subgroup is finite or of finite index admits no presentation by "
    "a product of finitely generated groups."
)
CITE_BETTI_VANISHING = (
    "A finitely presented group presentable by a product has vanishing first "
    "L2-Betti number (Kotschick-Loeh), so positivity rules it out."
)
CITE_DEF_TO_BETTI = (
    "Deficiency at most 1 + first L2-Betti number (L2 Morse inequality, "
    "Hillman); deficiency >= 2 therefore forces a positive first L2-Betti number."
)
CITE_DEF_CHARACTERIZATION = (
    "An infinite finitely presented group of positive deficiency is "
    "presentable by a product iff it is infinite cyclic or virtually "
    "F_k x Z (k >= 1); neither structure is asserted, so no verdict follows."
)
CITE_VCD_CHARACTERIZATION = (
    "An infinite finitely presented group of virtual cohomological dimension "
    "at most 2 is presentable by a product iff it is virtually infinite "
    "cyclic or virtually F_k x F_l (k, l >= 1); neither structure is "
    "asserted, so no verdict follows."
)
CITE_ENDS_IMPLY_INFINITE = "A group with at least one end is infinite."
CITE_NONELEMENTARY_INFINITE = "A non-elementary hyperbolic group is infinite."
CITE_POS_DEF_INFINITE = (
    "Positive deficiency gives the abelianization positive rank, so the group "
    "is infinite (and finite presentability is presupposed by the invariant)."
)
CITE_BETTI_INFINITE = "Finite groups have vanishing first L2-Betti number."
CITE_GABORIAU = (
    "A finitely generated group with positive first L2-Betti number has the "
    "normal-subgroup property used here: finitely generated normal subgroups "
    "are finite or of finite index (Gaboriau)."
)
CITE_SCOPE = "Only infinite groups are in scope for presentability by a product."
CITE_VIRTUAL_FORM = {
    "infinite-cyclic": "The infinite cyclic group is presentable by a product via Z x Z -> Z.",
    "free-abelian": "A free abelian group of positive rank has infinite centre.",
    "product-of-free-groups": (
        "F_k x F_l with k, l >= 1 is a direct product of two infinite groups."
    ),
    "free-times-cyclic": "F_k x Z with k >= 1 is a direct product of two infinite groups.",
}


# --- descriptors ---------------------------------------------------------------


class Flags(Record):
    """User-asserted invariants; None means 'not asserted'.

    ``seifert`` asserts that the group is an infinite finitely presented
    three-manifold group which is (True) or is not (False) the fundamental
    group of a compact Seifert fibre space.  ``virtually`` names a group the
    descriptor is virtually isomorphic to: either {"form": ...} with an
    optional rank/ranks, or a full nested descriptor object.
    """

    # the annotations name the fields, in order, and give their types
    infinite: bool | None
    finitely_generated: bool | None
    schreier: bool | None
    ends: int | str | None
    vcd: int | None
    deficiency: int | None
    l2_betti1_positive: bool | None
    hyperbolic: bool | None
    elementary: bool | None
    simple: bool | None
    centre: str | None
    seifert: bool | None
    virtually: dict | None
    __slots__ = tuple(__annotations__)

    def __init__(self, infinite=None, finitely_generated=None, schreier=None, ends=None, vcd=None,
                 deficiency=None, l2_betti1_positive=None, hyperbolic=None, elementary=None,
                 simple=None, centre=None, seifert=None, virtually=None):
        self._set(infinite, finitely_generated, schreier, ends, vcd, deficiency, l2_betti1_positive,
                  hyperbolic, elementary, simple, centre, seifert, virtually)


# the annotation strings (this module postpones annotations), read without typing
_FLAG_TYPES = Flags.__annotations__
# JSON key -> Flags field: the field name with dashes for underscores
_FLAG_KEYS = {name.replace("_", "-"): name for name in _FLAG_TYPES}
# the keys whose JSON value must be a bool, and those that must be an integer
_BOOL_FLAGS = {key for key, name in _FLAG_KEYS.items() if _FLAG_TYPES[name] == "bool | None"}
_INT_FLAGS = {key for key, name in _FLAG_KEYS.items() if _FLAG_TYPES[name] == "int | None"}


class GroupDescriptor(Record):
    __slots__ = ("kind", "coxeter", "bs", "factors", "count", "presentation", "flags")

    def __init__(self, kind: str, coxeter: CoxeterMatrix | None = None, bs: tuple[int, int] | None = None,
                 factors: tuple | None = None, count: int | None = None,
                 presentation: FinitePresentation | None = None, flags: Flags = Flags()):
        """``kind`` is coxeter, bs, free_product, direct_product_of_infinite or flagged."""
        self._set(kind, coxeter, bs, factors, count, presentation, flags)


def descriptor_from_json(obj: dict) -> GroupDescriptor:
    if not isinstance(obj, dict):
        raise ValueError("a descriptor must be a JSON object")
    kind = obj.get("kind")

    def required(key: str):
        if key not in obj:
            raise ValueError(f"a {kind} descriptor needs the key {key!r}")
        return obj[key]

    if kind == "coxeter":
        from .coxeter import coxeter_from_json

        return GroupDescriptor("coxeter", coxeter=coxeter_from_json(required("matrix")))
    if kind == "bs":
        return GroupDescriptor("bs", bs=(json_int(required("m"), "m"), json_int(required("n"), "n")))
    if kind == "free_product":
        raw = obj.get("factors", [])
        if not isinstance(raw, list):
            raise ValueError("factors must be a list")
        factors = tuple(INF_ENDS if f == "inf" else json_int(f, "a factor") for f in raw)
        return GroupDescriptor("free_product", factors=factors)
    if kind == "direct_product_of_infinite":
        return GroupDescriptor("direct_product_of_infinite", count=json_int(required("count"), "count"))
    if kind == "flagged":
        pres = None
        if obj.get("presentation") is not None:
            from .presentations import presentation_from_json

            pres = presentation_from_json(obj["presentation"])
        raw = obj.get("flags", {})
        if not isinstance(raw, dict):
            raise ValueError("flags must be a JSON object")
        unknown = set(raw) - set(_FLAG_KEYS)
        if unknown:
            raise ValueError(f"unknown flags: {sorted(unknown)}")
        values = {_FLAG_KEYS[key]: _flag_value(key, value) for key, value in raw.items()}
        return GroupDescriptor("flagged", presentation=pres, flags=Flags(**values))
    raise ValueError(f"unknown descriptor kind {kind!r}")


def _flag_value(key: str, value):
    """The value of flag ``key`` as the rules read it; ValueError if its JSON type is wrong."""
    if value is None:
        return None
    if key in _BOOL_FLAGS and not isinstance(value, bool):
        raise ValueError(f"flag {key} must be true or false, not {value!r}")
    if key in _INT_FLAGS:
        return json_int(value, f"flag {key}")
    if key == "ends" and value != INF_ENDS:
        return json_int(value, "flag ends")
    if key == "virtually" and not isinstance(value, dict):
        raise ValueError(f"flag virtually must be a JSON object, not {value!r}")
    return value


# --- flag validation and derivations --------------------------------------------


def _with_flag(flags: Flags, name: str, value) -> Flags:
    """``flags`` with the field ``name`` set to ``value``."""
    return Flags(**{field: value if field == name else getattr(flags, field) for field in _FLAG_TYPES})


def _validate_flags(f: Flags) -> None:
    """Refuse a flag outside its domain, or a clash that no derivation states."""

    def clash(message: str):
        raise InconsistentInput(message)

    if f.ends is not None and f.ends not in (0, 1, 2, INF_ENDS):
        clash(f"ends must be 0, 1, 2 or 'inf', not {f.ends!r}")
    if f.centre is not None and f.centre not in ("finite", "infinite"):
        clash("centre must be 'finite' or 'infinite'")
    if f.vcd is not None and f.vcd < 0:
        clash(f"vcd must be at least 0, not {f.vcd}")
    if f.ends == 0 and f.infinite is True:
        clash("ends = 0 asserts a finite group, but infinite = true")
    if f.simple and f.centre == "infinite":
        clash("an infinite-centre group is not simple")
    if f.hyperbolic and f.elementary is False and f.centre == "infinite":
        clash("a non-elementary hyperbolic group cannot have infinite centre")
    if f.vcd == 0 and f.infinite is True:
        clash("virtual cohomological dimension 0 means a finite group")


def _implied(f: Flags, name: str, value: bool, rule: str) -> bool:
    """True if flag ``name`` is not asserted, so ``rule`` sets it to ``value``;
    InconsistentInput if it is asserted with the other value."""
    asserted = getattr(f, name)
    if asserted is not None and asserted != value:
        key, said, got = name.replace("_", "-"), str(value).lower(), str(asserted).lower()
        raise InconsistentInput(f"{rule} concludes {key} = {said}, but {key} = {got} is asserted")
    return asserted is None


def _derive(f: Flags) -> tuple[Flags, list[TraceEntry]]:
    notes: list[TraceEntry] = []

    def set_flag(current: Flags, name: str, value: bool, rule: str, cite: str) -> Flags:
        if _implied(current, name, value, rule):
            notes.append(TraceEntry(rule, cite))
            return _with_flag(current, name, value)
        return current

    if f.ends in (1, 2, INF_ENDS):
        f = set_flag(f, "infinite", True, "derive/ends", CITE_ENDS_IMPLY_INFINITE)
    if f.hyperbolic and f.elementary is False:
        f = set_flag(f, "infinite", True, "derive/non-elementary", CITE_NONELEMENTARY_INFINITE)
    if f.centre == "infinite":
        f = set_flag(f, "infinite", True, "derive/centre", "A group with infinite centre is infinite.")
    if f.deficiency is not None and f.deficiency >= 1:
        f = set_flag(f, "infinite", True, "derive/deficiency", CITE_POS_DEF_INFINITE)
    if f.deficiency is not None and f.deficiency >= 2:
        f = set_flag(f, "l2_betti1_positive", True, "derive/deficiency-betti", CITE_DEF_TO_BETTI)
    if f.l2_betti1_positive:
        f = set_flag(f, "infinite", True, "derive/betti-infinite", CITE_BETTI_INFINITE)
    if f.l2_betti1_positive and f.finitely_generated:
        f = set_flag(f, "schreier", True, "derive/betti-schreier", CITE_GABORIAU)
    return f, notes


# --- conclusions ----------------------------------------------------------------


class _Conclusion(Record):
    __slots__ = ("strength", "entry", "certificate")

    def __init__(self, strength: str, entry: TraceEntry, certificate: dict | None = None):
        """``strength`` is yes, no, no-fg or unknown-info."""
        self._set(strength, entry, certificate)


def _flag_conclusions(f: Flags) -> list[_Conclusion]:
    out: list[_Conclusion] = []

    if f.centre == "infinite":
        out.append(
            _Conclusion("yes", TraceEntry("centre", CITE_CENTRE), {"kind": "infinite-centre"})
        )
    if f.virtually is not None:
        out.extend(_virtually_conclusions(f.virtually))
    if f.seifert is True and f.infinite:
        out.append(
            _Conclusion(
                "yes",
                TraceEntry("seifert", CITE_SEIFERT_YES),
                {"kind": "virtually-infinite-centre"},
            )
        )
    if f.seifert is False and f.infinite:
        out.append(_Conclusion("no", TraceEntry("seifert", CITE_SEIFERT_NO)))
    if f.simple and f.infinite:
        out.append(_Conclusion("no", TraceEntry("simple", CITE_SIMPLE)))
    if f.hyperbolic and f.elementary is False:
        out.append(_Conclusion("no", TraceEntry("hyperbolic", CITE_HYPERBOLIC_NO)))
    if f.hyperbolic and f.elementary is True:
        out.append(
            _Conclusion(
                "yes",
                TraceEntry("hyperbolic", CITE_HYPERBOLIC_YES),
                {"kind": "virtually-infinite-cyclic"},
            )
        )
    if f.ends == 2:
        out.append(
            _Conclusion(
                "yes", TraceEntry("ends", CITE_TWO_ENDS), {"kind": "virtually-infinite-cyclic"}
            )
        )
    if f.ends == INF_ENDS:
        out.append(_Conclusion("no", TraceEntry("ends", CITE_INF_ENDS)))
    if f.schreier and f.finitely_generated and f.ends == 1:
        out.append(_Conclusion("no-fg", TraceEntry("schreier", CITE_SCHREIER)))
    if f.l2_betti1_positive:
        out.append(_Conclusion("no", TraceEntry("small-dim", CITE_BETTI_VANISHING)))
    elif f.deficiency == 1 and f.virtually is None:
        out.append(_Conclusion("unknown-info", TraceEntry("small-dim", CITE_DEF_CHARACTERIZATION)))
    if f.vcd is not None and 1 <= f.vcd <= 2 and f.virtually is None:
        out.append(_Conclusion("unknown-info", TraceEntry("small-dim", CITE_VCD_CHARACTERIZATION)))
    return out


def _virtually_conclusions(spec: dict) -> list[_Conclusion]:
    if "kind" in spec:
        inner = classify(descriptor_from_json(spec))
        strength = {
            Answer.YES: "yes",
            Answer.NO: "no",
            Answer.UNKNOWN: "unknown-info",
            Answer.NOT_APPLICABLE: "not-applicable",
        }[inner.answer]
        head = _Conclusion(
            strength,
            TraceEntry("virtually", CITE_FINITE_INDEX),
            {"kind": "finite-index", "inner": inner.to_json()} if strength == "yes" else None,
        )
        return [head] + [_Conclusion(strength, entry) for entry in inner.trace]
    form = spec.get("form")
    if not isinstance(form, str) or form not in CITE_VIRTUAL_FORM:
        raise ValueError(f"unknown virtually form {form!r}")
    if form == "free-abelian" and json_int(spec.get("rank", 1), "rank") < 1:
        raise ValueError("free-abelian form needs rank >= 1")
    if form == "product-of-free-groups":
        ranks = spec.get("ranks", [1, 1])
        if not isinstance(ranks, list) or len(ranks) != 2 or min(json_int(r, "a rank") for r in ranks) < 1:
            raise ValueError("product-of-free-groups needs two ranks >= 1")
    return [
        _Conclusion(
            "yes",
            TraceEntry("virtually", CITE_FINITE_INDEX),
            {"kind": "virtually", "form": form},
        ),
        _Conclusion("yes", TraceEntry("virtually", CITE_VIRTUAL_FORM[form])),
    ]


# --- the entry point -------------------------------------------------------------


def classify(descriptor: GroupDescriptor) -> Verdict:
    """Verdict for a descriptor; deterministic, most specific rule first."""
    if descriptor.kind == "coxeter":
        from .coxeter import coxeter_presentable

        inner = coxeter_presentable(descriptor.coxeter)
        return inner.with_prefix(TraceEntry("delegate/coxeter", CITE_DELEGATE_COXETER))
    if descriptor.kind == "bs":
        from .bs import bs_presentable

        m, n = descriptor.bs
        inner = bs_presentable(m, n)
        return inner.with_prefix(TraceEntry("delegate/bs", CITE_DELEGATE_BS))
    if descriptor.kind == "free_product":
        return _classify_free_product(descriptor.factors)
    if descriptor.kind == "direct_product_of_infinite":
        if descriptor.count is None or descriptor.count < 2:
            raise ValueError("direct product descriptor needs count >= 2")
        return Verdict(
            Answer.YES,
            certificate={"kind": "direct-product", "count": descriptor.count},
            trace=(TraceEntry("direct-product", CITE_DIRECT_PRODUCT),),
        )
    if descriptor.kind == "flagged":
        return _classify_flagged(descriptor)
    raise ValueError(f"unknown descriptor kind {descriptor.kind!r}")


def _classify_free_product(factors) -> Verdict:
    if factors is None or len(factors) < 2:
        raise ValueError("free product needs at least two factors")
    for f in factors:
        if f != INF_ENDS and (not isinstance(f, int) or f < 2):
            raise ValueError("free product factors must have order >= 2 (or 'inf')")
    if len(factors) == 2 and all(f == 2 for f in factors):
        return Verdict(
            Answer.YES,
            certificate={"kind": "virtually-infinite-cyclic", "group": "infinite dihedral"},
            trace=(TraceEntry("free-product", CITE_FREE_PRODUCT_YES),),
        )
    return Verdict(Answer.NO, trace=(TraceEntry("free-product", CITE_FREE_PRODUCT_NO),))


def _classify_flagged(descriptor: GroupDescriptor) -> Verdict:
    flags = descriptor.flags
    _validate_flags(flags)
    # a finitely presented group is finitely generated
    if descriptor.presentation is not None and _implied(flags, "finitely_generated", True, "derive/presentation"):
        flags = _with_flag(flags, "finitely_generated", True)
    flags, notes = _derive(flags)
    _validate_flags(flags)

    if flags.infinite is False or flags.ends == 0 or flags.vcd == 0:
        return Verdict(Answer.NOT_APPLICABLE, trace=(TraceEntry("scope", CITE_SCOPE),))

    conclusions = _flag_conclusions(flags)
    yes = [c for c in conclusions if c.strength == "yes"]
    no = [c for c in conclusions if c.strength == "no"]
    no_fg = [c for c in conclusions if c.strength == "no-fg"]
    info = [c for c in conclusions if c.strength == "unknown-info"]
    not_applicable = [c for c in conclusions if c.strength == "not-applicable"]

    if not_applicable and not (yes or no or no_fg):
        return Verdict(
            Answer.NOT_APPLICABLE,
            trace=tuple(notes) + tuple(c.entry for c in not_applicable),
        )
    if yes and no:
        raise InconsistentInput(
            f"rules disagree: {yes[0].entry.rule} concludes YES but "
            f"{no[0].entry.rule} concludes NO"
        )

    def assemble(answer: Answer, picked: list[_Conclusion], qualifier=None) -> Verdict:
        trace = tuple(notes) + tuple(c.entry for c in picked)
        certificate = next((c.certificate for c in picked if c.certificate), None)
        return Verdict(answer, qualifier=qualifier, certificate=certificate, trace=trace)

    if yes:
        qualifier = FG_QUALIFIER if no_fg else None
        return assemble(Answer.YES, yes + no_fg, qualifier)
    if no:
        return assemble(Answer.NO, no + no_fg)
    if no_fg:
        return assemble(Answer.NO, no_fg, FG_QUALIFIER)
    if info:
        return assemble(Answer.UNKNOWN, info)
    return Verdict(Answer.UNKNOWN, trace=tuple(notes))

