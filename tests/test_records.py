"""The record contract of pbp's value classes: equality and hashing by
field, immutability, keyword construction, pickling and the repr."""

import inspect
import pickle
import re
from fractions import Fraction

import pytest

from pbp import abels, bs, classifier, coxeter, lie, presentations
from pbp.verdict import Answer, Record, TraceEntry, Verdict
from pbp.words import parse_word


def samples() -> list:
    """One hashable instance of every public record class, most of them
    built by the computation that returns them."""
    group = bs.BSGroup(2, -2)
    pres = group.presentation()
    table = presentations.coset_enumerate(pres, bs.cm_x_c2_images(2))
    witness = bs.witness_subgroup(2, -1)
    sol = lie.catalogue("sol")
    split = lie.lie_presentable(lie.catalogue("af+af"))
    matrix = abels.A3Matrix.make(3, Fraction(1, 3), 2, Fraction(5, 9), -1, 2)
    flags = classifier.Flags(infinite=True, vcd=2)
    return [
        TraceEntry("rule", "cite"),
        Verdict(Answer.NO, trace=(TraceEntry("rule", "cite"),)),
        pres,
        table,
        presentations.reidemeister_schreier_data(pres, table),
        presentations.AbelianInvariants(1, (2, 4)),
        coxeter.CoxeterMatrix(((1, 3), (3, 1))),
        coxeter.Signature(1, 0, 1),
        sol,
        lie.Subspace.whole(3),
        lie.ideal_lattice(sol),
        split,
        split.certificate,
        lie.lie_presentable(sol).trace[0],
        group,
        bs.britton_reduce(bs.BSGroup(2, 3), parse_word("t s^3 t^-1 s", ("s", "t"))),
        witness,
        bs.verify_witness(group, witness, 2),
        matrix,
        abels.GammaElement(matrix),
        abels.acentral_check(3, 5),
        flags,
        classifier.GroupDescriptor("flagged", flags=flags),
    ]


SAMPLES = samples()


def test_every_public_record_class_has_a_sample():
    public = {cls for cls in Record.__subclasses__() if not cls.__name__.startswith("_")}
    assert {type(sample) for sample in SAMPLES} == public


@pytest.mark.parametrize("sample", SAMPLES, ids=lambda sample: type(sample).__name__)
def test_record_contract(sample):
    cls = type(sample)
    params = inspect.signature(cls).parameters
    rebuilt = cls(**{name: getattr(sample, name) for name in params})
    assert rebuilt == sample and hash(rebuilt) == hash(sample)
    assert rebuilt is not sample and sample != object()
    for name in [*params, "no_such_field"]:
        with pytest.raises(AttributeError):
            setattr(sample, name, None)
        with pytest.raises(AttributeError):
            delattr(sample, name)
    assert [getattr(rebuilt, name) for name in params] == [getattr(sample, name) for name in params]
    copy = pickle.loads(pickle.dumps(sample))
    assert type(copy) is cls and copy == sample and hash(copy) == hash(sample)


def test_equality_is_within_one_type():
    assert lie.LieCertificate("rule", "cite") != TraceEntry("rule", "cite")
    assert presentations.AbelianInvariants(1) != presentations.AbelianInvariants(1, (2,))


def test_reprs_are_pinned():
    """verify_witness writes the AbelianInvariants repr into its failure text."""
    assert repr(presentations.AbelianInvariants(2)) == "AbelianInvariants(free_rank=2, torsion=())"
    assert repr(coxeter.Signature(1, 0, 1)) == "Signature(p=1, q=0, r=1)"
    assert repr(presentations.CosetTable(2, [[1, 0]])) == "CosetTable(d=2, action=((1, 0),))"


@pytest.mark.parametrize("build, message", [
    (lambda: presentations.AbelianInvariants(0, (1,)), "torsion entries are at least 2"),
    (lambda: presentations.AbelianInvariants(0, (2, 3)), "torsion entries must form a divisibility chain"),
    (lambda: Verdict(Answer.YES), "YES requires a certificate or a concluding rule"),
    (lambda: Verdict(Answer.NO), "NO requires at least one citation"),
    (lambda: bs.BrittonForm(bs.BSGroup(2, 3), 0, ((2, 0),)), "epsilon must be +-1"),
    (lambda: bs.BrittonForm(bs.BSGroup(2, 3), 0, ((1, 1), (-1, 3))), "exponent 3 out of range at position 1"),
    (lambda: bs.BrittonForm(bs.BSGroup(2, 3), 0, ((1, 0), (-1, 0))), "form contains a pinch"),
], ids=["torsion-1", "torsion-chain", "bare-yes", "bare-no", "epsilon", "exponent", "pinch"])
def test_constructors_refuse_what_their_records_forbid(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()
