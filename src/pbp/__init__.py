"""pbp: presentability-by-a-product verdicts with checkable certificates.

A group is presentable by a product when two commuting infinite subgroups
generate a finite-index subgroup.  This package decides the question for
Coxeter systems (exact bilinear-form signatures), Baumslag-Solitar groups
(Britton normal forms plus an explicit finite-index witness), rational Lie
algebras (complete ideal-lattice enumeration, and the centroid's idempotents
wherever the lattice is infinite or its enumeration does not finish), and
flag-annotated finitely presented groups (a citation-producing rule base).
YES verdicts carry certificates that are re-verified before they are
returned; NO verdicts carry citation traces.

The namespace is lazy (PEP 562): ``import pbp`` loads no submodule, and a
public name such as ``pbp.lie_presentable`` or a submodule such as
``pbp.lie`` loads its module on first use; ``from pbp import *`` binds
every public name.  Each ``pbp`` subcommand loads only the modules it runs,
besides ``pbp.cli`` and ``pbp.verdict``:

    abels      abels
    bs         bs, words; presentations only with --verify-bound
    coxeter    coxeter, algebraic
    lie        lie, linalg, poly
    subgroup   presentations, words
    classify   classifier; presentations and words only for a flagged
               descriptor with a presentation, coxeter (with algebraic) or
               bs only for those descriptor kinds

The README's "CLI start" section gives the import times.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULES = frozenset(
    "abels algebraic bs classifier cli coxeter lie linalg poly presentations verdict words".split()
)

# public name -> (submodule, the name it has there)
_EXPORTS = {
    name: (module, name)
    for module, names in {
        "verdict": "Answer FG_QUALIFIER InternalVerificationError TraceEntry Verdict",
        "words": "Word format_word parse_word",
        "presentations": "AbelianInvariants BoundExceeded CosetTable FinitePresentation"
        " RelatorNotKilled abelianization coset_enumerate reidemeister_schreier_data"
        " rs_counts smith_normal_form",
        "coxeter": "CoxeterMatrix Signature SymmetricForm coxeter_presentable"
        " standard_diagram tits_form",
        "lie": "IdealLattice InvalidAlgebra LieAlgebra LieCertificate Subspace UnsupportedParams"
        " centralizer centre ideal_lattice lie_presentable"
        " verify_product_certificate",
        "bs": "BrittonForm BSGroup SubgroupWitness ZeroParameter britton_reduce"
        " bs_presentable verify_witness witness_subgroup",
        "abels": "A3Matrix GammaElement acentral_check gamma_commutes",
        "classifier": "Flags GroupDescriptor InconsistentInput classify",
    }.items()
    for name in names.split()
} | {
    "coxeter_classify": ("coxeter", "classify"),
    "coxeter_components": ("coxeter", "components"),
    "form_signature": ("coxeter", "signature"),
    "lie_catalogue": ("lie", "catalogue"),
    "lie_validate": ("lie", "validate"),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module, attr = _EXPORTS[name]
    return getattr(importlib.import_module(f"{__name__}.{module}"), attr)


def __dir__() -> list:
    return sorted({*globals(), *__all__, *_SUBMODULES})
