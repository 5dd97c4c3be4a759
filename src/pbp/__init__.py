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
"""

from .verdict import Answer, FG_QUALIFIER, InternalVerificationError, TraceEntry, Verdict
from .words import Word, format_word, free_reduce, generator, parse_word
from .presentations import (
    AbelianInvariants,
    BoundExceeded,
    CosetTable,
    FinitePresentation,
    RelatorNotKilled,
    abelianization,
    coset_enumerate,
    deficiency_count,
    kunneth_bound,
    reidemeister_schreier,
    reidemeister_schreier_data,
    rs_counts,
    smith_normal_form,
)
from .coxeter import (
    CoxeterMatrix,
    Signature,
    SymmetricForm,
    coxeter_presentable,
    of_algebra,
    standard_diagram,
    tits_form,
)
from .coxeter import classify as coxeter_classify
from .coxeter import components as coxeter_components
from .coxeter import signature as form_signature
from .lie import (
    IdealLattice,
    InvalidAlgebra,
    LieAlgebra,
    LieCertificate,
    Subspace,
    UnsupportedParams,
    centralizer,
    centre,
    ideal_closure,
    ideal_lattice,
    lie_presentable,
    verify_product_certificate,
)
from .lie import catalogue as lie_catalogue
from .lie import validate as lie_validate
from .bs import (
    BrittonForm,
    BSGroup,
    SubgroupWitness,
    ZeroParameter,
    affine_rep,
    britton_reduce,
    bs_presentable,
    pi_image,
    verify_witness,
    witness_subgroup,
)
from .abels import A3Matrix, GammaElement, acentral_check, gamma_commutes
from .classifier import Flags, GroupDescriptor, InconsistentInput, classify, explain

__version__ = "0.1.0"
