"""Rewriting, truncated power series, and exact-rank checks for finitely
presented noncommutative algebras.

The package has three legs:

* a Diamond-Lemma rewriting engine (oriented rules, ambiguity enumeration,
  confluence certificates, completion, normal-form based identity and
  witness checks),
* truncated noncommutative power series (quasi-inverses, Neumann inverses,
  a square-zero extension by a generator z, and a step-by-step replay of
  the quasi-inverse collapse argument),
* an exact dense linear-algebra laboratory over Q and F_p verifying two
  universal rank inequalities and quantifying rank defects of matrix
  assignments for a factorization witness.
"""

__version__ = "0.1.0"

from .fields import Field, FieldError, Scalar, is_prime
from .ncpoly import (
    EMPTY_WORD,
    FreeAlgebra,
    NcPoly,
    ParseError,
    Word,
    deglex_compare,
    parse_poly,
    word_indices,
    word_of,
)
from .presentations import (
    Presentation,
    PresentationError,
    bundled_preset_names,
    load_presentation,
    parse_presentation,
)
from .ranklab import (
    BoundCheck,
    DefectReport,
    ExactMatrix,
    MasterCheck,
    RankFuzzReport,
    claim_bound_check,
    evaluate_poly,
    fuzz_bound_checks,
    image_intersection_dim,
    master_bound_check,
    obstruction_probe,
    random_assignment,
    random_matrix,
)
from .rewrite import (
    DEFAULT_STEP_BUDGET,
    Ambiguity,
    AmbiguityCheck,
    CompletionResult,
    ConfluenceReport,
    IdentityReport,
    LemmaWitness,
    QuotientCollapseError,
    RewriteRule,
    RewriteSystem,
    StepBudgetExceeded,
    WitnessReport,
    ambiguity_reducts,
    check_confluence,
    complete,
    enumerate_normal_words,
    find_ambiguities,
    normal_form,
    random_poly,
    reduce_once,
    reduction_trace,
    triple_commutator_nf,
    verify_identity_comm3,
    verify_lemma_witness,
)
from .seeding import rng_for
from .seriesring import (
    CollapseReport,
    CollapseStep,
    FinitenessProbe,
    SeriesMatrix,
    SExtElement,
    TruncSeries,
    builtin_collapse_instance,
    circle,
    collapse_demo,
    neumann_inverse,
    quasi_inverse,
    random_radical_matrix,
    random_s_ext,
    random_series,
    stable_finiteness_probe,
)

__all__ = [
    "__version__",
    # fields
    "Field", "FieldError", "Scalar", "is_prime",
    # words and polynomials
    "EMPTY_WORD", "FreeAlgebra", "NcPoly", "ParseError", "Word",
    "deglex_compare", "parse_poly", "word_indices", "word_of",
    # rewriting
    "DEFAULT_STEP_BUDGET", "Ambiguity", "AmbiguityCheck", "CompletionResult",
    "ConfluenceReport", "IdentityReport", "LemmaWitness", "QuotientCollapseError",
    "RewriteRule", "RewriteSystem", "StepBudgetExceeded", "WitnessReport",
    "ambiguity_reducts", "check_confluence", "complete", "enumerate_normal_words",
    "find_ambiguities", "normal_form", "random_poly", "reduce_once",
    "reduction_trace", "triple_commutator_nf", "verify_identity_comm3",
    "verify_lemma_witness",
    # truncated series
    "CollapseReport", "CollapseStep", "FinitenessProbe", "SeriesMatrix",
    "SExtElement", "TruncSeries", "builtin_collapse_instance", "circle",
    "collapse_demo", "neumann_inverse", "quasi_inverse", "random_radical_matrix",
    "random_s_ext", "random_series", "stable_finiteness_probe",
    # exact rank
    "BoundCheck", "DefectReport", "ExactMatrix", "MasterCheck", "RankFuzzReport",
    "claim_bound_check", "evaluate_poly", "fuzz_bound_checks", "image_intersection_dim",
    "master_bound_check", "obstruction_probe", "random_assignment", "random_matrix",
    # presentations
    "Presentation", "PresentationError", "bundled_preset_names", "load_presentation",
    "parse_presentation",
    # seeding
    "rng_for",
]
