"""crsphere: construct and certify CR regular graph embeddings of odd spheres.

The library view of the toolkit:

* :mod:`crsphere.wirtinger` -- exact sparse polynomials in z and zbar with
  Gaussian-rational coefficients and formal Wirtinger derivatives, a
  term-by-term reference evaluation and one batched evaluator;
* :mod:`crsphere.catalog` -- the Ahern-Rudin quartic, its block-sum
  extension, graph embeddings, negative controls, and the exact determinant
  identity;
* :mod:`crsphere.verifier` -- pointwise CR-regularity criteria (independence
  matrix rank, defining-function wedge, brute-force tangent count);
* :mod:`crsphere.certify` -- seeded sampling sweeps, multistart minimization
  of the degeneracy measure, and the 1-D oracle profile;
* :mod:`crsphere.cli` -- the ``crsphere`` command-line front end.

Importing the package does not import numpy: each numerical module imports
it the first time one of its functions uses it (:mod:`crsphere._lazy`), so
the exact layers run without it.
"""

__version__ = "0.1.0"

from .wirtinger import (
    CompiledEvaluator,
    GaussianRational,
    GR_I,
    WPolynomial,
    wirtinger_fd,
)
from .catalog import (
    GraphEmbedding,
    ar_embedding,
    block_sum_embedding,
    block_support_ok,
    eval_embedding,
    make_ar_polynomial,
    make_block_sum,
    make_graph_embedding,
    make_negative_control,
    restrict_to_block,
    verify_ar_identity,
)
from .verifier import (
    IndependenceEvaluator,
    RankToleranceError,
    cr_dim_at,
    defining_functions,
    del_form,
    equivalence_check_many,
    independence_matrix,
    two_form_identity_check,
    point_report,
    wedge,
    wedge_nonzero,
)
from .certify import (
    CertificateReport,
    MinimizeOptions,
    OBJECTIVE_DET_SQ,
    SweepConfig,
    VERDICT_ALL_REGULAR,
    VERDICT_FAILURE,
    VERDICT_MARGINAL,
    ar_det_sq_of_t,
    ar_determinant_profile,
    histogram_csv,
    is_ar_embedding,
    local_minimize,
    multistart_minimize,
    multistart_minimize_many,
    sample_sphere,
    sigma_histogram,
    sweep,
)

__all__ = [
    "__version__",
    # wirtinger
    "CompiledEvaluator", "GaussianRational", "GR_I", "WPolynomial", "wirtinger_fd",
    # catalog
    "GraphEmbedding", "ar_embedding", "block_sum_embedding", "block_support_ok",
    "eval_embedding", "make_ar_polynomial", "make_block_sum",
    "make_graph_embedding", "make_negative_control", "restrict_to_block",
    "verify_ar_identity",
    # verifier
    "IndependenceEvaluator", "RankToleranceError", "cr_dim_at",
    "defining_functions", "del_form", "equivalence_check_many",
    "independence_matrix", "two_form_identity_check", "point_report", "wedge",
    "wedge_nonzero",
    # certify
    "CertificateReport", "MinimizeOptions", "OBJECTIVE_DET_SQ", "SweepConfig",
    "VERDICT_ALL_REGULAR", "VERDICT_FAILURE", "VERDICT_MARGINAL",
    "ar_det_sq_of_t", "ar_determinant_profile", "histogram_csv", "is_ar_embedding",
    "local_minimize", "multistart_minimize", "multistart_minimize_many",
    "sample_sphere", "sigma_histogram", "sweep",
]
