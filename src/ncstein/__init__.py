"""Numerical laboratory for martingale-type inequalities on matrix algebras.

A d x d complex matrix algebra with the normalized trace plays the role of
a non-commutative probability space. The package computes trace-preserving
conditional expectations onto block and tensor subalgebras, Schatten and
vector-valued sequence norms, evaluates a catalogue of inequalities as
lhs/rhs ratio reports, and searches for extremal sequences to bound best
constants empirically.
"""

from .opcore import (
    INF,
    abs_op,
    conjugate_exponent,
    herm,
    hermitian_eig,
    is_psd,
    ntrace,
    op_norm,
    psd_power,
    sample_hermitian,
    sample_projection_family,
    sample_psd,
    sample_unitary,
    schatten_norm,
)
from .expectation import (
    AdaptedCheck,
    AxiomResiduals,
    CellAverage,
    Filtration,
    Pinching,
    TensorFactor,
    axiom_residuals,
    build_filtration,
    cond_exp,
    is_adapted,
    level_index,
    pinching_from_sizes,
    sample_adapted_positive,
    tower_residual,
)
from .seqnorm import (
    DualCertificate,
    FactorizationWitness,
    LinfBracket,
    NormValue,
    SplitWitness,
    column_q_norm,
    crp_norm,
    l1_norm_positive,
    linf_norm_positive,
    row_2_norm,
)
from .inequality import (
    ClassicalSpace,
    RatioReport,
    embed_process,
    jensen_gap,
    run_inequality,
)
from .search import (
    SearchConfig,
    SearchResult,
    estimate_constant,
    project_adapted,
)

__version__ = "0.1.0"
