"""Limit point / limit circle diagnostics for vector Sturm-Liouville
operators with step and delta potentials, and for the block Jacobi
matrices they correspond to."""

from .bridge import (
    ClassifyConfig,
    ConflictingEvidenceError,
    Evidence,
    GalleryEntry,
    Verdict,
    classify,
    equivalence_residual,
    gallery,
    gallery_entry,
    l2_tail_report,
    nodes_to_Z,
    resolve_classification,
)
from .criteria import (
    Diagonal,
    IntervalSeq,
    OffDiagonal,
    cor1_series,
    cor2_series,
    jump_kernel_diag_integral,
    jump_kernel_diag_lower_bound,
    jump_kernel_offdiag_integral,
    kernel_square_integrals,
    solution_kernel_inequality,
    solution_norm_integral,
    t1_series,
    t1_term,
    t2_predicate,
    t5_series,
)
from .jacobi import (
    JacobiBlocks,
    blocks_from_delta,
    carleman_report,
    carleman_spacing_bounds,
    christ_stolz_family,
    cor3_check,
    discrete_cauchy,
    solve_recurrence,
    t4_report,
    t4_term,
    t7_check,
)
from .matcore import frobenius_norm, invert, is_hermitian
from .quasidiff import (
    DeltaNodes,
    Distributional,
    FundamentalPair,
    GeneralTriple,
    LinearSigma,
    QuasiState,
    StepSigma,
    cauchy_kernel,
    fundamental_pair,
    green_form,
    propagate,
)
from .reports import CriterionReport, build_report

__version__ = "0.1.0"
