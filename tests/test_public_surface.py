"""The names ``import sldl`` exports, and the signatures of its lattice entry points and blocks.

A name leaves or joins this list only together with an argued change of the
public surface; an accidental removal fails here.
"""

import inspect

import sldl

PUBLIC_NAMES = [
    "ClassifyConfig", "ConflictingEvidenceError", "CriterionReport", "DeltaNodes", "Diagonal",
    "Distributional", "Evidence", "FundamentalPair", "GalleryEntry", "GeneralTriple",
    "IntervalSeq", "JacobiBlocks", "LinearSigma", "OffDiagonal", "QuasiState", "StepSigma",
    "Verdict", "blocks_from_delta", "build_report", "carleman_report",
    "carleman_spacing_bounds", "cauchy_kernel", "christ_stolz_family", "classify",
    "cor1_series", "cor2_series", "cor3_check", "discrete_cauchy", "equivalence_residual",
    "frobenius_norm", "fundamental_pair", "gallery", "gallery_entry", "green_form", "invert",
    "is_hermitian", "jump_kernel_diag_integral", "jump_kernel_diag_lower_bound",
    "jump_kernel_offdiag_integral", "kernel_square_integrals", "l2_tail_report", "nodes_to_Z",
    "propagate", "resolve_classification", "solution_kernel_inequality", "solution_norm_integral",
    "solve_recurrence", "t1_series", "t1_term", "t2_predicate", "t4_report", "t4_term",
    "t5_series", "t7_check",
]

# the (d, H) entry points, each a thin wrapper that builds a jacobi.Lattice
LATTICE_SIGNATURES = {
    "blocks_from_delta": "(d, H)",
    "t7_check": "(d, H, N: 'int')",
    "cor3_check": "(d, H, N: 'int')",
    "cor2_series": "(d, jumps, channel, threshold: 'float | None' = None)",
    "carleman_spacing_bounds": "(d, n: 'int' = 1)",
}


def test_import_sldl_exports_exactly_the_public_names():
    names = sorted(name for name, value in vars(sldl).items()
                   if not name.startswith("_") and not inspect.ismodule(value))
    assert names == PUBLIC_NAMES


def test_lattice_entry_points_keep_their_signatures():
    for name, params in LATTICE_SIGNATURES.items():
        sig = inspect.signature(getattr(sldl, name))
        assert str(sig.replace(return_annotation=inspect.Signature.empty)) == params


def test_jacobi_blocks_keep_their_fields():
    # storage starts at A_0, B_0: there is no offset field
    sig = inspect.signature(sldl.JacobiBlocks)
    assert str(sig.replace(return_annotation=inspect.Signature.empty)) == (
        "(n: 'int', A: 'np.ndarray', B: 'np.ndarray', provenance: 'Lattice | None' = None)")
