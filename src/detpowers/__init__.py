"""Exact power-sum decompositions of the generic determinant.

Everything in this package computes over exact scalars (rationals and
cyclotomic field elements); there is no floating point anywhere.
"""

from .cyclotomic import (
    Cyc,
    cyclotomic_polynomial,
    omega,
)
from .multipoly import (
    LinForm,
    PhaseEvaluator,
    SparsePoly,
    determinant_poly,
    diagonal_product_poly,
    permanent_poly,
)
from .decompositions import (
    SCHEME_BUILDERS,
    SCHEMES,
    BoundsRow,
    PowerDecomposition,
    PowerTerm,
    ProductDecomposition,
    bounds_table,
    classical_decomposition,
    gurvits_decomposition,
    krishna_makam_det3,
    main_decomposition,
    monomial_power_decomposition,
)
from .verify import (
    VerificationReport,
    check_closed_form_coefficients,
    verify_power_decomposition,
    verify_product_identity,
)
from .independence import independence_certificate
from .symmetry import (
    AffinePerm,
    SymElement,
    SymmetryEnumeration,
    check_affine_characterization,
    check_sign_formulas,
    check_symmetry_action,
    conjugate_decomposition,
    enumerate_symmetries,
    mono_membership,
    transpose_closure,
)
from .varieties import (
    ExtraGeneratorReport,
    LocusProof,
    QuadricSet,
    extra_generators,
    locus_proof,
    quadric_generators,
    vanish_on_points,
)

__version__ = "0.1.0"

__all__ = [
    "AffinePerm",
    "BoundsRow",
    "Cyc",
    "ExtraGeneratorReport",
    "LinForm",
    "LocusProof",
    "PhaseEvaluator",
    "PowerDecomposition",
    "PowerTerm",
    "ProductDecomposition",
    "QuadricSet",
    "SCHEMES",
    "SCHEME_BUILDERS",
    "SparsePoly",
    "SymElement",
    "SymmetryEnumeration",
    "VerificationReport",
    "bounds_table",
    "check_affine_characterization",
    "check_closed_form_coefficients",
    "check_sign_formulas",
    "check_symmetry_action",
    "classical_decomposition",
    "conjugate_decomposition",
    "cyclotomic_polynomial",
    "determinant_poly",
    "diagonal_product_poly",
    "enumerate_symmetries",
    "extra_generators",
    "gurvits_decomposition",
    "independence_certificate",
    "krishna_makam_det3",
    "locus_proof",
    "main_decomposition",
    "mono_membership",
    "monomial_power_decomposition",
    "omega",
    "permanent_poly",
    "quadric_generators",
    "transpose_closure",
    "vanish_on_points",
    "verify_power_decomposition",
    "verify_product_identity",
    "__version__",
]
