"""Recursive spectrum decomposition of perturbed block-diagonal products.

The package certifies, numerically and with explicit constants, that the
spectrum of L_k T^n splits along the block ladder of T, and searches
arithmetic progressions of exponents where the whole product has real
simple spectrum.
"""

from .blocks import BlockStructure
from .cascade import (
    CascadeResult,
    ParameterCascade,
    PhaseWindow,
    cascade_decompose,
    choose_parameters,
    find_subsequence,
    prove_instance,
)
from .graph_transform import (
    SplitCertificate,
    SplitProblem,
    TransformConstants,
    derive_constants,
    invariant_pair,
    solve_eta,
    solve_xi,
    verify_certificate,
)
from .model import DiagonalModel, DiagonalPowers, RotationBlock, ScalarBlock
from .oracle import ScaledSpectrum, match_scaled, product_spectrum
from .scenario import (
    InstanceSpec,
    PerturbationLaw,
    check_angle_independence,
    check_L_conditions,
    generate_instance,
    perturb_to_generic,
    random_model_T,
)

__version__ = "0.1.0"

__all__ = [
    "BlockStructure",
    "CascadeResult",
    "DiagonalModel",
    "DiagonalPowers",
    "InstanceSpec",
    "ParameterCascade",
    "PerturbationLaw",
    "PhaseWindow",
    "RotationBlock",
    "ScalarBlock",
    "ScaledSpectrum",
    "SplitCertificate",
    "SplitProblem",
    "TransformConstants",
    "cascade_decompose",
    "check_L_conditions",
    "check_angle_independence",
    "choose_parameters",
    "derive_constants",
    "find_subsequence",
    "generate_instance",
    "invariant_pair",
    "match_scaled",
    "perturb_to_generic",
    "product_spectrum",
    "prove_instance",
    "random_model_T",
    "solve_eta",
    "solve_xi",
    "verify_certificate",
]
