"""Steiner triple systems with few parallel classes: constructions, bound
certificates, and exact/heuristic chromatic-index computation."""

from .analysis import (
    ChiResult,
    MaxDisjointResult,
    PCBoundCertificate,
    PCEnumeration,
    PipelineReport,
    SearchBudget,
    chi_lower_from_certificate,
    chromatic_index_exact,
    chromatic_index_heuristic,
    enumerate_parallel_classes,
    max_disjoint_pcs,
    pc_bound_mod3,
    pc_bound_mod3_auto,
    pc_bound_ws,
    theorem1_pipeline,
)
from .constructions import (
    LabelledSTS,
    LatinSquare,
    bose,
    bose_half_sum,
    conjugate_square,
    half_sum_square,
    sts33_fixture,
    verify_cyclic,
    wilson_schreiber,
)
from .core import (
    Colouring,
    PartialParallelClass,
    TripleSystem,
    VerificationReport,
    format_colouring,
    format_sts,
    m_lower,
    min_pc_for_low_chi,
    parse_colouring,
    parse_sts,
    verify_colouring,
    verify_sts,
)
from .factorisation import (
    OneFactorisation,
    factorise_G,
    factorise_component,
    verify_factorisation_properties,
)
from .generator import GenerationError, colouring_survey, random_sts
from .numtheory import (
    SCAN_KINDS,
    NumberProfile,
    f_of,
    number_profile,
    scan_profiles,
    scan_rows,
    subgroup_order,
)

__version__ = "0.1.0"
