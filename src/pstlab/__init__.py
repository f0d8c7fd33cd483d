"""Graph builders and numerical verifiers for perfect state transfer of
hard-core walkers on weighted paths.

The package splits into construction (graph_core, products, hardcore),
analysis (spectral, partition, tonks) and verification (pst_verify, cli).
"""

from .errors import (
    AsymmetryError,
    ConvergenceError,
    DegeneratePartitionError,
    DuplicateEdgeError,
    FormatError,
    InvalidSizeError,
    InvariantViolationError,
    NonFiniteWeightError,
    NotEquitableError,
    PreconditionError,
    PstlabError,
    ResourceCapError,
)
from .graph_core import (
    DEFAULT_SIZE_CAP,
    WeightedGraph,
    hypercube,
    load_graph,
    reflection_permutation,
    resolve_size_cap,
    save_graph,
    simple_path,
    weighted_path,
)
from .hardcore import (
    ComponentDecomposition,
    DeletionMask,
    SignedDiagonal,
    apply_deletion,
    ascending_labels,
    c_operator,
    commutator_check_antisymmetry,
    component_isomorphism_check,
    decompose_components,
    deletion_mask,
    indistinguishability_partition,
    mirror_partition,
    symmetric_power,
    unit_antisymmetry,
)
from .partition import (
    EquitabilityReport,
    EquivalenceReport,
    Partition,
    PartitionMatrix,
    check_equitable,
    load_partition,
    max_eigenvalue_preservation,
    normalized_partition_matrix,
    orbit_partition,
    qqt_eigenvalue_check,
    quotient,
    quotient_spectrum_subset,
    singleton_evolution_check,
    verify_theorem_equivalences,
)
from .products import (
    OccupationLabel,
    cartesian_power,
)
from .pst_verify import (
    CheckResult,
    ProbeReport,
    VerificationReport,
    conjecture_probe,
    predicted_period_phase,
    predicted_transfer_phase,
    run_case,
    sweep,
)
from .spectral import (
    PST_TOL,
    PstPair,
    SpectralDecomposition,
    eigh,
    eigh_matrix,
    evolve,
    find_pst_pairs,
    is_periodic,
    transfer_amplitude,
)
from .tonks import (
    hc_spectrum,
    verify_corollary1,
)

__version__ = "0.1.0"
