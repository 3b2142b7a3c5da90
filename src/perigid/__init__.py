"""Generic rigidity of planar periodic frameworks from colored quotient graphs."""

from .colored_graph import (
    ColoredEdge,
    ColoredGraph,
    ColorVector,
    DevelopmentReport,
    EdgeSubset,
    develop_window,
    sublattice_cover,
    z2_rank,
)
from .direction_network import (
    DirectionAssignment,
    FaithfulRealization,
    faithful_realization,
)
from .errors import (
    BudgetError,
    DomainError,
    GenericitySamplingError,
    InternalConsistencyError,
    ParseError,
    PerigidError,
    StructuralError,
)
from .fileio import parse_colored_graph, serialize_colored_graph
from .linear_rep import (
    PRIME,
    RankReport,
    natural_rows,
    rank_mod_p,
)
from .rigidity import (
    LamanAnalysis,
    OneDVerdict,
    RigidityVerdict,
    decide_rigidity,
    generic_rigidity_rank,
    is_1d_rigid,
    is_ross,
    laman_analysis,
)
from .sparsity import (
    BruteForceReport,
    CircuitReport,
    CountReport,
    Decomposition,
    brute_force_sparsity,
    count_report,
    decompose_two_11k,
    is_11k,
    is_222_sparse,
    is_colored_laman,
    is_colored_laman_sparse,
    max_laman_sparse_subset,
    union_independent,
)

__version__ = "0.1.0"
