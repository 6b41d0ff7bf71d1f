"""Colouring and Ramsey-type invariants of finite non-Abelian groups."""

from .catalog import builtin, dump_group, load_group, resolve_groupspec
from .colouring import (
    Cover,
    SchurResult,
    count_quadruples,
    cover_avoids,
    schur_number,
)
from .corners import (
    PairSet,
    TripartiteGraph,
    WitnessTranscript,
    build_tripartite,
    corner_statistic,
    triangle_count,
    witness_finder,
)
from .errors import (
    ConsistencyError,
    CoverError,
    GroupColourError,
    ParseError,
    SizeLimitError,
    ValidationError,
)
from .groups import (
    ConjugacyData,
    ElementSet,
    GroupTable,
    all_subgroups,
    conjugacy,
    coset_action_kernel,
    direct_product,
    from_cayley_table,
    from_permutations,
    product_set,
)
from .neumann import NeumannArtifacts, build_cover, small_class_set
from .stats import CommutingReport, commuting_probability, is_abelian

__version__ = "0.1.0"
