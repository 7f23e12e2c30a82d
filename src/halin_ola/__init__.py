"""Optimal linear arrangements of Halin graphs.

A Halin graph is a plane tree (minimum internal degree 3 once the cycle is
added) whose leaves are joined by a cycle in embedding order; a
``HalinGraph`` holds only the tree and reads that cycle, ``cycle_order``,
off it.  This package computes optimal linear arrangements for the
recursively-balanced subclass in near-linear time, provides an exact oracle
and structural property checks (``run_suite``, ``check_extremes_are_leaves``)
for small instances, and ships a CLI over stable JSON file formats.
"""

from .errors import (
    BadParam,
    CycleDetected,
    DisconnectedInput,
    DuplicateChild,
    HalinOlaError,
    InvalidSubstrate,
    NotContiguous,
    NotRecursivelyBalanced,
    NotTreeOptimalInput,
    Overlapping,
    ParseError,
    SchemaVersionUnsupported,
    TooLarge,
)
from .graph_core import (
    EmbeddedTree,
    HalinGraph,
    VertexId,
    build_embedded_tree,
    halin_from_tree,
    validate_halin_substrate,
)
from .layout_ops import (
    ArrangementReport,
    Layout,
    la_cost,
    la_total,
    reverse_block,
    sigma_swap,
)
from .tree_ola import (
    OracleResult,
    RbtCertificate,
    SimpleGraph,
    VisitCounter,
    brute_force_ola,
    complete_graph,
    cycle_graph,
    is_recursively_balanced,
    rbt_ola,
)
from .halin_arrange import (
    OlaCertificate,
    SwapStep,
    SwapTrace,
    certify,
    cycle_cost_is_tight,
    direct_rbt_halin_ola,
    halin_lower_bound,
    rearrange_to_halin_ola,
    replay_trace,
    scramble_tree_ola,
)
from .generators import (
    GenSpec,
    all_caterpillar_halins_up_to,
    gen_caterpillar_halin,
    gen_kary_rbt_halin,
    gen_random_halin,
    gen_wheel,
    generate,
    standard_corpus,
)
from .property_suite import (
    ExtremesVerdict,
    InstanceReport,
    SuiteReport,
    check_extremes_are_leaves,
    run_suite,
)
from .io_formats import (
    export_dot,
    instance_metadata,
    parse_instance,
    parse_layout,
    serialize_instance,
    serialize_layout,
)

__version__ = "0.1.0"
