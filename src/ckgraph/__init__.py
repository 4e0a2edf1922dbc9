"""Combinatorial toolkit for graph C*-algebra invariants.

Decide whether a graph algebra is a Cuntz-Krieger algebra and constructively
realize corners, matrix amplifications, and normalizations as graph moves,
with every claim checked at the level of computable invariants: exact
Smith-normal-form K-groups, unit-class profiles, and a graph-monoid rewriting
oracle for projection equivalence.
"""

from .errors import CertificateError, CkGraphError, GraphFormatError, PreconditionError
from .graph import (
    Edge,
    Graph,
    Path,
    VertexClass,
    classify_vertex,
    format_graph,
    graph_fingerprint,
    hereditary_saturated_closure,
    make_path,
    parse_graph,
    reachable_from,
    restrict_to_hereditary,
    shortest_path,
    vertex_simple_cycles_without_exit,
)
from .intmatrix import (
    IntMatrix,
    SnfResult,
    smith_normal_form,
    verify_snf,
)
from .ktheory import (
    CkWitness,
    K0Class,
    KInvariants,
    UnitProfile,
    format_k_invariants,
    is_cuntz_krieger,
    k0_class_divisible,
    k0_class_of,
    k_invariants,
    k_invariants_dict,
    k_presentation_matrix,
)
from .monoid import (
    MvnResult,
    RewriteStep,
    RewriteTrace,
    VertexMultiset,
    contract_at,
    expand_at,
    expansion_profile,
    format_multiset,
    fullness_normalize,
    is_full,
    mvn_equivalent,
    ones,
    parse_multiset,
    path_expansion,
)
from .moves import (
    AddHead,
    AttachHeads,
    CollapseVertex,
    Move,
    MoveLog,
    MoveLogBuilder,
    RemoveSource,
    SourceElision,
    StarSources,
    SubdivideEdge,
    add_head,
    apply_move,
    attach_heads,
    collapse_vertex,
    format_move,
    format_move_log,
    parse_move,
    parse_move_log,
    remove_source,
    replay_move_log,
    source_elision,
    star_sources,
    subdivide_edge,
)
from .pipeline import (
    PipelineResult,
    matrix_amplify,
    normalize_to_ck,
    realize_corner,
    realize_full_corner,
    self_loop_saturate,
)

__all__ = [name for name in dir() if not name.startswith("_")]
