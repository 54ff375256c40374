"""Canonical labeling for colored graphs from pluggable complete invariants.

Two canonizers, balanced-separator recursion and bounded-rigidity
individualization, turn any invariant backend (WL-1, WL-k, or an exact
brute-force oracle) into a canonical labeling. A rotation-system module covers
orientable embeddings: face tracing, polyhedral and faithful tests, and the
constructive fixing sets that bound rigidity. Brute-force oracles and seeded
generators back every assumption with ground truth at small sizes.
"""

from .errors import (
    BackendCapacityError,
    ContractViolationError,
    FormatError,
    GraphCanonError,
    InvalidGraphError,
    InvalidLabelingError,
    InvariantFailureError,
    NoPolyhedralEmbeddingError,
    OracleCapacityError,
    UnsupportedInputError,
)
from .graph import (
    DEFAULT_ORACLE_CAP,
    CanonicalCode,
    ColoredGraph,
    Labeling,
    apply_permutation,
    are_isomorphic_bf,
    encode,
)
from .mincode import minimum_encoding
from .invariant import (
    BruteForceBackend,
    InvariantBackend,
    Wl1Backend,
    WlkBackend,
    backend_from_selector,
    bf_invariant,
    wl1_refine,
    wlk_refine,
)
from .separator import (
    SeparatorRun,
    canon_separator,
    decompose_flaps,
    find_isomorphism,
    is_separator,
    mark_separating_sequences,
)
from .rigidity import (
    ConsistencyReport,
    FixingCandidate,
    canon_rigidity,
    individualize,
    individualize_plus,
    is_fixing_bf,
    is_fixing_by_invariant,
    rigidity_consistency_check,
)
from .embedding import (
    FacialWalk,
    FixingTripleReport,
    RotationSystem,
    conjugate,
    enumerate_rotation_systems,
    equivalent_embeddings,
    euler_genus,
    fixing_triple,
    is_faithful,
    is_polyhedral,
    polyhedral_fixing_set,
    rotation_from_coordinates,
    rotation_image,
    trace_faces,
    validate_rotation_system,
)
from .oracles import AutomorphismGroup, automorphisms, orbits, rigidity_index
from .generators import (
    Lcg64,
    gen_family,
    manifest_line,
    parse_manifest_line,
    platonic_graph,
    platonic_rotation_system,
)
from .formats import cg_dumps, cg_loads, graph6_dumps, graph6_loads, rs_dumps, rs_loads
from .parallel import Diagnostic, RunStats, parallel_map

__version__ = "0.1.0"

__all__ = [
    "AutomorphismGroup",
    "BackendCapacityError",
    "BruteForceBackend",
    "CanonicalCode",
    "ColoredGraph",
    "ConsistencyReport",
    "ContractViolationError",
    "DEFAULT_ORACLE_CAP",
    "Diagnostic",
    "FacialWalk",
    "FixingCandidate",
    "FixingTripleReport",
    "FormatError",
    "GraphCanonError",
    "InvalidGraphError",
    "InvalidLabelingError",
    "InvariantBackend",
    "InvariantFailureError",
    "Labeling",
    "Lcg64",
    "NoPolyhedralEmbeddingError",
    "OracleCapacityError",
    "RotationSystem",
    "RunStats",
    "SeparatorRun",
    "UnsupportedInputError",
    "Wl1Backend",
    "WlkBackend",
    "apply_permutation",
    "are_isomorphic_bf",
    "automorphisms",
    "backend_from_selector",
    "bf_invariant",
    "canon_rigidity",
    "canon_separator",
    "cg_dumps",
    "cg_loads",
    "conjugate",
    "decompose_flaps",
    "encode",
    "enumerate_rotation_systems",
    "equivalent_embeddings",
    "euler_genus",
    "find_isomorphism",
    "fixing_triple",
    "gen_family",
    "graph6_dumps",
    "graph6_loads",
    "individualize",
    "individualize_plus",
    "is_faithful",
    "is_fixing_bf",
    "is_fixing_by_invariant",
    "is_polyhedral",
    "is_separator",
    "manifest_line",
    "mark_separating_sequences",
    "minimum_encoding",
    "orbits",
    "parallel_map",
    "parse_manifest_line",
    "platonic_graph",
    "platonic_rotation_system",
    "polyhedral_fixing_set",
    "rigidity_consistency_check",
    "rigidity_index",
    "rotation_from_coordinates",
    "rotation_image",
    "rs_dumps",
    "rs_loads",
    "trace_faces",
    "validate_rotation_system",
    "wl1_refine",
    "wlk_refine",
]
