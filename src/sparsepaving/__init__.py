"""Sparse paving matroids: exchange walks, cyclic orderings, flat counts."""

from __future__ import annotations

from .bitset import as_mask, elements, format_set, iter_elements, subset_masks
from .construct import (
    graham_sloane,
    gs_best_class,
    gs_class_sizes,
    random_sparse_paving,
)
from .core import (
    ExplicitMatroid,
    SparsePavingMatroid,
    basis_predicate,
    closure_of,
    dual,
    explicit_minor,
    explicit_rank,
    explicit_validate,
    is_basis,
    minor,
    rank_of,
    relax,
    swap_witnesses,
    to_explicit,
    uniform,
    validate,
)
from .cyclic import (
    average_ch_intervals,
    brute_force_order,
    ch_interval_count,
    check_density,
    find_cyclic_order,
    gabow_cycle,
    gabow_cycle_any,
)
from .errors import (
    DistanceViolation,
    ElementOutOfRange,
    EmptyBases,
    ExchangeAxiomViolation,
    ExchangeViolation,
    GroundSetMismatch,
    InternalCheckError,
    MatroidError,
    NoBasis,
    NotACircuitHyperplane,
    NotAVertex,
    NotBases,
    NotDisjoint,
    ParseError,
    PreconditionViolated,
    RangeError,
    RankOutOfRange,
    ResidueOutOfRange,
    SizeMismatch,
    TooLarge,
    UnionMismatch,
    ValidationError,
)
from .exchange import (
    BasisPairVertex,
    Move,
    Multiset,
    apply_tuple_move,
    apply_white_move,
    bpg_path,
    bpg_vertex,
    graph_connected,
    white2_path,
    white_moves,
)
from .fileio import parse_matroid, serialize_matroid
from .flats import (
    BoundsReport,
    CensusReport,
    bounds,
    cyclic_flats_of,
    flat_histogram,
    zn_census,
)

__version__ = "0.1.0"
