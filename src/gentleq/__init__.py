"""Gentle bound quivers: moves, invariants, families, and verification."""

from .core import (
    BoundQuiver,
    QuiverError,
    QuiverSyntaxError,
    compact_key,
    is_isomorphic,
    make_bound_quiver,
    parse,
    serialize,
    validate,
)
from .families import FamilySpec, build_family, phi_formula, recognize, spec, theorem_list
from .invariant import (
    Phi,
    cartan_matrix,
    degeneracy_class,
    phi,
)
from .moves import (
    Move,
    MoveKind,
    ShiftDirection,
    applicable_moves,
    apply_move,
    shift_relation,
    shift_relation_block,
)
from .orbit import (
    OrbitResult,
    SizeClass,
    enumerate_classes,
    normalize,
    verify_completeness,
    verify_lemma_tables,
    verify_minimality,
    verify_slides,
)

__version__ = "0.1.0"
