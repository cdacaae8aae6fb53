"""Three-dimensional constacyclic codes over prime fields."""

from .gf import FieldSpec, element_order, find_root
from .poly import Poly, cyclotomic_cosets, factor_binomial
from .idempotents import IdempotentFamily, build_constacyclic_idempotents, build_full_idempotents
from .ring3d import RingElement3D, RingParams, unflatten
from .codes import (
    BuiltCode,
    CodeSpec,
    build_code,
    build_dual,
    quasi_twisted_closure,
    self_dual_decide,
    self_dual_feasible,
    validate_spec,
)
from .distance import DistanceResult, min_distance

__version__ = "0.1.0"
