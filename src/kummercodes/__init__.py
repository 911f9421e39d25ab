"""Multi-point algebraic-geometric codes over Kummer extensions y^m = f(x)^lambda."""

from .agcode import (LinearCode, brute_force_distance, build_cl, build_comega,
                     designed_distance, evaluation_places)
from .curve import KummerCurve, Place, find_roots
from .gf import FiniteField, Matrix
from .rrlattice import (Divisor, LatticePoint, RamificationData, dimension,
                        monomial_divisor, omega_enumerate)
from .weierstrass import (GapBox, PlaceTuple, box_search, floor_divisor, one_point_gaps,
                          pure_gap, pure_gaps, semigroup_member)

__all__ = [
    "FiniteField", "Matrix", "KummerCurve", "Place", "find_roots",
    "Divisor", "LatticePoint", "RamificationData", "dimension", "omega_enumerate",
    "monomial_divisor", "PlaceTuple",
    "GapBox", "semigroup_member", "pure_gap", "pure_gaps", "one_point_gaps",
    "box_search", "floor_divisor", "LinearCode", "build_cl", "build_comega",
    "designed_distance", "brute_force_distance", "evaluation_places",
]

__version__ = "0.1.0"
