"""Multi-point algebraic-geometric codes over Kummer extensions y^m = f(x)^lambda."""

from .agcode import LinearCode, brute_force_distance, build_cl, build_comega, evaluation_places
from .curve import KummerCurve, Place, find_roots
from .gf import FiniteField, Matrix
from .rrlattice import (Divisor, LatticePoint, RamificationData, dimension,
                        monomial_divisor, omega_enumerate)
from .weierstrass import (GapBox, PlaceTuple, box_search, floor_divisor, floor_pair_bound,
                          one_point_gaps, pure_gap, pure_gap_box_bound, pure_gaps,
                          semigroup_member)

__all__ = [
    "FiniteField", "Matrix", "KummerCurve", "Place", "find_roots",
    "Divisor", "LatticePoint", "RamificationData", "dimension", "omega_enumerate",
    "monomial_divisor", "PlaceTuple",
    "GapBox", "semigroup_member", "pure_gap", "pure_gaps", "one_point_gaps",
    "box_search", "floor_divisor", "pure_gap_box_bound", "floor_pair_bound", "LinearCode",
    "build_cl", "build_comega", "brute_force_distance", "evaluation_places",
]

__version__ = "0.1.0"
