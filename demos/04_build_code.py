"""From a divisor to an explicit code.

Builds the dual (Omega) code of the second worked example: the curve
y^6 = x^5 + x over GF(25), the pure-gap divisor G = 26 P1 + P2, and the
124 evaluation places outside supp(G).  On the small GF(4) Hermitian
curve we then verify a designed bound by brute force.
"""

from kummercodes import (Divisor, FiniteField, KummerCurve, brute_force_distance,
                         build_cl, build_comega, evaluation_places,
                         find_roots, pure_gap_box_bound)
from kummercodes.weierstrass import GapBox, PlaceTuple

F = FiniteField(5, 2, [2, 0, 1])
curve = KummerCurve(F, 6, 1, find_roots(F, [0, 1, 0, 0, 0, 1]))
G = Divisor.make(curve.r, {1: 26, 2: 1})
D = evaluation_places(curve, G)
code = build_comega(curve, G, D)
box = GapBox(PlaceTuple(2), (13, 1), (1, 0))
bound = pure_gap_box_bound(curve, box)
print(f"{curve}\nC_Omega parameters [{code.n}, {code.k}, >= {bound}]")

print("\nbrute-force check on the GF(4) Hermitian curve:")
F4 = FiniteField(2, 2, [1, 1, 1])
herm = KummerCurve(F4, 3, 1, find_roots(F4, [0, 1, 1]))
G4 = Divisor((0, 0), 3)
D4 = evaluation_places(herm, G4)
cl = build_cl(herm, G4, D4)
co = build_comega(herm, G4, D4)
# build_cl and build_comega attach their Goppa bounds to code.bounds.
print(f"  C_L      [{cl.n}, {cl.k}] exact d = {brute_force_distance(cl)}"
      f"  (Goppa bound {dict(cl.bounds)['goppa_L']})")
print(f"  C_Omega  [{co.n}, {co.k}] exact d = {brute_force_distance(co)}"
      f"  (Goppa bound {dict(co.bounds)['goppa_omega']})")
