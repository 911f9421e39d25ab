"""Pure gaps, gap boxes and divisor floors.

On y^6 = x^5 + x over GF(25) (g = 10) we list the pure gaps at the
place pair (P1, P2), search for the best axis-aligned box of pure gaps,
and compute a divisor floor, which keeps the Riemann-Roch space.
"""

from kummercodes import (Divisor, FiniteField, KummerCurve, PlaceTuple,
                         box_search, dimension, find_roots, floor_divisor,
                         pure_gap_box_bound, pure_gaps)

F = FiniteField(5, 2, [2, 0, 1])
curve = KummerCurve(F, 6, 1, find_roots(F, [0, 1, 0, 0, 0, 1]))
print(curve)

pair = PlaceTuple(2)
gaps = pure_gaps(curve, pair, 19)
print(f"\n{len(gaps)} pure gaps at (P1, P2) in the 19 x 19 window")
print("the extreme ones:", sorted(gaps)[-4:])

box, G = box_search(curve, pair, 40)
bound = pure_gap_box_bound(curve, box)
print(f"\nbest box: base={box.base} widths={box.widths}")
print(f"induced G = {G}  ->  designed distance >= {bound}")

H = Divisor.make(curve.r, {1: 8}, 4)  # 7 and 8 are gaps at P1, the floor drops them
flo = floor_divisor(curve, H)
print(f"\nfloor of {H} is {flo}")
print("same Riemann-Roch space:", dimension(curve, flo) == dimension(curve, H))
