"""Riemann-Roch spaces as lattice point sets.

The space L(G) of a divisor supported on P_1..P_r, P_inf has a monomial
basis z^i prod (x - alpha_mu)^{j_mu} indexed by integer tuples.  This
script enumerates the basis for the divisor of the fourth worked
example (y^9 = x^4 + x^2 + x over GF(64)) and prints the pole-order
tuples, then shows the dimension law ell(G) = deg(G) + 1 - g for large
degrees.
"""

from kummercodes import (Divisor, FiniteField, KummerCurve, dimension,
                         find_roots, monomial_divisor, omega_enumerate)

F = FiniteField(2, 6, [1, 1, 0, 0, 0, 0, 1])
curve = KummerCurve(F, 9, 1, find_roots(F, [0, 1, 1, 0, 1]))
print(curve)

H = Divisor.make(curve.r, {1: 14, 2: 1}, 4)
print(f"\nH = {H}   ell(H) = {dimension(curve, H)}")
print("basis exponents and pole orders (-i, -i-m*j_mu, r*i+m*sum j):")
for pt in omega_enumerate(curve, H):
    orders = -monomial_divisor(curve, pt)  # pole orders are minus the valuations
    print(f"  i={pt.i:3d} j={pt.j}   ->  {orders.s + (orders.t,)}")

print("\nRiemann-Roch for large degree (deg > 2g - 2 = 22):")
for t in (23, 30, 40):
    G = Divisor.make(curve.r, t=t)
    print(f"  ell({t}*Pinf) = {dimension(curve, G)} = {t} + 1 - {curve.g}")
