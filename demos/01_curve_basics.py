"""A first walk over a Kummer curve.

We build y^3 = x^2 + x over GF(4) -- the smallest Hermitian curve --
and look at its genus, rational places and the principal divisors of
the distinguished functions, each read off its exponents as a basis
monomial.
"""

from kummercodes import FiniteField, KummerCurve, LatticePoint, find_roots, monomial_divisor

F = FiniteField(2, 2, [1, 1, 1])  # GF(4) with modulus x^2 + x + 1
roots = find_roots(F, [0, 1, 1])  # x^2 + x = x (x + 1)
curve = KummerCurve(F, 3, 1, roots)

print(curve)
print(f"genus       g = {curve.g}")
print(f"Bezout data A={curve.A} B={curve.B} a={curve.a} b={curve.b}")

places = list(curve.iter_places())
print(f"\n{len(places)} rational places (q^3 + 1 for the Hermitian curve):")
for p in places:
    print(f"  {p}")

# Each distinguished function is a basis monomial z^i prod_{mu >= 2} (x - alpha_mu)^{j_mu}:
# z = y^A f^B gives y = z^lambda and f = z^m, and x - alpha_1 = f / prod_{mu >= 2} (x - alpha_mu).
m, lam, zero = curve.m, curve.lam, (0,) * (curve.r - 1)
functions = {"x-alpha": LatticePoint(m, (-1,) * (curve.r - 1)), "y": LatticePoint(lam, zero),
             "f": LatticePoint(m, zero), "z": LatticePoint(1, zero)}
print("\nprincipal divisors (format: s_1 ... s_r t):")
for item, pt in functions.items():
    d = monomial_divisor(curve, pt)
    print(f"  ({item:7s}) = {d}   deg {d.degree}")
