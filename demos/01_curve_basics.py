"""A first walk over a Kummer curve.

We build y^3 = x^2 + x over GF(4) -- the smallest Hermitian curve --
and look at its genus, rational places and the principal divisors of
the distinguished functions.
"""

from kummercodes import FiniteField, KummerCurve, find_roots

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

print("\nprincipal divisors (format: s_1 ... s_r t):")
for item in ("x-alpha", "y", "f", "z"):
    d = curve.principal_divisor(item, 1)
    print(f"  ({item:7s}) = {d}   deg {d.degree}")
