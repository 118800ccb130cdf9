"""Exact-arithmetic workbench for log-concavity phenomena on matroids and
posets: linear-extension statistics, basis counting sequences, mixed
discriminants, zonotope mixed volumes, Lorentzian certificates, and
Hodge-Riemann / Hard-Lefschetz certification of the Gorenstein quotient of a
basis generating polynomial.
"""

__version__ = "0.1.0"
