"""Exact q-expansions of eta(d tau + r) and eta quotients.

A single eta factor has a sparse pentagonal-number expansion, and a naive
truncated product serves as an independent oracle for it. Eta quotients
expand in one pass of the product engine (the Euler transform), checked here
against products of pentagonal series. Exponents are Fractions, stored over
a fixed denominator per series; coefficients are rationals or exact roots of
unity.
"""

from fractions import Fraction as F

from discweil import EtaFactor, EtaQuotient, eta_series
from discweil.qseries import equals_to_precision, eta_series_naive

e = eta_series(1, 0, 40)
print("eta(tau) to order 40:")
print(e.text(max_terms=8))

# the two expansion routes agree coefficientwise
assert equals_to_precision(eta_series(2, F(1, 2), 60), eta_series_naive(2, F(1, 2), 60))
print("\npentagonal == naive product for eta(2 tau + 1/2) to order 60")

# a quotient keeps exact track of how far it is known
q = EtaQuotient([EtaFactor(1, 0, 3), EtaFactor(4, 0, -1)])
s = q.expand(30)
print("\n%s: lead %s, known below %s = 30 - loss %s" % (q.text(), s.lead(), s.trunc, q.loss()))
print(s.text(max_terms=6))

# multiplied back by the pentagonal eta(4 tau), it is eta(tau)^3
x = eta_series(1, 0, 30)
assert equals_to_precision(s * eta_series(4, 0, 30), x * x * x)
print("eta(tau)^3/eta(4 tau) * eta(4 tau) == eta(tau)^3 to order 30")

# symbolic quotients expand on demand
quot = EtaQuotient([EtaFactor(2, 0, 3), EtaFactor(1, 0, -1), EtaFactor(4, 0, -1)])
print("\n%s has weight 1/2 and lead %s" % (quot.text(), quot.lead()))
print(quot.expand(20).text(max_terms=6))
