"""From an invariant vector to its two-variable eta product.

The product expansion of the lift splits into one series per variable. For
catalog subgroups the infinite product collapses to a single eta factor per
side, and the collapse is proved by exact series comparison, never assumed.
"""

from discweil import InputForm, SelfDualSpec, hyperbolic_pair, lift
from discweil.borcherds import catalog_for, eta_identify
from discweil.lnn_catalog import assemble, family_exy_y
from discweil.qseries import first_mismatch

# v^H for H = <(2,0),(0,3)> inside D_{6,1}
m = hyperbolic_pair(6, 1)
spec = SelfDualSpec(6, 1, (2, 0, 3), (1, 0, 1), (0, 0), (0, 0))
f = InputForm.from_combination(m, [(1, spec)])
res = lift(f, 40)
print("weight:", res.weight, " Weyl vector:", res.weyl.to_json())
print("psi1 =", res.eta1.text("tau1"), "   psi2 =", res.eta2.text("tau2"))
print(res.psi1.text(max_terms=5))

# sums of catalog vectors lift to products of the individual answers
fsum = InputForm.from_combination(m, [(1, s) for s in catalog_for(6, 1)])
rsum = lift(fsum, 25)
print("\nsum over the (6,1) catalog: weight", rsum.weight)
print("  psi1 =", rsum.eta1.text("tau1"))

# a twisted member on the square pair (4,4): shifts appear in both variables
m44 = hyperbolic_pair(4, 4)
tw = family_exy_y(4, (1, 1, 2), 1)
g = InputForm.from_combination(m44, [(1, tw)])
e1, e2, const = eta_identify([(1, assemble(tw))])
print("\ntwisted member:", e1.text("tau1"), "|", e2.text("tau2"), "| constant", const)
res = lift(g, 12)
assert first_mismatch(res.psi1, e1.expand(12)) is None
assert first_mismatch(res.psi2, e2.expand(12)) is None
print("identification verified against the raw product expansion")
