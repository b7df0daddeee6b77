"""Expansion certificates and protection chains, printed step by step.

First part: pick a proper subspace, ask for a block-scalar torus element
that expands every vector inside it while contracting the whole space as
little as possible. Second part: grow a minimal witness into a protected
subspace and check the guard inequality by hand against the enumerated
eligible family.
"""

from fractions import Fraction as F

from nondiv import (PushoutConfig, covolume_sq, dyadic_guard,
                    expansion_element, make_lattice, protect,
                    stable_subspaces_within, standard_lattice,
                    subspace_from_rows, trivial_scenario)
from nondiv.samples import sl4_so21_scenario, sl4_torus_lattice

CFG = PushoutConfig()

print("== expansion certificates ==")
sc4 = sl4_so21_scenario()
z4 = standard_lattice(4)
for rows in ([[1, 0, 0, 0]], [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]):
    w = subspace_from_rows(4, rows)
    cert = expansion_element(z4, w, sc4, CFG)
    print(f"dim {w.dim} block subspace: index set {cert.index_set}, "
          f"c_w_sq = {cert.c_w_sq}, scalars = {[str(x) for x in cert.s.scalars]}")
    print(f"  lambda = {cert.lam}, per-wedge growth c2_sq = {cert.achieved_c2_sq}, "
          f"global contraction c1 = {cert.achieved_c1}")

# a slanted line in the plane: the index-set projection shortens it,
# so the certificate has to pay c_w_sq = 2
w = subspace_from_rows(2, [[1, 1]])
cert = expansion_element(standard_lattice(2), w, trivial_scenario(2), CFG)
print(f"span(e1+e2) in Z^2: c_w_sq = {cert.c_w_sq}, scalars = "
      f"{[str(x) for x in cert.s.scalars]}, c2_sq = {cert.achieved_c2_sq}")

print()
print("== protection ==")
# floor 1/4 on the pushed lattice: the witness line is already protected
lat = sl4_torus_lattice(F(1, 2))
guard = dyadic_guard(F(1, 16), 4)
print(f"guard for eta0 = 1/4 in dim 4: c = {guard}")
res = protect(lat, sc4, CFG, guard, eta0_sq=F(1, 16))
print(f"chain dims {[w.dim for w in res.chain]}, covol_sq {[str(c) for c in res.chain_covol_sq]}")
print(f"w_infinity rows {[list(r) for r in res.w_infinity.rows]}")

# adversarial 3-dim lattice: the chain has to climb once before stabilizing
adv = make_lattice([[F(1, 32), 0, 0], [F(1, 32), F(1, 4), 0], [0, F(1, 2), 128]])
sc3 = trivial_scenario(3)
guard3 = dyadic_guard(F(1, 16), 3)
res = protect(adv, sc3, CFG, guard3, eta0_sq=F(1, 16))
print(f"adversarial chain dims {[w.dim for w in res.chain]}, "
      f"covol_sq {[str(c) for c in res.chain_covol_sq]}")

# certify the guard directly: every eligible strict superspace of w_infinity
# must cost at least guard * covol_sq(w_infinity)
fam, complete = stable_subspaces_within(adv, sc3, 4)
assert complete
base = covolume_sq(adv, res.w_infinity)
bad = [w for w in fam
       if w.dim > res.w_infinity.dim and w.contains(res.w_infinity)
       and covolume_sq(adv, w) < res.guard_c * base]
print(f"violations among {len(fam)} enumerated eligible subspaces: {len(bad)}")
assert not bad
