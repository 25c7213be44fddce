"""The headline identity: eigenspace multiplicities count permutations.

The deformations of the permutahedron form a graded algebra acted on by
face sums.  For every flat X and grade r, the multiplicity of the simple
module at X inside the grade-r component equals the number of permutations
with cycle support X and exactly r excedances.  Three independent
computations of the table agree: Möbius sums of h-polynomials, brute-force
permutation counts, and ranks of idempotent images in cone-weight
coordinates.
"""

from zonalg import arrangement as arrg
from zonalg.spectra import eta_idempotent_rank, eta_mobius, eta_permutations

d = 3
arr = arrg.braid(d)
mob = eta_mobius(arr)
cnt = eta_permutations(arr)
rnk = eta_idempotent_rank(d)

print(f"multiplicity table for the braid arrangement in R^{d}")
print(f"{'flat':<14}{'r':>3}  {'mobius':>7}{'perms':>7}{'ranks':>7}")
for (x, r), v in mob.entries.items():
    print(f"{str(x):<14}{r:>3}  {v:>7}{cnt.value(x, r):>7}{rnk.value(x, r):>7}")

assert mob.first_difference(cnt) is None and mob.first_difference(rnk) is None
print("\nall three methods agree; row sums are the h-numbers of the permutahedron:")
print("  ", mob.row_sums())

print("\nthe same in type B, where the statistic is the B-excedance:")
arrb = arrg.type_b(2)
mobb = eta_mobius(arrb)
cntb = eta_permutations(arrb)
for (x, r), v in mobb.entries.items():
    print(f"{str(x):<22}{r:>3}  {v:>7}{cntb.value(x, r):>7}")
assert mobb.first_difference(cntb) is None

bottom = arrg.bottom_flat(arrb)
print("\nfull-support grade-1 multiplicity (the 2^(d-1) generator lower bound):",
      mobb.value(bottom, 1))
