"""The cube as the cleanest instance of the whole machinery.

Products of segment log-classes give 2^d simultaneous eigenvectors for
dilation and for the first-orthant characteristic element; each sits in its
own one-dimensional eigenspace, matching the multiplicity table, which is an
indicator: the flat with zero set S contributes only in grade |S|.
"""

from zonalg import arrangement as arrg
from zonalg.polyclass import log_class, segment
from zonalg.spectra import eta_mobius, y_basis_cube
from zonalg.titsalgebra import gamma_element, gamma_family, is_characteristic

d = 3
arr = arrg.coordinate(d)

gamma = gamma_element(d, 2)
print("gamma_2 is supported on the first orthant and is characteristic:",
      is_characteristic(gamma, 2))
family = gamma_family(d)
family.check()
print("its idempotent family passes idempotency/orthogonality/completeness")

table = eta_mobius(arr)
print("\nmultiplicity table of the cube (flat X_S, grade r) -> 1 iff r = |S|:")
for (x, r), v in table.entries.items():
    print(f"  {str(x):<12} r={r}: {v}")

rep = y_basis_cube(d)
print("\nsegment-product eigenvectors:")
for rec in rep["records"]:
    print(f"  S={rec['S']}: nonzero={rec['nonzero']}, graded={rec['graded']}, "
          f"fixed by its idempotent={rec['idempotent_fixed']}, "
          f"inclusion-exclusion expansion={rec['face_expansion']}")
print("basis of all of the cube's class algebra:", rep["ok"])

# the half-open square: dilation by 2 scales it by 4
y = log_class(segment(arr, (1, 0, 0))) * log_class(segment(arr, (0, 1, 0)))
print("\nhalf-open square class: dilation by 2 multiplies cone weights by",
      set((y.dilate(2).phi().terms[f] / w) for f, w in y.phi().terms.items()))
