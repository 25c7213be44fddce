import os
import sys

import pytest

# allow running the tests from a fresh checkout without installing
_src = os.path.join(os.path.dirname(__file__), "..", "src")
try:
    import zonalg  # noqa: F401
except ImportError:
    sys.path.insert(0, os.path.abspath(_src))


def _check_h_polynomials_geometric(arr):
    """The oracle for the h-polynomials that eta_mobius reads off the flat
    types: at one flat of each h-polynomial, the h-polynomial of the face of
    the ambient zonotope there, computed from its vertices."""
    from zonalg import arrangement as arrg
    from zonalg import polyclass
    from zonalg.gfseries import h_of_flat

    zonotope = {"A": polyclass.permutahedron, "B": polyclass.typeB_permutahedron}
    z = zonotope.get(arr.kind, polyclass.cube)(arr.d)
    shapes = {}
    for x in arrg.flats(arr):
        shapes.setdefault(tuple(h_of_flat(x).coeffs), x)
    for x in shapes.values():
        face = arrg.faces_with_support(arr, x)[0]
        assert z.face_max(face).h_polynomial() == h_of_flat(x), arrg.flat_str(x)


@pytest.fixture
def check_h_polynomials_geometric():
    return _check_h_polynomials_geometric
