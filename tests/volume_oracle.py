"""The oracle for the cone weights: normalized volumes summed over a
triangulation of the polytope's face lattice.

The library reads the weight at an arrangement face F off the vertices at
the chambers above F, by Lawrence's formula.  Here it is computed from its
definition instead: the normalized volume of the polytope's face at F when
that face has complementary dimension, else 0.  A face is cut into simplices
by coning its least vertex over the facets that miss it, and a simplex on
integer points adds the gcd of the maximal minors of its edge matrix.
"""

from fractions import Fraction
from math import factorial

from zonalg import arrangement as arrg
from zonalg import linalg


def _facets(lat):
    """fset -> its facets (faces of one dimension less) in the lattice."""
    return {fs: [gs for gs, gdim in lat.items() if gdim == dim - 1 and gs < fs] for fs, dim in lat.items()}


def _simplices(lat, facets, fs):
    if lat[fs] == 0:
        return [tuple(fs)]
    base = min(fs)
    return [(base,) + s for g in facets[fs] if base not in g for s in _simplices(lat, facets, g)]


def _volume(p, lat, facets, fs):
    r = lat[fs]
    simplices = [sorted(fs)] if len(fs) == r + 1 else _simplices(lat, facets, fs)
    total = 0
    for s in simplices:
        base, *rest = (p._ipts[i] for i in s)  # the vertices scaled by p._den
        total += linalg.lattice_index([[a - b for a, b in zip(q, base)] for q in rest])
    return Fraction(total, factorial(r) * p._den ** r)


def face_volume(p, fs):
    """Normalized volume of the face of p with the vertex indices ``fs``:
    Euclidean volume in coordinates of a lattice basis of (span of the
    face) ∩ Z^d.  Over the simplices of a triangulation, that is the sum of
    the gcds of the r x r minors of their integer edge matrices, over
    r! den^r."""
    lat = p.lattice()
    return _volume(p, lat, _facets(lat), fs)


def lattice_volume(q):
    """Normalized volume of the whole polytope."""
    return face_volume(q, frozenset(range(len(q.verts))))


def cone_weights(p):
    """face -> the weight of [p] there, for every face where it is not 0,
    in the order of ``faces``."""
    lat = p.lattice()
    facets = _facets(lat)
    out = {}
    for face in arrg.faces(p.arr):
        fs = p.face_set(face)
        if lat[fs] == p.arr.d - face.dim:
            out[face] = _volume(p, lat, facets, fs)
    return out
