"""Exact linear algebra over the rationals and over integer lattices, and
the sparse rational combinations that every algebra of the package is built
on.

Everything here works on plain lists/tuples of ``fractions.Fraction`` (or
``int``).  Matrices are sequences of rows.  No floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

_ZERO = Fraction(0)


class Combination:
    """A finite rational combination over a basis of hashable keys.

    ``terms`` maps each key to its nonzero ``Fraction`` coefficient; ``arr``
    tags what the keys live over, and only combinations with equal tags
    are added.  The constructor canonicalizes outside input: each key goes
    through ``_key``, coefficients of equal keys are added up and zeros are
    dropped.  Results of the operations below are built by ``_make``, which
    takes terms that are already canonical.  Subclasses add their products.
    """

    __slots__ = ("arr", "terms")

    def __init__(self, arr, terms=None):
        self.arr = arr
        out = {}
        key = self._key
        for k, c in (terms or {}).items():
            if c:
                k = key(k)
                out[k] = out[k] + c if k in out else Fraction(c)
        self.terms = {k: c for k, c in out.items() if c}

    @staticmethod
    def _key(k):
        return k

    @classmethod
    def _make(cls, arr, terms):
        self = object.__new__(cls)
        self.arr = arr
        self.terms = terms
        return self

    @classmethod
    def zero(cls, arr):
        return cls._make(arr, {})

    def coeff(self, key):
        return self.terms.get(self._key(key), _ZERO)

    def _check(self, other):
        if self.arr != other.arr:
            raise ValueError(f"{type(self).__name__}s over different arrangements")

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            if k in out:
                c += out[k]
                if not c:
                    del out[k]
                    continue
            out[k] = c
        return self._make(self.arr, out)

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return self._make(self.arr, {k: -c for k, c in self.terms.items()})

    def scale(self, c):
        c = Fraction(c)
        if not c:
            return self.zero(self.arr)
        return self._make(self.arr, {k: v * c for k, v in self.terms.items()})

    def __eq__(self, other):
        return type(other) is type(self) and self.arr == other.arr and self.terms == other.terms

    def is_zero(self):
        return not self.terms

    def __repr__(self):
        return f"{type(self).__name__}({self.arr!r}, {len(self.terms)} terms)"


def to_integers(values):
    """(den, ints): the least common denominator of the rationals ``values``
    and the list of the integers ``den * x``."""
    den = lcm(*[x.denominator for x in values])
    return den, [x.numerator * (den // x.denominator) for x in values]


def _rref(rows, width):
    """Row-reduce a copy of ``rows``; return (reduced rows, pivot columns)."""
    mat = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    r = 0
    for c in range(width):
        pivot = None
        for i in range(r, len(mat)):
            if mat[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = mat[r][c]
        mat[r] = [x / inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def rank(rows, width=None):
    rows = list(rows)
    if not rows:
        return 0
    if width is None:
        width = len(rows[0])
    return len(_rref(rows, width)[0])


def nullspace(rows, width):
    """Basis (list of tuples) of {x : M x = 0} over the rationals."""
    reduced, pivots = _rref(rows, width)
    free = [c for c in range(width) if c not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * width
        vec[f] = Fraction(1)
        for r, c in enumerate(pivots):
            vec[c] = -reduced[r][f]
        basis.append(tuple(vec))
    return basis


def solve_unique(rows, rhs):
    """Solve M x = rhs; raise ValueError unless the solution exists and is unique."""
    rows = list(rows)
    if not rows:
        raise ValueError("empty system")
    width = len(rows[0])
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    reduced, pivots = _rref(aug, width + 1)
    if width in pivots:
        raise ValueError("inconsistent linear system")
    if len(pivots) < width:
        raise ValueError("underdetermined linear system")
    sol = [Fraction(0)] * width
    for r, c in enumerate(pivots):
        sol[c] = reduced[r][width]
    return tuple(sol)


class IncrementalRank:
    """Maintains the rank of a growing set of rational vectors.

    ``add(vec)`` returns True when the vector enlarged the span.
    """

    def __init__(self, width):
        self.width = width
        self.rows = []  # reduced rows
        self.pivots = []

    def add(self, vec):
        vec = [Fraction(x) for x in vec]
        for row, p in zip(self.rows, self.pivots):
            if vec[p] != 0:
                f = vec[p]
                vec = [a - f * b for a, b in zip(vec, row)]
        for c in range(self.width):
            if vec[c] != 0:
                inv = vec[c]
                vec = [x / inv for x in vec]
                self.rows.append(vec)
                self.pivots.append(c)
                return True
        return False

    @property
    def rank(self):
        return len(self.rows)


def _clear_denominators(row):
    _, ints = to_integers(row)
    g = gcd(*ints)
    if g > 1:
        ints = [v // g for v in ints]
    return ints


def integer_kernel(int_rows, width):
    """Basis of the saturated lattice {x in Z^width : M x = 0}.

    Column-style reduction with unimodular bookkeeping, so the result is a
    genuine Z-basis of the kernel lattice (not merely a finite-index sublattice).
    """
    basis = [[1 if i == j else 0 for i in range(width)] for j in range(width)]
    for row in int_rows:
        vals = [sum(r * b for r, b in zip(row, col)) for col in basis]
        while True:
            nz = [i for i, v in enumerate(vals) if v != 0]
            if len(nz) <= 1:
                break
            i = min(nz, key=lambda k: abs(vals[k]))
            for j in nz:
                if j == i:
                    continue
                q = vals[j] // vals[i]
                if q:
                    basis[j] = [a - q * b for a, b in zip(basis[j], basis[i])]
                    vals[j] -= q * vals[i]
        nz = [i for i, v in enumerate(vals) if v != 0]
        if nz:
            del basis[nz[0]]
    return [tuple(col) for col in basis]


def span_lattice_basis(diffs, width):
    """Z-basis of span_Q(diffs) ∩ Z^width, for rational ``diffs``.

    Used to normalize volumes: coordinates of a face are taken with respect
    to this basis of the induced lattice of its linear span.
    """
    diffs = [tuple(Fraction(x) for x in v) for v in diffs]
    forms = nullspace(diffs, width) if diffs else [
        tuple(Fraction(1 if i == j else 0) for i in range(width)) for j in range(width)
    ]
    if not forms:
        return [tuple(1 if i == j else 0 for i in range(width)) for j in range(width)]
    int_forms = [_clear_denominators(f) for f in forms]
    return integer_kernel(int_forms, width)


def coords_in_basis(basis_rows, vec):
    """Coordinates of ``vec`` in the row basis (vec must lie in its span)."""
    cols = [[row[i] for row in basis_rows] for i in range(len(vec))]
    return solve_unique(cols, list(vec))


def det(rows):
    """Determinant of a square rational matrix (fraction Gaussian elimination)."""
    n = len(rows)
    mat = [[Fraction(x) for x in row] for row in rows]
    result = Fraction(1)
    for c in range(n):
        pivot = None
        for i in range(c, n):
            if mat[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            mat[c], mat[pivot] = mat[pivot], mat[c]
            result = -result
        result *= mat[c][c]
        inv = mat[c][c]
        for i in range(c + 1, n):
            if mat[i][c] != 0:
                f = mat[i][c] / inv
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[c])]
    return result
