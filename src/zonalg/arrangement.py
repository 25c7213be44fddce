"""Faces, flats and the Tits monoid of three reflection-type arrangements.

Supported arrangements in R^d:

* kind ``"A"`` -- the braid arrangement, hyperplanes x_i = x_j.  Faces are
  set compositions of {1..d}, flats are set partitions.  The central face
  is the line x_1 = ... = x_d.
* kind ``"B"`` -- hyperplanes x_i = x_j, x_i = -x_j and x_k = 0.  Faces are
  signed compositions of {±1..±d}, flats are signed partitions with a
  (possibly empty) zero block.
* kind ``"C"`` -- the coordinate arrangement x_i = 0.  Faces are sign
  vectors in {-,0,+}^d, flats are subsets of [d] (coordinates pinned to 0).

Each arrangement has one list of hyperplanes, ``hyperplanes(arr)``.  A face
is its covector over that list: the sign of every hyperplane on the face,
packed into two int bitmasks.  A flat is the zero set of the covectors of
its faces, one int bitmask.  So the Tits product, the face order, the face
of a point, the support map and the flat order and join read only the list
and the masks.  The kind shows only in the hyperplane list, the flat and
face rules, the strings and the block view of a face (``_view``), which is
shaped like this (``interior_point``, an integer point inside the face, is
read off it):

* A: tuple of frozensets (the ordered blocks);
* B: pair (tuple of frozensets, frozenset) -- the blocks strictly before
  the zero block, and the zero block; the blocks after the zero block are
  the mirrored negatives and are not stored;
* C: tuple of ints in {-1, 0, +1}.

The blocks of a flat (``flat_blocks``) are read once per flat and are
shaped alike for every kind: the zero block, and one block per ± pair of
the other blocks.  Dimensions, flat types, Möbius values and strings are
read off them, and so are the faces: those with support X are the
orderings (types A and B) and signings (types B and C) of the pair blocks
of X.  They are built once per flat, into the one index that ``faces``,
``chambers``, ``walls`` and ``faces_with_support`` read.  ``flat_of_blocks``
builds a flat from its zero set and rejects blocks that the flat does not
read back.  A face or flat string is read only in the form that
``face_str`` or ``flat_str`` prints: a text is accepted exactly when the
face or flat it names prints back as it.

All values are immutable; every function is pure.
"""

from __future__ import annotations

import itertools
import math
import weakref
from dataclasses import dataclass
from functools import lru_cache

KIND_A = "A"
KIND_B = "B"
KIND_C = "C"
_KINDS = (KIND_A, KIND_B, KIND_C)


@dataclass(frozen=True)
class Arrangement:
    kind: str
    d: int

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown arrangement kind {self.kind!r}")
        if self.d < 1:
            raise ValueError("ambient dimension must be >= 1")

    def __repr__(self):
        return f"Arrangement({self.kind!r}, {self.d})"


def braid(d):
    return Arrangement(KIND_A, d)


def type_b(d):
    return Arrangement(KIND_B, d)


def coordinate(d):
    return Arrangement(KIND_C, d)


_KIND_NAMES = {
    "A": KIND_A, "BRAID": KIND_A,
    "B": KIND_B, "TYPEB": KIND_B,
    "C": KIND_C, "CUBE": KIND_C, "COORDINATE": KIND_C,
}


def arrangement_named(name, d):
    """The arrangement in R^d named, in any case, A or braid, B or typeB, or
    C, cube or coordinate.  ``d`` must be an int: 3.7, "3" and True are
    rejected, not rounded or converted."""
    kind = _KIND_NAMES.get(name.upper()) if isinstance(name, str) else None
    if kind is None:
        raise ValueError(f"unknown arrangement type {name!r}")
    if not isinstance(d, int) or isinstance(d, bool):
        raise ValueError(f"the dimension d must be an integer, got {d!r}")
    return Arrangement(kind, d)


@lru_cache(maxsize=None)
def hyperplanes(arr):
    """The hyperplanes as signed pairs (a, b), each meaning x_a = x_b, with
    x_{-i} = -x_i and x_0 = 0: x_i = x_j and (type B) x_i = -x_j for i < j,
    then (types B and C) x_i = 0.  Bit k of a covector is hyperplane k."""
    d = arr.d
    out = []
    if arr.kind != KIND_C:
        for i in range(1, d + 1):
            for j in range(i + 1, d + 1):
                out.append((i, j))
                if arr.kind == KIND_B:
                    out.append((i, -j))
    if arr.kind != KIND_A:
        out.extend((i, 0) for i in range(1, d + 1))
    return tuple(out)


# (kind, d, pos, neg) -> the live face with this covector
_FACES = weakref.WeakValueDictionary()


class Face:
    """A face, stored as its covector: bit k of ``pos`` (of ``neg``) is set
    when x_a - x_b > 0 (< 0) on the face, for the k-th hyperplane (a, b) of
    ``hyperplanes(arr)``.

    Faces are interned: building a face with the covector of a live face
    returns that face, so equality and hashing are by identity.  The
    support, the block view and the integer interior point are computed
    once per face.
    """

    __slots__ = ("arr", "pos", "neg", "_support", "_view", "_interior", "__weakref__")

    def __new__(cls, arr, pos, neg):
        key = (arr.kind, arr.d, pos, neg)
        self = _FACES.get(key)
        if self is None:
            self = object.__new__(cls)
            self.arr, self.pos, self.neg = arr, pos, neg
            self._support = self._view = self._interior = None
            _FACES[key] = self
        return self

    @property
    def dim(self):
        return support(self).dim

    def __str__(self):
        return face_str(self)

    def __repr__(self):
        return f"Face<{face_str(self)}>"


# (kind, d, zero) -> the live flat with this zero set
_FLATS = weakref.WeakValueDictionary()


class Flat:
    """A flat, stored as its zero set: bit k of ``zero`` is set when the flat
    lies in the k-th hyperplane of ``hyperplanes(arr)``.  ``zero`` is the zero
    set of a covector, so a closed set; ``flat_of_blocks`` builds a flat from
    blocks that it has.

    Flats are interned like faces, so equality and hashing are by identity.
    The blocks are read once per flat.
    """

    __slots__ = ("arr", "zero", "_blocks", "__weakref__")

    def __new__(cls, arr, zero):
        key = (arr.kind, arr.d, zero)
        self = _FLATS.get(key)
        if self is None:
            self = object.__new__(cls)
            self.arr, self.zero = arr, zero
            self._blocks = None
            _FLATS[key] = self
        return self

    @property
    def dim(self):
        return len(flat_blocks(self)[1])

    def __str__(self):
        return flat_str(self)

    def __repr__(self):
        return f"Flat<{flat_str(self)}>"


# ---------------------------------------------------------------------------
# construction helpers

def central_face(arr):
    return Face(arr, 0, 0)


def bottom_flat(arr):
    """The minimum flat (intersection of all hyperplanes)."""
    return support(central_face(arr))


def top_flat(arr):
    return Flat(arr, 0)


def _neg(block):
    return frozenset(-e for e in block)


def _classes(arr, groups):
    """The blocks of the partition of {-d..d} in which the elements of each
    group are equal, with x_{-a} = -x_a and x_0 = 0: a = b also makes
    -a = -b, and a class that meets its own negative is 0.  Returned as
    (zero block, pair blocks): the class of 0 without 0, and one block of
    each ± pair of the other classes, the one whose element of least
    absolute value is positive, in the order of that element."""
    d = arr.d
    cls = {e: frozenset([e]) for e in range(-d, d + 1)}
    for a, *rest in groups:
        for b in rest:
            for p, q in ((a, b), (-a, -b)):
                merged = cls[p] | cls[q]
                if -p in merged:  # x_p = -x_p, so x_p = 0
                    merged |= cls[0]
                for e in merged:
                    cls[e] = merged
    zero = cls[0] - {0}
    pairs = (cls[e] for e in range(1, d + 1) if e not in zero and min(cls[e], key=abs) == e)
    return zero, tuple(pairs)


@lru_cache(maxsize=None)
def _plane_bits(arr):
    """The bit of hyperplane x_a = x_b, under (a, b), (b, a), (-a, -b) and
    (-b, -a)."""
    out = {}
    for k, (a, b) in enumerate(hyperplanes(arr)):
        for pair in ((a, b), (b, a), (-a, -b), (-b, -a)):
            out[pair] = 1 << k
    return out


def _zero_set(arr, zero, blocks):
    """The hyperplanes x_a = x_b of every two elements of one block, 0
    counted in the zero block."""
    bits = _plane_bits(arr)
    zero_set = 0
    for block in ((0, *zero), *blocks):
        for pair in itertools.combinations(block, 2):
            zero_set |= bits.get(pair, 0)
    return zero_set


def _flat_of_classes(arr, zero, blocks):
    """The flat with these blocks, in the form ``_classes`` returns, which it
    keeps rather than reading them off the zero set again."""
    flat = Flat(arr, _zero_set(arr, zero, blocks))
    if flat._blocks is None:
        flat._blocks = zero, blocks
    return flat


def flat_of_blocks(arr, zero, blocks):
    """The flat on which x_e = 0 for every e in ``zero`` and x_a = x_b for
    a, b in one block, with x_{-a} = -x_a: a block that meets its own
    negative falls into the zero block.  The flat is built from its zero
    set and must read these blocks back: a type-A flat has no zero block,
    and a flat of the coordinate arrangement no block of two elements."""
    classes = _classes(arr, ((0, *zero), *blocks))
    flat = Flat(arr, _zero_set(arr, *classes))
    if flat_blocks(flat) != classes:
        raise ValueError(
            f"no flat of {arr.kind}{arr.d} has the zero block {tuple(zero)}"
            f" and the blocks {list(blocks)}"
        )
    return flat


def flat_blocks(flat):
    """(zero block, pair blocks) of the flat, read once off its zero set:
    the classes of {-d..d} under x_a = x_b for every hyperplane (a, b) the
    flat lies in (see ``_classes``)."""
    if flat._blocks is None:
        flat._blocks = _read_blocks(flat.arr, flat.zero)
    return flat._blocks


def _read_blocks(arr, zero_set):
    planes = hyperplanes(arr)
    return _classes(arr, (planes[k] for k in range(len(planes)) if zero_set >> k & 1))


# ---------------------------------------------------------------------------
# enumeration

def _set_partitions(items):
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i, block in enumerate(part):
            yield part[:i] + (block | {first},) + part[i + 1:]
        yield part + (frozenset([first]),)


def _face_sort_key(face):
    view = _view(face)
    if face.arr.kind == KIND_A:
        return (face.dim, tuple(tuple(sorted(b)) for b in view))
    if face.arr.kind == KIND_B:
        blocks, zero = view
        return (face.dim, tuple(tuple(sorted(b)) for b in blocks), tuple(sorted(zero)))
    return (face.dim, view)


def _flat_sort_key(flat):
    zero, blocks = flat_blocks(flat)
    rows = [tuple(sorted(b)) for b in blocks]
    if flat.arr.kind == KIND_B:
        # every signed block, the negative of each ± pair too
        rows += [tuple(-e for e in reversed(r)) for r in rows]
        return (len(blocks), tuple(sorted(zero)), tuple(sorted(rows)))
    return (len(blocks), tuple(sorted(e for e in zero if e > 0)), tuple(rows))


def _views_with_support(flat):
    """The block views of the faces with support ``flat``: the orderings
    (types A and B) and the signings (types B and C) of its pair blocks."""
    kind = flat.arr.kind
    zero, pairs = flat_blocks(flat)
    for signing in itertools.product(*[(1,) if kind == KIND_A else (1, -1)] * len(pairs)):
        if kind == KIND_C:
            sign_of = {min(b): s for b, s in zip(pairs, signing)}
            yield tuple(sign_of.get(i, 0) for i in range(1, flat.arr.d + 1))
            continue
        signed = [b if s > 0 else _neg(b) for b, s in zip(pairs, signing)]
        for order in itertools.permutations(signed):
            yield order if kind == KIND_A else (order, zero)


@lru_cache(maxsize=None)
def _support_index(arr):
    """(all faces, ordered by (dim, key); flat -> the faces with that
    support, in the same order).  Each face is built once, from the blocks
    of its support."""
    ordered = sorted(
        (_face_of_view(arr, v) for x in flats(arr) for v in _views_with_support(x)),
        key=_face_sort_key,
    )
    index = {x: [] for x in flats(arr)}
    for f in ordered:
        index[support(f)].append(f)
    return tuple(ordered), {x: tuple(fs) for x, fs in index.items()}


def faces(arr):
    """All faces of the arrangement, deterministically ordered by (dim, key)."""
    return _support_index(arr)[0]


def _subsets(items):
    for r in range(len(items) + 1):
        yield from itertools.combinations(items, r)


@lru_cache(maxsize=None)
def flats(arr):
    """All flats, deterministically ordered by (dim, key).  Each is built
    from a zero set (types B and C), a set partition of the other
    coordinates (into singletons for C) and, for B, the signs of all but the
    least element of each block, and is handed these blocks."""
    ground = tuple(range(1, arr.d + 1))
    out = []
    for pinned in _subsets(ground) if arr.kind != KIND_A else [()]:
        live = tuple(x for x in ground if x not in pinned)
        zero = frozenset(pinned) | _neg(pinned)
        if arr.kind == KIND_C:
            parts = [tuple(frozenset([x]) for x in live)]
        else:
            parts = (sorted(part, key=min) for part in _set_partitions(live))
        for part in parts:
            signings = [part]
            if arr.kind == KIND_B:
                signings = itertools.product(*map(_signings, part))
            for blocks in signings:
                out.append(_flat_of_classes(arr, zero, tuple(blocks)))
    out.sort(key=_flat_sort_key)
    return tuple(out)


def _signings(block):
    """The block with every sign on its elements but the least."""
    least, *rest = sorted(block)
    return [
        frozenset([least, *(x * e for x, e in zip(rest, signs))])
        for signs in itertools.product((1, -1), repeat=len(rest))
    ]


def chambers(arr):
    return faces_with_support(arr, top_flat(arr))


@lru_cache(maxsize=None)
def walls(arr):
    """The faces of dimension d - 1, each on one side of one hyperplane: one
    run of faces(), which is ordered by dimension first."""
    return tuple(f for f in faces(arr) if f.dim == arr.d - 1)


# ---------------------------------------------------------------------------
# support, order, product

def support(face):
    """The flat spanned by the face: the intersection of the hyperplanes its
    covector is zero on."""
    x = face._support
    if x is None:
        full = (1 << len(hyperplanes(face.arr))) - 1
        x = face._support = Flat(face.arr, full & ~(face.pos | face.neg))
    return x


def flat_leq(x, y):
    """True iff x <= y in the lattice of flats (y refines x): y lies in no
    hyperplane that x does not lie in."""
    if x.arr != y.arr:
        raise ValueError("flats from different arrangements")
    return not y.zero & ~x.zero


def flat_join(x, y):
    """Least upper bound, the common refinement: the hyperplanes both lie in,
    since supp(FG) = supp F v supp G and FG is zero where both are."""
    if x.arr != y.arr:
        raise ValueError("flats from different arrangements")
    return Flat(x.arr, x.zero & y.zero)


def flats_geq(x):
    return [y for y in flats(x.arr) if flat_leq(x, y)]


def faces_with_support(arr, x):
    return _support_index(arr)[1][x]


def flat_type(flat):
    """(zero-block size, sorted block sizes) of a type-A or type-B flat.  The
    zero block counts its ± pairs and each ± pair of the other blocks is one
    block; in type A the zero block is empty."""
    if flat.arr.kind == KIND_C:
        raise ValueError("flat types exist for the braid and type-B arrangements")
    zero, blocks = flat_blocks(flat)
    return len(zero) // 2, tuple(sorted(map(len, blocks)))


def tits_product(f, g):
    """Tits product: sign composition of the covectors, f's sign on every
    hyperplane where f has one and g's elsewhere."""
    arr = f.arr
    if arr is not g.arr and arr != g.arr:
        raise ValueError("faces from different arrangements")
    free = ~(f.pos | f.neg)
    return Face(arr, f.pos | g.pos & free, f.neg | g.neg & free)


def face_leq(f, g):
    """Face partial order: f <= g iff f is contained in (is a face of) g,
    that is, g has f's sign wherever f has one (the conformal order)."""
    if f.arr is not g.arr and f.arr != g.arr:
        raise ValueError("faces from different arrangements")
    return not (f.pos & ~g.pos or f.neg & ~g.neg)


# ---------------------------------------------------------------------------
# geometry: the block view, canonical interior points and the face of a point

def _view(face):
    """The block view of the face (see the module docstring), read once."""
    if face._view is None:
        face._view = _read_view(face)
    return face._view


def _read_view(face):
    """The block view read off the covector.  For types A and B it is the
    total preorder that the covector puts on the (signed) ground set: blocks
    of equal coordinates, by decreasing value."""
    arr = face.arr
    signs = [(face.pos >> k & 1) - (face.neg >> k & 1) for k in range(len(hyperplanes(arr)))]
    if arr.kind == KIND_C:
        return tuple(signs)
    ground = range(1, arr.d + 1)
    if arr.kind == KIND_B:
        ground = [e for i in ground for e in (i, -i)]
    above = dict.fromkeys(ground, 0)  # how many elements lie strictly above each
    for s, (p, q) in zip(signs, hyperplanes(arr)):
        # the pairs of elements that hyperplane (p, q) orders:
        # x_p - x_q = x_{-q} - x_{-p}, and x_p - x_{-p} = 2 (x_p - x_0)
        for a, b in ((p, q), (-q, -p)) if q else ((p, -p),):
            if s and a in above and b in above:
                above[b if s > 0 else a] += 1
    levels = sorted(set(above.values()))
    blocks = tuple(frozenset(e for e in ground if above[e] == n) for n in levels)
    if arr.kind == KIND_A:
        return blocks
    zero = frozenset(e for e in ground if above[e] == above[-e])
    return blocks[: (len(blocks) - bool(zero)) // 2], zero


def _point(arr, view):
    """An integer point in the relative interior of the face with this view:
    the sign vector itself (type C), or top - i on the elements of the i-th
    block and its negative on their negatives (types A and B, where top is
    k - 1 for k blocks in type A and k in type B, whose zero block is 0)."""
    if arr.kind == KIND_C:
        return list(view)
    blocks = view if arr.kind == KIND_A else view[0]
    top = len(blocks) - (arr.kind == KIND_A)
    x = [0] * arr.d
    for i, block in enumerate(blocks):
        for e in block:
            x[abs(e) - 1] = top - i if e > 0 else i - top
    return x


def interior_point(face):
    """A canonical integer point in the relative interior of the face (the
    point ``_point`` of its view), computed once."""
    if face._interior is None:
        face._interior = tuple(_point(face.arr, _view(face)))
    return face._interior


def _face_of_view(arr, view):
    """The face with this block view, which it keeps rather than reading it
    off the covector again."""
    face = face_of_point(arr, _point(arr, view))
    if face._view is None:
        face._view = view
    return face


def face_of_point(arr, point):
    """The face whose relative interior contains the given point: the signs
    of x_a - x_b over the hyperplanes."""
    # x[a] is x_a for every a in -d..d: x_0 = 0, and x_{-i} = -x_i sits at
    # the negative index -i
    x = (0, *point, *(-v for v in reversed(point)))
    pos = neg = 0
    for k, (a, b) in enumerate(hyperplanes(arr)):
        v = x[a] - x[b]
        if v > 0:
            pos |= 1 << k
        elif v < 0:
            neg |= 1 << k
    return Face(arr, pos, neg)


def tits_product_geometric(f, g):
    """Oracle for the Tits product: the face of v_F + eps * v_G, with
    eps = 1 / (4 d^2), scaled by 1 / eps to an integer point."""
    scale = 4 * f.arr.d ** 2
    point = tuple(scale * a + b for a, b in zip(interior_point(f), interior_point(g)))
    return face_of_point(f.arr, point)


# ---------------------------------------------------------------------------
# Möbius function and characteristic polynomials

def mobius(x, y):
    """Möbius function of the flat lattice, by the product formula: over the
    blocks of x, (-1)^(k-1) (k-1)! for the k blocks of y inside it, times, for
    the j block pairs of y inside the zero block of x, (-1)^j (2j-1)!! in type
    B and (-1)^j for the coordinate arrangement (type A has no zero block)."""
    if not flat_leq(x, y):
        raise ValueError("mobius requires x <= y")
    zx, bx = flat_blocks(x)
    where = {}
    for k, block in enumerate(bx):
        for e in block:
            where[e] = where[-e] = k
    inside = [0] * len(bx)
    j = 0
    for block in flat_blocks(y)[1]:
        e = next(iter(block))
        if e in zx:
            j += 1
        else:
            inside[where[e]] += 1
    result = (-1) ** j * (math.prod(range(2 * j - 1, 0, -2)) if x.arr.kind == KIND_B else 1)
    for k in inside:
        result *= (-1) ** (k - 1) * math.factorial(k - 1)
    return result


def mobius_recursive(x, y, _memo=None):
    """Independent oracle: the defining recursion of the Möbius function."""
    if _memo is None:
        _memo = {}
    key = (x, y)
    if key in _memo:
        return _memo[key]
    if not flat_leq(x, y):
        raise ValueError("mobius requires x <= y")
    if x == y:
        _memo[key] = 1
        return 1
    total = 0
    for z in flats(x.arr):
        if z != y and flat_leq(x, z) and flat_leq(z, y):
            total += mobius_recursive(x, z, _memo)
    _memo[key] = -total
    return -total


def characteristic_polynomial(arr, under_flat=None):
    """chi(A^X, t) as a list of integer coefficients (low degree first)."""
    if under_flat is None:
        under_flat = top_flat(arr)
    coeffs = [0] * (under_flat.dim + 1)
    for y in flats(arr):
        if flat_leq(y, under_flat):
            coeffs[y.dim] += mobius(y, under_flat)
    return coeffs


# ---------------------------------------------------------------------------
# serialization

def _block_str_a(block, d):
    """The elements in increasing order, run together up to d = 9 and
    separated by spaces from d = 10 on."""
    return (" " if d >= 10 else "").join(str(i) for i in sorted(block))


def _block_str_b(block):
    return " ".join(str(e) for e in sorted(block, key=lambda e: (abs(e), e < 0)))


def face_str(face):
    arr, view = face.arr, _view(face)
    if arr.kind == KIND_A:
        return "|".join(_block_str_a(b, arr.d) for b in view)
    if arr.kind == KIND_B:
        parts = []
        blocks, zero = view
        for b in blocks:
            parts.append(_block_str_b(b))
        parts.append("0:" + _block_str_b(zero))
        for b in reversed(blocks):
            parts.append(_block_str_b(_neg(b)))
        return "|".join(parts)
    return "".join("+" if s > 0 else ("-" if s < 0 else "0") for s in view)


def flat_str(flat):
    arr = flat.arr
    zero, blocks = flat_blocks(flat)
    if arr.kind == KIND_A:
        return "{" + ",".join(_block_str_a(b, arr.d) for b in blocks) + "}"
    if arr.kind == KIND_B:
        parts = ["0:" + _block_str_b(zero)] if zero else []
        for b in blocks:
            parts += [_block_str_b(b), _block_str_b(_neg(b))]
        return "{" + ",".join(parts) + "}"
    return "X_{" + ",".join(str(i) for i in sorted(zero) if i > 0) + "}"


def face_terms_json(terms):
    """A face-keyed combination as JSON rows, faces in the order of faces()."""
    return [
        {"face": face_str(f), "coeff": str(terms[f])}
        for f in sorted(terms, key=_face_sort_key)
    ]


def _parse_block(token, arr):
    """A block as it is printed: single digits run together in type A up to
    d = 9, else integers separated by spaces.  A type-B zero block "0:..."
    also holds 0, which marks it."""
    if arr.kind == KIND_B and token.startswith("0:"):
        return _parse_block(token[2:], arr) | {0}
    if arr.kind == KIND_A and arr.d <= 9:
        return frozenset(map(int, token))
    return frozenset(map(int, token.split(" "))) if token else frozenset()


def _read_printed(arr, text, what, read, show):
    """The face or flat that ``read`` finds listed in ``text``, if ``show``
    prints it back as ``text``.  A text that lists the same blocks in
    another order or spelling is told the printed form."""
    try:
        listed, obj = read(arr, text)
        printed = show(obj)
    except (ValueError, KeyError, IndexError):
        printed = None
    if printed == text:
        return obj
    hint = f"; write it {printed}" if printed and read(arr, printed)[0] == listed else ""
    raise ValueError(f"{what} {text!r} is not a {what} of {arr.kind}{arr.d} as printed{hint}")


def _face_of_text(arr, text):
    """The signs (type C) or the blocks that a face string lists, in order,
    and the face of the point they give."""
    if arr.kind == KIND_C:
        listed = [{"+": 1, "-": -1, "0": 0}[c] for c in text]
    else:
        listed = [_parse_block(t, arr) for t in text.split("|")]
    view = tuple(listed)
    if arr.kind == KIND_B:  # the blocks before the zero block fix the point
        view = view[: [0 in b for b in listed].index(True)], None
    return listed, face_of_point(arr, _point(arr, view))


def parse_face(arr, text):
    """The face that ``face_str`` prints as ``text``."""
    return _read_printed(arr, text, "face", _face_of_text, face_str)


def _flat_of_text(arr, text):
    """The blocks that a flat string lists between its braces, sorted, and
    the flat on which the elements of each are equal (and, in type C, 0);
    the flat reads its blocks back off its zero set."""
    inner = (text.removeprefix("X_") if arr.kind == KIND_C else text)[1:-1]
    listed = sorted(sorted(_parse_block(t, arr)) for t in inner.split(","))
    groups = [(0, *b) for b in listed] if arr.kind == KIND_C else listed
    return listed, Flat(arr, _zero_set(arr, *_classes(arr, groups)))


def parse_flat(arr, text):
    """The flat that ``flat_str`` prints as ``text``."""
    return _read_printed(arr, text, "flat", _flat_of_text, flat_str)
