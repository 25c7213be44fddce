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
packed into two int bitmasks.  So the Tits product, the face order and the
face of a point read only the list and the masks.  The kind shows only in
the hyperplane list, the enumerators, the strings and the block view of a
face (``_view``), which is shaped like this:

* A: tuple of frozensets (the ordered blocks);
* B: pair (tuple of frozensets, frozenset) -- the blocks strictly before
  the zero block, and the zero block; the blocks after the zero block are
  the mirrored negatives and are not stored;
* C: tuple of ints in {-1, 0, +1}.

Flat payloads:

* A: frozenset of frozensets;
* B: pair (frozenset zero block, frozenset of all nonzero signed blocks);
* C: frozenset of the zero coordinates.

All values are immutable; every function is pure.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass, field
from fractions import Fraction
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
    support and the block view are computed once per face.
    """

    __slots__ = ("arr", "pos", "neg", "_support", "_view", "__weakref__")

    def __new__(cls, arr, pos, neg):
        key = (arr.kind, arr.d, pos, neg)
        self = _FACES.get(key)
        if self is None:
            self = object.__new__(cls)
            self.arr, self.pos, self.neg = arr, pos, neg
            self._support = self._view = None
            _FACES[key] = self
        return self

    @property
    def dim(self):
        return support(self).dim

    def __str__(self):
        return face_str(self)

    def __repr__(self):
        return f"Face<{face_str(self)}>"


@dataclass(frozen=True, slots=True)
class Flat:
    arr: Arrangement
    data: tuple
    _hash: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.arr.kind, self.arr.d, self.data)))

    def __hash__(self):
        return self._hash

    @property
    def dim(self):
        if self.arr.kind == KIND_A:
            return len(self.data)
        if self.arr.kind == KIND_B:
            return len(self.data[1]) // 2
        return self.arr.d - len(self.data)

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
    if arr.kind == KIND_A:
        return Flat(arr, frozenset(frozenset([i]) for i in range(1, arr.d + 1)))
    if arr.kind == KIND_B:
        blocks = frozenset(frozenset([i]) for i in range(1, arr.d + 1)) | frozenset(
            frozenset([-i]) for i in range(1, arr.d + 1)
        )
        return Flat(arr, (frozenset(), blocks))
    return Flat(arr, frozenset())


# ---------------------------------------------------------------------------
# enumeration

def _set_compositions(items):
    """All ordered set partitions of ``items`` (a tuple)."""
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for comp in _set_compositions(rest):
        # put `first` into an existing block, or as a new block anywhere
        for i, block in enumerate(comp):
            yield comp[:i] + (block | {first},) + comp[i + 1:]
        for i in range(len(comp) + 1):
            yield comp[:i] + (frozenset([first]),) + comp[i:]


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
    arr = flat.arr
    if arr.kind == KIND_A:
        return (flat.dim, tuple(sorted(tuple(sorted(b)) for b in flat.data)))
    if arr.kind == KIND_B:
        zero, blocks = flat.data
        return (flat.dim, tuple(sorted(zero)), tuple(sorted(tuple(sorted(b)) for b in blocks)))
    return (flat.dim, tuple(sorted(flat.data)))


@lru_cache(maxsize=None)
def faces(arr):
    """All faces of the arrangement, deterministically ordered by (dim, key)."""
    d = arr.d
    views = []
    if arr.kind == KIND_A:
        views.extend(_set_compositions(tuple(range(1, d + 1))))
    elif arr.kind == KIND_B:
        ground = tuple(range(1, d + 1))
        for zero_abs in _subsets(ground):
            live = tuple(x for x in ground if x not in zero_abs)
            zero = frozenset(zero_abs) | frozenset(-x for x in zero_abs)
            for comp in _set_compositions(live):
                for signs in itertools.product((1, -1), repeat=len(live)):
                    sign_of = dict(zip(live, signs))
                    blocks = tuple(
                        frozenset(x * sign_of[x] for x in block) for block in comp
                    )
                    views.append((blocks, zero))
    else:
        views.extend(itertools.product((-1, 0, 1), repeat=d))
    return tuple(sorted((_face_of_view(arr, v) for v in views), key=_face_sort_key))


def _subsets(items):
    for r in range(len(items) + 1):
        yield from itertools.combinations(items, r)


@lru_cache(maxsize=None)
def flats(arr):
    """All flats, deterministically ordered by (dim, key)."""
    d = arr.d
    out = []
    if arr.kind == KIND_A:
        for part in _set_partitions(tuple(range(1, d + 1))):
            out.append(Flat(arr, frozenset(part)))
    elif arr.kind == KIND_B:
        ground = tuple(range(1, d + 1))
        for zero_abs in _subsets(ground):
            live = tuple(x for x in ground if x not in zero_abs)
            zero = frozenset(zero_abs) | frozenset(-x for x in zero_abs)
            for part in _set_partitions(live):
                # sign choices: the minimum of each block is fixed positive
                choices = []
                for block in part:
                    blk = tuple(sorted(block))
                    rest = blk[1:]
                    opts = []
                    for signs in itertools.product((1, -1), repeat=len(rest)):
                        s = frozenset([blk[0]]) | frozenset(
                            x * e for x, e in zip(rest, signs)
                        )
                        opts.append(s)
                    choices.append(opts)
                for combo in itertools.product(*choices):
                    blocks = frozenset(combo) | frozenset(
                        frozenset(-x for x in s) for s in combo
                    )
                    out.append(Flat(arr, (zero, blocks)))
    else:
        for sub in _subsets(tuple(range(1, d + 1))):
            out.append(Flat(arr, frozenset(sub)))
    out.sort(key=_flat_sort_key)
    return tuple(out)


def chambers(arr):
    full = arr.d
    return tuple(f for f in faces(arr) if f.dim == full)


# ---------------------------------------------------------------------------
# support, order, product

def support(face):
    """The flat spanned by the face: the intersection of the hyperplanes its
    covector is zero on."""
    x = face._support
    if x is None:
        arr, view = face.arr, _view(face)
        if arr.kind == KIND_A:
            x = Flat(arr, frozenset(view))
        elif arr.kind == KIND_B:
            blocks, zero = view
            nonzero = frozenset(blocks) | frozenset(frozenset(-e for e in b) for b in blocks)
            x = Flat(arr, (zero, nonzero))
        else:
            x = Flat(arr, frozenset(i + 1 for i, s in enumerate(view) if s == 0))
        face._support = x
    return x


def flat_leq(x, y):
    """True iff x <= y in the lattice of flats (y refines x)."""
    arr = x.arr
    if arr != y.arr:
        raise ValueError("flats from different arrangements")
    if arr.kind == KIND_A:
        return all(any(b <= a for a in x.data) for b in y.data)
    if arr.kind == KIND_B:
        zx, bx = x.data
        zy, by = y.data
        if not zy <= zx:
            return False
        return all(any(b <= a for a in bx) or b <= zx for b in by)
    return y.data <= x.data


def flat_join(x, y):
    """Least upper bound: the common refinement (blockwise intersections)."""
    arr = x.arr
    if arr != y.arr:
        raise ValueError("flats from different arrangements")
    if arr.kind == KIND_A:
        blocks = set()
        for a in x.data:
            for b in y.data:
                piece = a & b
                if piece:
                    blocks.add(piece)
        return Flat(arr, frozenset(blocks))
    if arr.kind == KIND_B:
        zx, bx = x.data
        zy, by = y.data
        xs = list(bx) + [zx]
        ys = list(by) + [zy]
        zero = zx & zy
        blocks = set()
        for a in xs:
            for b in ys:
                piece = a & b
                if piece and piece != zero:
                    blocks.add(piece)
        blocks.discard(frozenset())
        return Flat(arr, (zero, frozenset(b for b in blocks if not b <= zero)))
    return Flat(arr, x.data & y.data)


def flats_geq(x):
    return [y for y in flats(x.arr) if flat_leq(x, y)]


def faces_with_support(arr, x):
    return [f for f in faces(arr) if support(f) == x]


def _pair_representatives(blocks):
    """One block of each ± pair of a signed flat's nonzero blocks: the one
    whose element of least absolute value is positive."""
    return [b for b in blocks if min(b, key=abs) > 0]


def flat_type(flat):
    """(zero-block size, sorted block sizes) of a type-A or type-B flat.  In
    type B the zero block counts its ± pairs and each ± pair of nonzero
    blocks is one block; in type A the zero block is empty."""
    if flat.arr.kind == KIND_A:
        return 0, tuple(sorted(map(len, flat.data)))
    if flat.arr.kind == KIND_B:
        zero, blocks = flat.data
        return len(zero) // 2, tuple(sorted(map(len, _pair_representatives(blocks))))
    raise ValueError("flat types exist for the braid and type-B arrangements")


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


def _point(arr, view, variant=0):
    """An integer point in the relative interior of the face with this view."""
    x = [0] * arr.d
    if arr.kind == KIND_A:
        k = len(view)
        for i, block in enumerate(view):
            v = k - (i + 1)
            for j in block:
                x[j - 1] = v * v if variant else v
    elif arr.kind == KIND_B:
        blocks, _zero = view
        m = len(blocks)
        for i, block in enumerate(blocks):
            v = m - i
            val = v * v if variant else v
            for e in block:
                if e > 0:
                    x[e - 1] = val
                else:
                    x[-e - 1] = -val
    else:
        for i, s in enumerate(view):
            x[i] = s * (i + 2 if variant else 1)
    return x


def _face_of_view(arr, view):
    """The face with this block view, which it keeps rather than reading it
    off the covector again."""
    face = face_of_point(arr, _point(arr, view))
    if face._view is None:
        face._view = view
    return face


def interior_point(face, variant=0):
    """A canonical rational point in the relative interior of the face.

    ``variant=1`` gives a second, independent interior point (used to check
    that computations do not depend on the choice).
    """
    return tuple(Fraction(c) for c in _point(face.arr, _view(face), variant))


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
    """Oracle for the Tits product: the face of v_F + eps * v_G."""
    arr = f.arr
    eps = Fraction(1, 4 * arr.d * arr.d)
    vf = interior_point(f)
    vg = interior_point(g)
    point = tuple(a + eps * b for a, b in zip(vf, vg))
    return face_of_point(arr, point)


# ---------------------------------------------------------------------------
# Möbius function and characteristic polynomials

def _mobius_partition_factor(num_blocks):
    # mu(bottom, X) for a set partition with num_blocks blocks
    k = num_blocks
    sign = -1 if (k - 1) % 2 else 1
    fact = 1
    for i in range(1, k):
        fact *= i
    return sign * fact


def _mobius_signed_factor(num_pairs):
    # mu(bottom, X) for a signed partition with num_pairs nonzero block pairs
    k = num_pairs
    sign = -1 if k % 2 else 1
    dfact = 1
    for i in range(2 * k - 1, 0, -2):
        dfact *= i
    return sign * dfact


def mobius(x, y):
    """Möbius function of the flat lattice, via the product formulas."""
    arr = x.arr
    if arr != y.arr:
        raise ValueError("flats from different arrangements")
    if not flat_leq(x, y):
        raise ValueError("mobius requires x <= y")
    if arr.kind == KIND_A:
        result = 1
        for block in x.data:
            inside = sum(1 for b in y.data if b <= block)
            result *= _mobius_partition_factor(inside)
        return result
    if arr.kind == KIND_B:
        zx, bx = x.data
        zy, by = y.data
        pairs_in_zero = sum(1 for b in by if b <= zx) // 2
        result = _mobius_signed_factor(pairs_in_zero)
        for block in _pair_representatives(bx):
            inside = sum(1 for b in by if b <= block)
            result *= _mobius_partition_factor(inside)
        return result
    return (-1) ** (len(x.data) - len(y.data))


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


def _signed_block_sort_key(block):
    m = min(abs(e) for e in block)
    return (m, 0 if m in block else 1)


def _block_str_b(block):
    return " ".join(str(e) for e in sorted(block, key=lambda e: (abs(e), e < 0)))


def face_str(face):
    arr, view = face.arr, _view(face)
    if arr.kind == KIND_A:
        return "|".join(_block_str_a(b, arr.d) for b in view)
    if arr.kind == KIND_B:
        parts = []
        blocks, zero = view
        mirrored = tuple(frozenset(-x for x in b) for b in reversed(blocks))
        for b in blocks:
            parts.append(_block_str_b(b))
        parts.append("0:" + _block_str_b(zero))
        for b in mirrored:
            parts.append(_block_str_b(b))
        return "|".join(parts)
    return "".join("+" if s > 0 else ("-" if s < 0 else "0") for s in view)


def flat_str(flat):
    arr = flat.arr
    if arr.kind == KIND_A:
        blocks = sorted(flat.data, key=min)
        return "{" + ",".join(_block_str_a(b, arr.d) for b in blocks) + "}"
    if arr.kind == KIND_B:
        zero, blocks = flat.data
        parts = []
        if zero:
            parts.append("0:" + _block_str_b(zero))
        for b in sorted(blocks, key=_signed_block_sort_key):
            parts.append(_block_str_b(b))
        return "{" + ",".join(parts) + "}"
    return "X_{" + ",".join(str(i) for i in sorted(flat.data)) + "}"


def face_terms_json(terms):
    """A face-keyed combination as JSON rows, faces in the order of faces()."""
    return [
        {"face": face_str(f), "coeff": str(terms[f])}
        for f in sorted(terms, key=_face_sort_key)
    ]


def _parse_block(token, d):
    """A block of space-separated integers.  Up to d = 9 a token without
    spaces or signs may also run single digits together, e.g. "67"; from
    d = 10 on it is one integer."""
    parts = token.split()
    if d <= 9 and len(parts) == 1 and "-" not in token:
        return frozenset(int(ch) for ch in parts[0])
    return frozenset(int(t) for t in parts)


def parse_face(arr, text):
    text = text.strip()
    if arr.kind == KIND_A:
        view = tuple(_parse_block(tok, arr.d) for tok in text.split("|"))
    elif arr.kind == KIND_B:
        toks = text.split("|")
        zero = frozenset()
        blocks = []
        zero_seen = False
        for tok in toks:
            tok = tok.strip()
            if tok.startswith("0:"):
                zero = _parse_block(tok[2:], arr.d)
                zero_seen = True
            elif not zero_seen:
                blocks.append(_parse_block(tok, arr.d))
        if not zero_seen:
            # no explicit zero block: the listed blocks are symmetric halves
            if len(blocks) % 2:
                raise ValueError(f"cannot parse type-B face {text!r}")
            blocks = blocks[: len(blocks) // 2]
        view = (tuple(blocks), zero)
    else:
        view = tuple(1 if c == "+" else (-1 if c == "-" else 0) for c in text)
    _validate_view(arr, view)
    return _face_of_view(arr, view)


def parse_flat(arr, text):
    text = text.strip()
    if arr.kind == KIND_C:
        inner = text
        if inner.startswith("X_"):
            inner = inner[2:]
        inner = inner.strip("{}")
        items = frozenset(int(t) for t in inner.replace(",", " ").split()) if inner.strip() else frozenset()
        return _validate_flat(Flat(arr, items), text)
    inner = text.strip("{}")
    tokens = [t for t in inner.split(",") if t.strip()]
    if arr.kind == KIND_A:
        blocks = [_parse_block(t, arr.d) for t in tokens]
        if len(set(blocks)) != len(blocks):
            raise ValueError(f"flat {text!r} repeats a block")
        return _validate_flat(Flat(arr, frozenset(blocks)), text)
    zero = frozenset()
    blocks = set()
    for tok in tokens:
        tok = tok.strip()
        if tok.startswith("0:"):
            zero = _parse_block(tok[2:], arr.d)
        else:
            blocks.add(_parse_block(tok, arr.d))
    blocks |= {frozenset(-e for e in b) for b in blocks}
    return _validate_flat(Flat(arr, (zero, frozenset(blocks))), text)


def _validate_flat(flat, text):
    """The flat itself, if its blocks partition the ground set: [d] for type
    A, [±d] for type B (with a zero block closed under negation and nonzero
    blocks that miss their own negatives); the zero set must lie in [d] for
    the coordinate arrangement."""
    arr = flat.arr
    ground = frozenset(range(1, arr.d + 1))
    if arr.kind == KIND_C:
        if not flat.data <= ground:
            raise ValueError(f"flat {text!r} is not a subset of [{arr.d}]")
        return flat
    if arr.kind == KIND_A:
        blocks = list(flat.data)
    else:
        zero, nonzero = flat.data
        ground = ground | frozenset(-e for e in ground)
        if zero != frozenset(-e for e in zero):
            raise ValueError(f"flat {text!r}: the zero block is not closed under negation")
        if any(b & frozenset(-e for e in b) for b in nonzero):
            raise ValueError(f"flat {text!r}: a nonzero block meets its own negative")
        blocks = list(nonzero) + ([zero] if zero else [])
    covered = frozenset().union(*blocks)
    if not all(blocks) or sum(map(len, blocks)) != len(covered) or covered != ground:
        raise ValueError(f"flat {text!r} is not a partition of the ground set of {arr.kind}{arr.d}")
    return flat


def _validate_view(arr, view):
    ground = set(range(1, arr.d + 1))
    if arr.kind == KIND_A:
        seen = set()
        for b in view:
            if not b or b & seen:
                raise ValueError(f"invalid face {view}")
            seen |= b
        if seen != ground:
            raise ValueError(f"face does not cover the ground set: {view}")
    elif arr.kind == KIND_B:
        blocks, zero = view
        if zero != frozenset(-e for e in zero):
            raise ValueError("zero block must be involution-inclusive")
        seen = set(zero)
        for b in blocks:
            if not b or b & frozenset(-e for e in b):
                raise ValueError("nonzero blocks must be involution-exclusive")
            if (b | frozenset(-e for e in b)) & seen:
                raise ValueError("blocks overlap")
            seen |= b | frozenset(-e for e in b)
        if {abs(e) for e in seen} != ground:
            raise ValueError("face does not cover the ground set")
    else:
        if len(view) != arr.d or any(s not in (-1, 0, 1) for s in view):
            raise ValueError("invalid sign vector")
