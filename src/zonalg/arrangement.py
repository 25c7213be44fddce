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

Faces carry a ``data`` payload whose shape depends on the kind:

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


@dataclass(frozen=True, slots=True)
class Face:
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
            return len(self.data[0])
        return sum(1 for s in self.data if s != 0)

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

def _face_a(arr, blocks):
    return Face(arr, tuple(frozenset(b) for b in blocks))


def _face_b(arr, blocks, zero):
    return Face(arr, (tuple(frozenset(b) for b in blocks), frozenset(zero)))


def _face_c(arr, signs):
    return Face(arr, tuple(int(s) for s in signs))


def central_face(arr):
    if arr.kind == KIND_A:
        return _face_a(arr, [range(1, arr.d + 1)])
    if arr.kind == KIND_B:
        full = frozenset(range(1, arr.d + 1)) | frozenset(range(-arr.d, 0))
        return _face_b(arr, (), full)
    return _face_c(arr, (0,) * arr.d)


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
    arr = face.arr
    if arr.kind == KIND_A:
        return (face.dim, tuple(tuple(sorted(b)) for b in face.data))
    if arr.kind == KIND_B:
        blocks, zero = face.data
        return (face.dim, tuple(tuple(sorted(b)) for b in blocks), tuple(sorted(zero)))
    return (face.dim, face.data)


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
    out = []
    if arr.kind == KIND_A:
        for comp in _set_compositions(tuple(range(1, d + 1))):
            out.append(Face(arr, comp))
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
                    out.append(_face_b(arr, blocks, zero))
    else:
        for signs in itertools.product((-1, 0, 1), repeat=d):
            out.append(_face_c(arr, signs))
    out.sort(key=_face_sort_key)
    return tuple(out)


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
    arr = face.arr
    if arr.kind == KIND_A:
        return Flat(arr, frozenset(face.data))
    if arr.kind == KIND_B:
        blocks, zero = face.data
        nonzero = frozenset(blocks) | frozenset(
            frozenset(-x for x in b) for b in blocks
        )
        return Flat(arr, (zero, nonzero))
    return Flat(arr, frozenset(i + 1 for i, s in enumerate(face.data) if s == 0))


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


def _full_blocks_b(face):
    """Ordered block list of a type-B face including the zero block."""
    blocks, zero = face.data
    mirrored = tuple(frozenset(-x for x in b) for b in reversed(blocks))
    return blocks + (zero,) + mirrored


def tits_product(f, g):
    """Tits product: refine each block of f by g, in g's order.

    For type B the refinement works on the full symmetric block lists, so the
    sign bookkeeping is automatic.  For the coordinate arrangement the product
    is componentwise with 0 acting as the identity.
    """
    arr = f.arr
    if arr != g.arr:
        raise ValueError("faces from different arrangements")
    if arr.kind == KIND_A:
        out = []
        for s in f.data:
            for t in g.data:
                piece = s & t
                if piece:
                    out.append(piece)
        return Face(arr, tuple(out))
    if arr.kind == KIND_B:
        fb = _full_blocks_b(f)
        gb = _full_blocks_b(g)
        fzero_idx = len(f.data[0])
        gzero_idx = len(g.data[0])
        blocks = []
        zero = frozenset()
        for i, s in enumerate(fb):
            for j, t in enumerate(gb):
                piece = s & t
                if not piece:
                    continue
                if i == fzero_idx and j == gzero_idx:
                    zero = piece
                else:
                    blocks.append(piece)
        m = len(blocks) // 2
        return _face_b(arr, blocks[:m], zero)
    signs = tuple(a if a != 0 else b for a, b in zip(f.data, g.data))
    return _face_c(arr, signs)


def face_leq(f, g):
    """Face partial order: f <= g iff f is contained in (is a face of) g."""
    arr = f.arr
    if arr != g.arr:
        raise ValueError("faces from different arrangements")
    if arr.kind == KIND_C:
        return all(a == 0 or a == b for a, b in zip(f.data, g.data))
    if arr.kind == KIND_A:
        fb, gb = f.data, g.data
    else:
        fb, gb = _full_blocks_b(f), _full_blocks_b(g)
        # zero blocks may be empty; drop empties for the covering test
        fb = tuple(b for b in fb if b)
        gb = tuple(b for b in gb if b)
        if not f.data[1] and g.data[1]:
            return False
    idx = 0
    for block in fb:
        covered = set()
        while covered != set(block):
            if idx >= len(gb) or not gb[idx] <= block:
                return False
            covered |= gb[idx]
            idx += 1
    return idx == len(gb)


# ---------------------------------------------------------------------------
# geometry: canonical interior points and the face of a point

def interior_point(face, variant=0):
    """A canonical rational point in the relative interior of the face.

    ``variant=1`` gives a second, independent interior point (used to check
    that computations do not depend on the choice).
    """
    arr = face.arr
    d = arr.d
    x = [Fraction(0)] * d
    if arr.kind == KIND_A:
        k = len(face.data)
        for i, block in enumerate(face.data):
            v = k - (i + 1)
            val = Fraction(v * v if variant else v)
            for j in block:
                x[j - 1] = val
    elif arr.kind == KIND_B:
        blocks, _zero = face.data
        m = len(blocks)
        for i, block in enumerate(blocks):
            v = m - i
            val = Fraction(v * v if variant else v)
            for e in block:
                if e > 0:
                    x[e - 1] = val
                else:
                    x[-e - 1] = -val
    else:
        for i, s in enumerate(face.data):
            mag = Fraction(i + 2 if variant else 1)
            x[i] = s * mag
    return tuple(x)


def face_of_point(arr, point):
    """The face whose relative interior contains the given point."""
    d = arr.d
    if arr.kind == KIND_A:
        levels = sorted(set(point), reverse=True)
        blocks = [frozenset(j + 1 for j in range(d) if point[j] == v) for v in levels]
        return Face(arr, tuple(blocks))
    if arr.kind == KIND_B:
        pos_levels = sorted({abs(v) for v in point if v != 0}, reverse=True)
        blocks = []
        for v in pos_levels:
            blk = set()
            for j in range(d):
                if point[j] == v:
                    blk.add(j + 1)
                elif point[j] == -v:
                    blk.add(-(j + 1))
            blocks.append(frozenset(blk))
        zero = frozenset(
            e for j in range(d) if point[j] == 0 for e in (j + 1, -(j + 1))
        )
        return _face_b(arr, blocks, zero)
    signs = tuple(0 if v == 0 else (1 if v > 0 else -1) for v in point)
    return _face_c(arr, signs)


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
    arr = face.arr
    if arr.kind == KIND_A:
        return "|".join(_block_str_a(b, arr.d) for b in face.data)
    if arr.kind == KIND_B:
        parts = []
        blocks, zero = face.data
        mirrored = tuple(frozenset(-x for x in b) for b in reversed(blocks))
        for b in blocks:
            parts.append(_block_str_b(b))
        parts.append("0:" + _block_str_b(zero))
        for b in mirrored:
            parts.append(_block_str_b(b))
        return "|".join(parts)
    return "".join("+" if s > 0 else ("-" if s < 0 else "0") for s in face.data)


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
        blocks = [_parse_block(tok, arr.d) for tok in text.split("|")]
        face = Face(arr, tuple(blocks))
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
        face = _face_b(arr, blocks, zero)
    else:
        signs = tuple(1 if c == "+" else (-1 if c == "-" else 0) for c in text)
        face = _face_c(arr, signs)
    _validate_face(face)
    return face


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


def _validate_face(face):
    arr = face.arr
    ground = set(range(1, arr.d + 1))
    if arr.kind == KIND_A:
        seen = set()
        for b in face.data:
            if not b or b & seen:
                raise ValueError(f"invalid face {face.data}")
            seen |= b
        if seen != ground:
            raise ValueError(f"face does not cover the ground set: {face.data}")
    elif arr.kind == KIND_B:
        blocks, zero = face.data
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
        if len(face.data) != arr.d or any(s not in (-1, 0, 1) for s in face.data):
            raise ValueError("invalid sign vector")
