"""Property-based tests: face and flat strings round-trip at every d up to
12, the parsers accept exactly the texts that the old per-kind validators
accepted and that print back as themselves, the covector Tits product, face
order and support agree with their geometric oracles, the sparse
combinations obey the laws of a rational vector space, and the products, the
support map and the module action that the extension kernel builds obey the
laws of the algebras, and the cone weights by Lawrence's formula equal the
triangulation oracle."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from zonalg import arrangement as arrg
from zonalg.arrangement import Arrangement, braid, coordinate, type_b
from zonalg.polyclass import (
    PiElement,
    VPolytope,
    cube,
    permutahedron,
    polytope_cone_weights,
    psi1,
    segment,
    simplex,
    simplex0,
    typeB_permutahedron,
)
from zonalg.spectra import b_generators
from zonalg.titsalgebra import FlatsElement, TitsElement

import volume_oracle

_SETTINGS = settings(max_examples=150, deadline=None)
_FEW = settings(max_examples=40, deadline=None)
_MANY = settings(max_examples=200, deadline=None)


@st.composite
def faces_up_to_12(draw, kind, max_d=12):
    """A face of the kind's arrangement in R^d, d drawn from 1..max_d: the
    face of an integer point in [-d, d]^d (every face is one)."""
    d = draw(st.integers(1, max_d))
    return arrg.face_of_point(Arrangement(kind, d), draw(_points(d)))


def _points(d):
    return st.lists(st.integers(-d, d), min_size=d, max_size=d)


@pytest.mark.parametrize("kind", arrg._KINDS)
@_SETTINGS
@given(data=st.data())
def test_face_and_flat_strings_round_trip(kind, data):
    face = data.draw(faces_up_to_12(kind))
    arr = face.arr
    assert arrg.parse_face(arr, arrg.face_str(face)) == face
    flat = arrg.support(face)  # every flat is the support of a face
    assert arrg.parse_flat(arr, arrg.flat_str(flat)) == flat


def test_strings_from_d10_separate_every_element():
    a10 = braid(10)
    e10 = (0,) * 9 + (1,)
    face = arrg.face_of_point(a10, e10)
    assert arrg.face_str(face) == "10|1 2 3 4 5 6 7 8 9"
    assert arrg.parse_face(a10, "10|1 2 3 4 5 6 7 8 9") == face
    flat = arrg.support(face)
    assert arrg.flat_str(flat) == "{1 2 3 4 5 6 7 8 9,10}"
    assert arrg.parse_flat(a10, "{1 2 3 4 5 6 7 8 9,10}") == flat
    b10 = type_b(10)
    bface = arrg.face_of_point(b10, e10)
    assert arrg.face_str(bface).startswith("10|0:1 -1 ")
    assert arrg.parse_face(b10, arrg.face_str(bface)) == bface
    # up to d = 9 the digits still run together
    assert arrg.face_str(arrg.face_of_point(braid(9), (0,) * 8 + (1,))) == "9|12345678"


# ---------------------------------------------------------------------------
# parsing: a text is read exactly when the old parser, with the per-kind
# validators, reads it and its face or flat prints back as the text

def _old_parse_block(token, d):
    """A block of space-separated integers; up to d = 9 a token without
    spaces or signs may also run single digits together."""
    parts = token.split()
    if d <= 9 and len(parts) == 1 and "-" not in token:
        return frozenset(int(ch) for ch in parts[0])
    return frozenset(int(t) for t in parts)


def _old_parse_face(arr, text):
    """The face parser with the validator it had before a parsed face was
    checked by reading it back off its covector."""
    text = text.strip()
    if arr.kind == "A":
        view = tuple(_old_parse_block(tok, arr.d) for tok in text.split("|"))
    elif arr.kind == "B":
        zero, blocks, zero_seen = frozenset(), [], False
        for tok in text.split("|"):
            tok = tok.strip()
            if tok.startswith("0:"):
                zero, zero_seen = _old_parse_block(tok[2:], arr.d), True
            elif not zero_seen:
                blocks.append(_old_parse_block(tok, arr.d))
        if not zero_seen:
            if len(blocks) % 2:
                raise ValueError(text)
            blocks = blocks[: len(blocks) // 2]
        view = (tuple(blocks), zero)
    else:
        signs = {"+": 1, "-": -1, "0": 0}
        if any(c not in signs for c in text):
            raise ValueError(text)
        view = tuple(signs[c] for c in text)
    _old_validate_view(arr, view)
    return arrg._face_of_view(arr, view)


def _old_validate_view(arr, view):
    ground = set(range(1, arr.d + 1))
    if arr.kind == "A":
        seen = set()
        for b in view:
            if not b or b & seen:
                raise ValueError(view)
            seen |= b
        if seen != ground:
            raise ValueError(view)
    elif arr.kind == "B":
        blocks, zero = view
        if zero != frozenset(-e for e in zero):
            raise ValueError(view)
        seen = set(zero)
        for b in blocks:
            if not b or b & frozenset(-e for e in b):
                raise ValueError(view)
            if (b | frozenset(-e for e in b)) & seen:
                raise ValueError(view)
            seen |= b | frozenset(-e for e in b)
        if {abs(e) for e in seen} != ground:
            raise ValueError(view)
    elif len(view) != arr.d or any(s not in (-1, 0, 1) for s in view):
        raise ValueError(view)


def _old_parse_flat(arr, text):
    """The flat parser with the validator it had before a parsed flat was
    checked by reading it back off its zero set."""
    text = text.strip()
    if arr.kind == "C":
        inner = text[2:] if text.startswith("X_") else text
        zero = frozenset(int(t) for t in inner.strip("{}").replace(",", " ").split())
        if not zero <= frozenset(range(1, arr.d + 1)):
            raise ValueError(text)
        return arrg.flat_of_blocks(arr, zero, ())
    zero, blocks = frozenset(), []
    for tok in text.strip("{}").split(","):
        tok = tok.strip()
        if arr.kind == "B" and tok.startswith("0:"):
            zero = _old_parse_block(tok[2:], arr.d)
        elif tok:
            blocks.append(_old_parse_block(tok, arr.d))
    neg = arrg._neg
    ground = frozenset(range(1, arr.d + 1))
    if arr.kind == "B":
        ground |= neg(ground)
        if zero != neg(zero) or any(b & neg(b) for b in blocks):
            raise ValueError(text)
        blocks = list({*blocks, *map(neg, blocks)}) + ([zero] if zero else [])
    covered = frozenset().union(*blocks)
    if not all(blocks) or sum(map(len, blocks)) != len(covered) or covered != ground:
        raise ValueError(text)
    return arrg.flat_of_blocks(arr, zero, blocks)


def _outcome(parse, arr, text):
    try:
        return parse(arr, text)
    except ValueError:
        return None


def _printed_back(parse, show, arr, text):
    """What the old parser reads off the text, if it prints back as the text."""
    read = _outcome(parse, arr, text)
    return read if read is not None and show(read) == text else None


_FACE_TOKENS = ("1", "2", "3", "4", "0", "10", "-", " ", "|", "0:", "+", "0+")
_FLAT_TOKENS = ("1", "2", "3", "4", "0", "10", "-", " ", ",", "0:", "{", "}", "X_")


@st.composite
def _texts(draw, kind, tokens, printed):
    """(arrangement, text): a string of grammar tokens, or the printed form
    of a face or flat with up to three edits, each inserting a token or a
    piece of the text (so that blocks repeat) and maybe dropping a
    character."""
    arr = Arrangement(kind, draw(st.integers(1, 3)))
    if draw(st.booleans()):
        return arr, "".join(draw(st.lists(st.sampled_from(tokens), max_size=14)))
    text = printed(arrg.face_of_point(arr, draw(_points(arr.d))))
    for _ in range(draw(st.integers(1, 3))):
        i, j = draw(st.integers(0, len(text))), draw(st.integers(0, len(text)))
        piece = draw(st.sampled_from(("", text[min(i, j):max(i, j)]) + tokens))
        text = text[:i] + piece + text[i + draw(st.integers(0, 1)):]
    return arr, text


@pytest.mark.parametrize("kind", arrg._KINDS)
@_MANY
@given(data=st.data())
def test_parse_face_accepts_what_the_validator_did(kind, data):
    arr, text = data.draw(_texts(kind, _FACE_TOKENS, arrg.face_str))
    assert _outcome(arrg.parse_face, arr, text) is _printed_back(_old_parse_face, arrg.face_str, arr, text)


@pytest.mark.parametrize("kind", arrg._KINDS)
@_MANY
@given(data=st.data())
def test_parse_flat_accepts_what_the_validator_did(kind, data):
    printed = lambda f: arrg.flat_str(arrg.support(f))  # noqa: E731
    arr, text = data.draw(_texts(kind, _FLAT_TOKENS, printed))
    assert _outcome(arrg.parse_flat, arr, text) is _printed_back(_old_parse_flat, arrg.flat_str, arr, text)


# ---------------------------------------------------------------------------
# the covector algebra at sampled d <= 7, against the geometric oracles

def _face_pair(data, kind):
    f = data.draw(faces_up_to_12(kind, max_d=7))
    return f, arrg.face_of_point(f.arr, data.draw(_points(f.arr.d)))


@pytest.mark.parametrize("kind", arrg._KINDS)
@_SETTINGS
@given(data=st.data())
def test_tits_product_is_the_geometric_product(kind, data):
    f, g = _face_pair(data, kind)
    assert arrg.tits_product(f, g) is arrg.tits_product_geometric(f, g)


@pytest.mark.parametrize("kind", arrg._KINDS)
@_SETTINGS
@given(data=st.data())
def test_face_order_is_absorption(kind, data):
    """f <= h iff fh = h; and supp f <= supp h iff hf = h."""
    f, g = _face_pair(data, kind)
    # f <= fg always holds, so both outcomes are drawn
    for h in (g, arrg.tits_product(f, g)):
        assert arrg.face_leq(f, h) == (arrg.tits_product(f, h) is h)
        assert arrg.flat_leq(arrg.support(f), arrg.support(h)) == (arrg.tits_product(h, f) is h)


@pytest.mark.parametrize("kind", arrg._KINDS)
@_SETTINGS
@given(data=st.data())
def test_support_of_product_is_join(kind, data):
    f, g = _face_pair(data, kind)
    fg = arrg.tits_product(f, g)
    assert arrg.support(fg) == arrg.flat_join(arrg.support(f), arrg.support(g))


@pytest.mark.parametrize("kind", arrg._KINDS)
@_SETTINGS
@given(data=st.data())
def test_face_of_interior_point(kind, data):
    f, _ = _face_pair(data, kind)
    assert arrg.face_of_point(f.arr, arrg.interior_point(f)) is f


@pytest.mark.parametrize("kind", arrg._KINDS)
@_SETTINGS
@given(data=st.data())
def test_flat_of_blocks_returns_the_flat_with_the_blocks_asked(kind, data):
    # groups of signed elements, 0 among them: the call raises exactly when
    # no flat of the arrangement has the classes they ask for
    arr = Arrangement(kind, data.draw(st.integers(1, 4)))
    signed = st.integers(-arr.d, arr.d)
    zero = data.draw(st.lists(signed, max_size=2))
    groups = data.draw(st.lists(st.lists(signed, min_size=1, max_size=3), max_size=3))
    asked = arrg._classes(arr, ((0, *zero), *groups))
    have = {arrg.flat_blocks(x): x for x in arrg.flats(arr)}
    try:
        flat = arrg.flat_of_blocks(arr, zero, groups)
    except ValueError:
        assert asked not in have
    else:
        assert flat is have[asked]


# ---------------------------------------------------------------------------
# linear laws of the sparse combinations

def _polytopes(arr):
    if arr.kind == arrg.KIND_A:
        pool = [permutahedron(3), simplex(arr, {1, 2}), simplex(arr, {1, 2, 3}), simplex(arr, {2})]
    elif arr.kind == arrg.KIND_B:
        pool = [typeB_permutahedron(2), simplex0(arr, {1, -2}), simplex(arr, {1, 2}), simplex0(arr, {2})]
    else:
        rectangle = VPolytope(arr, [(0, 0, 0), (0, 2, 0), (0, 0, 1), (0, 2, 1)])
        pool = [cube(3), segment(arr, (1, 0, 0)), rectangle, cube(3).dilate(2)]
    return pool + [p.translate((Fraction(1, 2),) + (Fraction(-1),) * (arr.d - 1)) for p in pool]


_KEYS = {
    "faces": lambda arr: arrg.faces(arr),
    "flats": lambda arr: arrg.flats(arr),
    "polytopes": _polytopes,
}
_TYPES = {"faces": TitsElement, "flats": FlatsElement, "polytopes": PiElement}
_ARRS = (braid(3), type_b(2), coordinate(3))
_COEFFS = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def _combinations(kind, arr, n):
    keys = list(_KEYS[kind](arr))
    mapping = st.dictionaries(st.sampled_from(keys), _COEFFS, max_size=6)
    return st.lists(mapping.map(lambda m: _TYPES[kind](arr, m)), min_size=n, max_size=n)


def _canonical(x):
    return all(type(c) is Fraction and c != 0 for c in x.terms.values())


@pytest.mark.parametrize("arr", _ARRS, ids=str)
@pytest.mark.parametrize("kind", sorted(_KEYS))
@_FEW
@given(data=st.data())
def test_linear_laws(kind, arr, data):
    x, y, z = data.draw(_combinations(kind, arr, 3))
    a, b = data.draw(_COEFFS), data.draw(_COEFFS)
    assert x + y == y + x
    assert (x + y) + z == x + (y + z)
    assert (x + y).scale(a) == x.scale(a) + y.scale(a)
    assert x.scale(a + b) == x.scale(a) + x.scale(b)
    assert x - y == x + -y
    diff = x - x
    assert diff.is_zero() and diff.terms == {} and diff == type(x).zero(arr)
    for w in (x, y + z, x - y, x.scale(a), -z):
        assert _canonical(w)
    absent = [k for k in _KEYS[kind](arr) if type(x)._key(k) not in x.terms]
    for k in absent[:3]:
        assert x.coeff(k) == 0
    for k, c in x.terms.items():
        assert x.coeff(k) == c


@pytest.mark.parametrize("arr", _ARRS, ids=str)
@_FEW
@given(data=st.data())
def test_translates_share_one_class_key(arr, data):
    p = data.draw(st.sampled_from(_polytopes(arr)))
    t = tuple(data.draw(st.lists(_COEFFS, min_size=arr.d, max_size=arr.d)))
    assume(any(t))
    a, b = data.draw(_COEFFS), data.draw(_COEFFS)
    x = PiElement(arr, {p: a, p.translate(t): b})
    assert list(x.terms) == ([p.normalized()] if a + b else [])
    assert x.coeff(p) == x.coeff(p.translate(t)) == a + b
    assert PiElement.of(p) - PiElement.of(p.translate(t)) == PiElement.zero(arr)


# ---------------------------------------------------------------------------
# the extension kernel at d <= 4: face sums and flat sums with rational
# coefficients, the faces and flats drawn as the faces of integer points

def _arrangement(data, kind):
    return Arrangement(kind, data.draw(st.integers(1, 4)))


def _sums(arr, key, cls, size=4):
    terms = st.lists(st.tuples(_points(arr.d), _COEFFS), max_size=size)
    return terms.map(lambda ts: cls(arr, {key(arrg.face_of_point(arr, p)): c for p, c in ts}))


def _face_sums(arr, size=4):
    return _sums(arr, lambda f: f, TitsElement, size)


def _flat_sums(arr):
    return _sums(arr, arrg.support, FlatsElement)


@pytest.mark.parametrize("kind", arrg._KINDS)
@_FEW
@given(data=st.data())
def test_tits_products_are_associative(kind, data):
    arr = _arrangement(data, kind)
    x, y, z = (data.draw(_face_sums(arr)) for _ in range(3))
    assert (x * y) * z == x * (y * z)
    assert _canonical(x * y)


def _join_oracle(x, y):
    """The product of two flat sums, summed in Fractions term by term."""
    out = {}
    for a, ca in x.terms.items():
        for b, cb in y.terms.items():
            j = arrg.flat_join(a, b)
            out[j] = out.get(j, Fraction(0)) + ca * cb
    return {j: c for j, c in out.items() if c}


@pytest.mark.parametrize("kind", arrg._KINDS)
@_FEW
@given(data=st.data())
def test_flats_products_equal_the_fraction_oracle(kind, data):
    arr = _arrangement(data, kind)
    x, y = data.draw(_flat_sums(arr)), data.draw(_flat_sums(arr))
    xy = x * y
    assert xy.terms == _join_oracle(x, y)
    assert _canonical(xy)


@pytest.mark.parametrize("kind", arrg._KINDS)
@_FEW
@given(data=st.data())
def test_support_map_is_multiplicative(kind, data):
    arr = _arrangement(data, kind)
    x, y = data.draw(_face_sums(arr)), data.draw(_face_sums(arr))
    assert (x * y).support_image() == x.support_image() * y.support_image()


def _small_polytopes(arr):
    """Small deformations over the arrangement: simplices (with the origin,
    for B) on up to two indices, and coordinate boxes for C."""
    d = arr.d
    if arr.kind == arrg.KIND_C:
        axes = [tuple(int(i == j) for j in range(d)) for i in range(d)]
        return [segment(arr, v) for v in axes] + [cube(d)]
    pairs = [(i,) for i in range(1, d + 1)] + [(i, j) for i in range(1, d + 1) for j in range(i + 1, d + 1)]
    if arr.kind == arrg.KIND_A:
        return [simplex(arr, s) for s in pairs]
    return [simplex0(arr, s) for s in pairs] + [simplex0(arr, (s[0], -s[-1])) for s in pairs if len(s) == 2]


@pytest.mark.parametrize("kind", arrg._KINDS)
@_FEW
@given(data=st.data())
def test_face_sums_act_on_classes(kind, data):
    """x.act(e).act(e') = x.act(e e'), in the convention of
    ``test_module_axioms_on_classes``: act by e first, then by e'."""
    arr = _arrangement(data, kind)
    pool = _small_polytopes(arr)
    terms = data.draw(st.lists(st.tuples(st.sampled_from(pool), _COEFFS), min_size=1, max_size=2))
    x = PiElement(arr, dict(terms))
    e, e2 = data.draw(_face_sums(arr, 3)), data.draw(_face_sums(arr, 3))
    xe = x.act(e)
    assert xe.act(e2) == x.act(e * e2)
    assert all(p.normalized() is p for p in xe.terms)  # translates share one key


# ---------------------------------------------------------------------------
# cone weights: Lawrence's formula on the chamber sweep against the
# triangulation of the face lattice

def _generators(arr):
    """The simplices on every index set (A), the special simplices with and
    without the origin (B), or the axis segments and the cube (C)."""
    d = arr.d
    if arr.kind == arrg.KIND_A:
        return [simplex(arr, s) for k in range(1, d + 1) for s in itertools.combinations(range(1, d + 1), k)]
    if arr.kind == arrg.KIND_B:
        family = b_generators(d)
        return [family.polytope(g) for g in family.members]
    return [segment(arr, tuple(int(i == j) for j in range(d))) for i in range(d)] + [cube(d)]


@pytest.mark.parametrize("arr", (braid(3), braid(4), type_b(2), type_b(3), coordinate(3)), ids=str)
@_FEW
@given(data=st.data())
def test_cone_weights_equal_the_triangulation_oracle(arr, data):
    """Over sums of generators, dilated by 1/2 or not, translated by a
    rational vector and cut to a face or not."""
    summands = data.draw(st.lists(st.sampled_from(_generators(arr)), min_size=1, max_size=3))
    p = summands[0]
    for q in summands[1:]:
        p = p.minkowski(q)
    if data.draw(st.booleans()):
        p = p.dilate(Fraction(1, 2))
    p = p.translate(data.draw(st.lists(_COEFFS, min_size=arr.d, max_size=arr.d)))
    if data.draw(st.booleans()):
        p = p.face_max(data.draw(st.sampled_from(arrg.faces(arr))))
    want = volume_oracle.cone_weights(p)
    assert polytope_cone_weights(p).terms == want
    assert psi1(p).terms == {f: w for f, w in want.items() if f.dim == arr.d - 1}
