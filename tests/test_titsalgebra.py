import pytest
from fractions import Fraction

from zonalg import arrangement as arrg
from zonalg.arrangement import braid, type_b, coordinate, bottom_flat, top_flat, parse_face, parse_flat
from zonalg.titsalgebra import (
    EulerianFamily,
    FlatsElement,
    TitsElement,
    adams_element,
    adams_family,
    char_on_simple,
    family_reconstructs,
    gamma_element,
    gamma_family,
    is_characteristic,
    q_basis_element,
)

from helpers import is_noncritical

ARRANGEMENTS = [braid(3), braid(4), type_b(2), type_b(3), coordinate(3)]


def test_unit_and_idempotent_basis():
    arr = braid(3)
    one = TitsElement.unit(arr)
    for f in arrg.faces(arr):
        hf = TitsElement.basis(f)
        assert (one * hf - hf).is_zero()
        assert (hf * hf - hf).is_zero()


def test_arrangement_mismatch():
    a = TitsElement.unit(braid(2))
    b = TitsElement.unit(braid(3))
    with pytest.raises(ValueError):
        a * b


@pytest.mark.parametrize("arr", ARRANGEMENTS)
def test_q_basis_inversion_and_idempotents(arr):
    flats = arrg.flats(arr)
    qs = {x: q_basis_element(x) for x in flats}
    for x in flats:
        acc = FlatsElement(arr, ())
        for y in arrg.flats_geq(x):
            acc = acc + qs[y]
        assert acc == FlatsElement.basis(x)
        assert (qs[x] * qs[x] - qs[x]).is_zero()
        for y in flats:
            if x != y:
                assert (qs[x] * qs[y]).is_zero()
    total = FlatsElement(arr, ())
    for x in flats:
        total = total + qs[x]
    assert total == FlatsElement.basis(bottom_flat(arr))


def test_char_of_single_face():
    arr = braid(3)
    for f in arrg.faces(arr):
        for x in arrg.flats(arr):
            want = 1 if arrg.flat_leq(arrg.support(f), x) else 0
            assert char_on_simple(TitsElement.basis(f), x) == want


def test_characteristic_parameter_one():
    arr = braid(3)
    assert is_characteristic(TitsElement.unit(arr), 1)
    # a single chamber contributes exactly one term to the top character,
    # but misses every lower flat, so it is characteristic of no parameter
    chamber = [f for f in arrg.faces(arr) if f.dim == 3][0]
    assert char_on_simple(TitsElement.basis(chamber), top_flat(arr)) == 1
    assert not is_characteristic(TitsElement.basis(chamber), 1)


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("t", [2, 3, 5])
def test_adams_is_characteristic(d, t):
    assert is_characteristic(adams_element(d, t), t)


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("t", [2, 3, 5])
def test_gamma_is_characteristic(d, t):
    assert is_characteristic(gamma_element(d, t), t)


def test_gamma_rejects_t_one():
    with pytest.raises(ValueError):
        gamma_element(2, 1)


def test_adams_rejects_other_arrangements():
    fam = adams_family(2)
    assert isinstance(fam, EulerianFamily)


def test_noncritical():
    assert not is_noncritical(braid(3), 2)
    assert is_noncritical(braid(3), 5)
    assert not is_noncritical(braid(2), 0)


def test_adams_family_d3_figure_values():
    fam = adams_family(3)
    arr = braid(3)
    ebot = fam[bottom_flat(arr)]
    assert ebot.coeff(arrg.central_face(arr)) == 1
    for f in arrg.faces(arr):
        if f.dim == 2:
            assert ebot.coeff(f) == Fraction(-1, 2)
        if f.dim == 3:
            assert ebot.coeff(f) == Fraction(1, 3)
    etop = fam[top_flat(arr)]
    for f in arrg.faces(arr):
        if f.dim == 3:
            assert etop.coeff(f) == Fraction(1, 6)
    e12 = fam[parse_flat(arr, "{12,3}")]
    assert e12.coeff(parse_face(arr, "12|3")) == Fraction(1, 2)
    assert e12.coeff(parse_face(arr, "3|12")) == Fraction(1, 2)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_adams_family_properties(d):
    fam = adams_family(d)
    assert fam.check()
    for t in (2, 3, 5, -1):
        assert family_reconstructs(adams_element(d, t), fam, t)
    # polynomial identity in t, pinned at d+2 integer points
    for t in range(1, d + 3):
        assert family_reconstructs(adams_element(d, t), fam, t)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_gamma_family_properties(d):
    fam = gamma_family(d)
    assert fam.check()
    for t in (3, 2, 5, -1):
        assert family_reconstructs(gamma_element(d, t), fam, t)


def test_gamma_c2_example():
    fam = gamma_family(2)
    arr = coordinate(2)
    ebot = fam[bottom_flat(arr)]
    assert ebot.coeff(arrg.central_face(arr)) == 1
    assert ebot.coeff(parse_face(arr, "++")) == 1
    assert ebot.coeff(parse_face(arr, "0+")) == -1
    assert ebot.coeff(parse_face(arr, "+0")) == -1
    # only first-orthant faces appear anywhere in the family
    for e in fam.elements.values():
        for f in e.terms:
            assert not f.neg


def test_adams_product_reconstruction():
    fam = adams_family(2)
    a = adams_element(2, 2)
    acc = TitsElement.zero(braid(2))
    for x, e in fam.elements.items():
        acc = acc + e.scale(Fraction(2) ** (2 * x.dim))
    assert (a * a - acc).is_zero()


def test_support_image_of_families():
    for d in (2, 3):
        fam = adams_family(d)
        for x, e in fam.elements.items():
            assert e.support_image() == q_basis_element(x)


def _product_oracle(x, y):
    out = {}
    for f, a in x.terms.items():
        for g, b in y.terms.items():
            fg = arrg.tits_product(f, g)
            out[fg] = out.get(fg, Fraction(0)) + a * b
    return TitsElement(x.arr, out)


def _b2_elements():
    """Type-B2 face sums with several denominators: the uniform average u of
    the chambers and the H_F u for rays F (idempotents, as u H_F = u), and
    H_F/3 + 2 H_O/3."""
    arr = type_b(2)
    chambers = arrg.chambers(arr)
    u = TitsElement(arr, {c: Fraction(1, len(chambers)) for c in chambers})
    out = [u, TitsElement.unit(arr)]
    for f in arrg.faces(arr):
        if f.dim == 1:
            out.append(TitsElement.basis(f) * u)
            out.append(TitsElement(arr, {f: Fraction(1, 3), arrg.central_face(arr): Fraction(2, 3)}))
    return out


@pytest.mark.parametrize("case", ["adams-A3", "B2"])
def test_product_matches_fraction_oracle(case):
    if case == "adams-A3":
        elements = list(adams_family(3).elements.values()) + [adams_element(3, Fraction(1, 2))]
    else:
        elements = _b2_elements()
    assert any(c.denominator > 1 for e in elements for c in e.terms.values())
    for x in elements:
        for y in elements:
            assert x * y == _product_oracle(x, y)
