import pytest

from zonalg import arrangement as arrg
from zonalg.arrangement import (
    braid,
    type_b,
    coordinate,
    faces,
    flats,
    central_face,
    bottom_flat,
    top_flat,
    tits_product,
    tits_product_geometric,
    support,
    flat_leq,
    flat_join,
    face_leq,
    mobius,
    mobius_recursive,
    characteristic_polynomial,
    interior_point,
    face_of_point,
    face_str,
    flat_str,
    parse_face,
    parse_flat,
)


def test_braid2_faces_in_order():
    got = [face_str(f) for f in faces(braid(2))]
    assert got == ["12", "1|2", "2|1"]


def test_face_counts():
    assert len(faces(braid(3))) == 13
    assert len(faces(coordinate(2))) == 9
    assert len(faces(type_b(2))) == 17


def test_flat_counts():
    assert len(flats(braid(3))) == 5
    assert len(flats(type_b(2))) == 6
    assert len(flats(type_b(3))) == 24
    assert len(flats(coordinate(3))) == 8


def test_dim_filter():
    chambers = [f for f in faces(braid(3)) if f.dim == 3]
    assert len(chambers) == 6


def test_flat_refinement_chain():
    arr = braid(8)
    x1 = bottom_flat(arr)
    x2 = parse_flat(arr, "{13,2568,4,7}")
    x3 = parse_flat(arr, "{1,28,3,4,56,7}")
    assert flat_leq(x1, x2) and flat_leq(x2, x3)
    assert not flat_leq(x3, x2)


def test_typeb_flats_of_b2():
    arr = type_b(2)
    dims = sorted(x.dim for x in flats(arr))
    assert dims == [0, 1, 1, 1, 1, 2]


def test_tits_product_example():
    arr = braid(3)
    f = parse_face(arr, "13|2")
    g = parse_face(arr, "2|13")
    assert tits_product(f, g) == f


def test_unit_law():
    for arr in (braid(3), type_b(2), coordinate(2)):
        o = central_face(arr)
        for f in faces(arr):
            assert tits_product(o, f) == f
            assert tits_product(f, o) == f


def test_coordinate_product_example():
    arr = coordinate(2)
    f = parse_face(arr, "0+")
    g = parse_face(arr, "--")
    assert face_str(tits_product(f, g)) == "-+"


@pytest.mark.parametrize("arr", [braid(2), braid(3), braid(4), type_b(2), type_b(3)])
def test_band_laws_exhaustive(arr):
    fs = faces(arr)
    for f in fs:
        assert tits_product(f, f) == f
        for g in fs:
            fg = tits_product(f, g)
            assert tits_product(f, tits_product(g, f)) == fg


@pytest.mark.parametrize("arr", [braid(2), braid(3), type_b(2), type_b(3), coordinate(2), coordinate(3)])
def test_product_matches_geometric_oracle(arr):
    fs = faces(arr)
    for f in fs:
        for g in fs:
            assert tits_product(f, g) == tits_product_geometric(f, g)


@pytest.mark.parametrize("arr", [braid(3), type_b(2), type_b(3), coordinate(3)])
def test_support_is_monoid_morphism(arr):
    fs = faces(arr)
    for f in fs:
        for g in fs:
            assert support(tits_product(f, g)) == flat_join(support(f), support(g))


def test_associativity_sampled():
    arr = braid(3)
    fs = faces(arr)
    for f in fs:
        for g in fs:
            for h in fs[::3]:
                assert tits_product(tits_product(f, g), h) == tits_product(f, tits_product(g, h))


def test_support_examples():
    a8 = braid(8)
    f = parse_face(a8, "13|4|2568|7")
    assert support(f) == parse_flat(a8, "{13,2568,4,7}")
    b7 = type_b(7)
    g = parse_face(b7, "67|-2 4 -5|0:1 -1 3 -3|2 -4 5|-6 -7")
    assert flat_str(support(g)) == "{0:1 -1 3 -3,2 -4 5,-2 4 -5,6 7,-6 -7}"
    for arr in (braid(3), type_b(2), coordinate(2)):
        assert support(central_face(arr)) == bottom_flat(arr)


def test_mobius_examples():
    a8 = braid(8)
    x = parse_flat(a8, "{13,2568,4,7}")
    assert mobius(bottom_flat(a8), x) == -6
    b2 = type_b(2)
    assert mobius(bottom_flat(b2), top_flat(b2)) == 3
    for arr in (braid(3), type_b(2)):
        for fl in flats(arr):
            assert mobius(fl, fl) == 1


def test_mobius_rejects_incomparable():
    arr = braid(3)
    x = parse_flat(arr, "{12,3}")
    y = parse_flat(arr, "{13,2}")
    with pytest.raises(ValueError):
        mobius(x, y)


@pytest.mark.parametrize("arr", [braid(3), braid(4), type_b(2), type_b(3), coordinate(3)])
def test_mobius_formula_equals_recursion(arr):
    for x in flats(arr):
        for y in flats(arr):
            if flat_leq(x, y):
                assert mobius(x, y) == mobius_recursive(x, y)


def test_characteristic_polynomials():
    assert characteristic_polynomial(braid(3)) == [0, 2, -3, 1]
    assert characteristic_polynomial(coordinate(1)) == [-1, 1]
    arr = braid(3)
    assert characteristic_polynomial(arr, bottom_flat(arr)) == [0, 1]


def test_chamber_count_under_flat():
    # the arrangement under a flat of the braid arrangement has dim(X)! chambers
    import math

    for d in (3, 4, 5):
        arr = braid(d)
        for x in flats(arr):
            n = len(arrg.faces_with_support(arr, x))
            assert n == math.factorial(x.dim)


def test_interior_points():
    a3 = braid(3)
    assert interior_point(parse_face(a3, "13|2")) == (1, 0, 1)
    assert interior_point(central_face(a3)) == (0, 0, 0)
    b2 = type_b(2)
    assert interior_point(parse_face(b2, "2|0:1 -1|-2")) == (0, 1)


def test_interior_point_recovers_face():
    for arr in (braid(3), type_b(2), coordinate(3)):
        for f in faces(arr):
            for variant in (0, 1):
                assert face_of_point(arr, interior_point(f, variant)) == f


@pytest.mark.parametrize("arr", [braid(4), type_b(3), coordinate(3)])
def test_enumerated_views_are_read_off_the_covectors(arr):
    # faces() hands each face the block view it was built from
    for f in faces(arr):
        assert arrg._read_view(f) == arrg._view(f)


@pytest.mark.parametrize("arr", [braid(3), type_b(2), coordinate(2)])
def test_face_leq_poset(arr):
    o = central_face(arr)
    fs = faces(arr)
    assert all(face_leq(o, f) for f in fs)
    chamber = [f for f in fs if f.dim == arr.d][0]
    assert sum(1 for f in fs if face_leq(chamber, f)) == 1
    for f in fs:
        assert face_leq(f, f)
        for g in fs:
            if face_leq(f, g):
                assert f.dim <= g.dim
                # containment of closed cones: interior points of f satisfy
                # the closure constraints of g; check via the product rule
                assert arrg.tits_product(g, f) == g


def test_serialization_round_trip():
    for arr in (braid(3), type_b(2), type_b(3), coordinate(3)):
        for f in faces(arr):
            assert parse_face(arr, face_str(f)) == f
        for x in flats(arr):
            assert parse_flat(arr, flat_str(x)) == x


def test_parse_rejects_bad_faces():
    arr = braid(3)
    with pytest.raises(ValueError):
        parse_face(arr, "12|2")
    with pytest.raises(ValueError):
        parse_face(arr, "1|2")


@pytest.mark.parametrize("arr", [braid(3), type_b(2), coordinate(3)])
def test_equal_faces_and_flats_hash_alike(arr):
    twin = arrg.Arrangement(arr.kind, arr.d)
    assert twin is not arr
    for f in faces(arr):
        g = arrg.Face(twin, f.pos, f.neg)
        assert g == f and hash(g) == hash(f)
        assert {f: 1}[g] == 1 and len({f, g}) == 1
        assert parse_face(twin, face_str(f)) == f
    for x in flats(arr):
        y = arrg.Flat(twin, x.data)
        assert y == x and hash(y) == hash(x)
        assert {x: 1}[y] == 1 and len({x, y}) == 1
    f = faces(arr)[0]
    assert not hasattr(f, "__dict__")
    assert arrg.Face(arrg.Arrangement(arr.kind, arr.d + 1), f.pos, f.neg) != f


def test_intern_table_holds_only_live_faces():
    import gc
    import weakref

    arr = braid(11)  # faces(braid(11)) is never enumerated, so no cache holds these faces
    f = arrg.face_of_point(arr, tuple(range(11)))
    key = ("A", 11, f.pos, f.neg)
    # while f is alive, equal covectors give f itself
    assert arrg.Face(arrg.Arrangement("A", 11), f.pos, f.neg) is f
    assert parse_face(arr, face_str(f)) is f
    assert arrg._FACES[key] is f
    ref = weakref.ref(f)
    del f
    gc.collect()
    assert ref() is None
    assert key not in arrg._FACES


@pytest.mark.parametrize(
    "arr, text",
    [
        (braid(3), "{12}"),
        (braid(3), "{12,23}"),
        (braid(3), "{12,3,3}"),
        (braid(3), "{1,2,3,4}"),
        (braid(3), "{}"),
        (type_b(2), "{1}"),
        (type_b(2), "{0:1}"),
        (type_b(2), "{0:1 -1}"),
        (type_b(2), "{1 -1,2}"),
        (type_b(2), "{1 2,1 -2}"),
        (type_b(2), "{0:1 -1,1,2}"),
        (coordinate(3), "X_{4}"),
        (coordinate(3), "X_{0,1}"),
    ],
)
def test_parse_flat_rejects_non_partitions(arr, text):
    with pytest.raises(ValueError):
        parse_flat(arr, text)


@pytest.mark.parametrize("arr", [arrg.braid(4), arrg.type_b(3)], ids=str)
def test_flat_type_reads_the_payload(arr):
    for x in arrg.flats(arr):
        if arr.kind == arrg.KIND_A:
            want = (0, tuple(sorted(len(b) for b in x.data)))
        else:
            zero, blocks = x.data
            # the two blocks of a ± pair have one size
            want = (len(zero) // 2, tuple(sorted(len(b) for b in blocks))[::2])
        assert arrg.flat_type(x) == want
        assert sum(want[1]) + want[0] == arr.d and len(want[1]) == x.dim
    with pytest.raises(ValueError):
        arrg.flat_type(arrg.bottom_flat(arrg.coordinate(2)))


def test_arrangement_named():
    for names, kind in ((("A", "a", "braid", "Braid"), "A"), (("B", "typeB", "TYPEB"), "B"),
                        (("C", "cube", "Coordinate"), "C")):
        for name in names:
            assert arrg.arrangement_named(name, 3) == arrg.Arrangement(kind, 3)
    for name in ("D", "", 1, None):
        with pytest.raises(ValueError, match="unknown arrangement type"):
            arrg.arrangement_named(name, 3)
    for d in (3.0, "3", True, None):
        with pytest.raises(ValueError, match="must be an integer"):
            arrg.arrangement_named("A", d)
