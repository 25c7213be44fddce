import re

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
    g = parse_face(b7, "6 7|-2 4 -5|0:1 -1 3 -3|2 -4 5|-6 -7")
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
            assert face_of_point(arr, interior_point(f)) == f


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
    # a sign vector holds only +, - and 0, one per coordinate
    for text in ("+x-", "+ -", "+-"):
        with pytest.raises(ValueError):
            parse_face(coordinate(3), text)


@pytest.mark.parametrize(
    "arr",
    [braid(d) for d in range(1, 7)] + [type_b(d) for d in range(1, 5)] + [coordinate(d) for d in range(1, 7)],
    ids=str,
)
def test_every_printed_face_and_flat_reads_back(arr):
    for f in faces(arr):
        assert parse_face(arr, face_str(f)) is f
    for x in flats(arr):
        assert parse_flat(arr, flat_str(x)) is x


@pytest.mark.parametrize(
    "arr, text",
    [
        (type_b(2), "2|1|5|7"),  # the blocks after the zero block are read too
        (type_b(2), "2|1|0:|-1|-2|"),
        (type_b(2), "2|1|-1|-2"),  # no zero block
        (braid(3), "1 3|2"),  # up to d = 9 the digits run together
        (braid(3), " 13|2"),
        (coordinate(2), "+-\n"),
    ],
)
def test_parse_face_reads_only_the_printed_form(arr, text):
    with pytest.raises(ValueError, match="is not a face of .* as printed$"):
        parse_face(arr, text)


@pytest.mark.parametrize(
    "arr, text, printed",
    [
        (braid(3), "{3,12}", "{12,3}"),
        (braid(3), "{21,3}", "{12,3}"),
        (type_b(2), "{-1,1,0:2 -2}", "{0:2 -2,1,-1}"),
        (coordinate(3), "X_{3,1}", "X_{1,3}"),
        (coordinate(3), "{1,3}", "X_{1,3}"),
    ],
)
def test_parse_flat_names_the_printed_form_of_another_spelling(arr, text, printed):
    with pytest.raises(ValueError, match=f"; write it {re.escape(printed)}$"):
        parse_flat(arr, text)


def test_parse_face_names_the_printed_form_of_another_spelling():
    with pytest.raises(ValueError, match=re.escape("; write it 13|2")):
        parse_face(braid(3), "31|2")
    with pytest.raises(ValueError, match=re.escape("; write it 2|0:1 -1|-2")):
        parse_face(type_b(2), "2|0:-1 1|-2")


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
        y = arrg.Flat(twin, x.zero)
        assert y == x and hash(y) == hash(x)
        assert {x: 1}[y] == 1 and len({x, y}) == 1
    f = faces(arr)[0]
    assert not hasattr(f, "__dict__") and not hasattr(flats(arr)[0], "__dict__")
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


def test_intern_table_holds_only_live_flats():
    import gc
    import weakref

    arr = braid(11)  # flats(braid(11)) is never enumerated, so no cache holds these flats
    x = arrg.flat_of_blocks(arr, (), [(1, 2), (3, 4, 5)])
    key = ("A", 11, x.zero)
    # while x is alive, equal zero sets give x itself
    assert arrg.Flat(arrg.Arrangement("A", 11), x.zero) is x
    assert parse_flat(arr, flat_str(x)) is x
    assert arrg._FLATS[key] is x
    ref = weakref.ref(x)
    del x
    gc.collect()
    assert ref() is None
    assert key not in arrg._FLATS


@pytest.mark.parametrize("arr", [braid(5), type_b(4), coordinate(5)], ids=str)
def test_enumerated_blocks_are_read_off_the_zero_sets(arr):
    # flats() hands each flat the blocks it was built from; they are the
    # blocks read off its zero set, and they give back that zero set
    xs = flats(arr)
    assert len({x.zero for x in xs}) == len(xs)
    for x in xs:
        blocks = arrg._read_blocks(arr, x.zero)
        assert blocks == arrg.flat_blocks(x)
        assert arrg.flat_of_blocks(arr, *blocks) is x
        assert len(blocks[1]) == x.dim


def test_flat_of_blocks_merges_blocks():
    b3 = type_b(3)
    want = parse_flat(b3, "{0:2 -2,1,-1,3,-3}")
    # a self-negative cycle falls into the zero block
    assert arrg.flat_of_blocks(b3, (), [(1,), (-1,), (2, -2), (3,)]) is want
    assert arrg.flat_of_blocks(b3, (2,), [(1,), (3,)]) is want
    # blocks that meet are merged, and a = b also makes -a = -b
    assert flat_str(arrg.flat_of_blocks(b3, (), [(1, -2), (-2, 3)])) == "{1 -2 3,-1 2 -3}"
    assert arrg.flat_of_blocks(braid(3), (), [(1, 2), (2, 3)]) is bottom_flat(braid(3))
    assert arrg.flat_of_blocks(coordinate(3), (1, 2, 3), ()) is bottom_flat(coordinate(3))


def test_flat_of_blocks_rejects_blocks_that_no_flat_has():
    # a type-A flat has no zero block, and a cube flat no block of two; the
    # call raises rather than hand these blocks to the interned flat
    a3, c3 = braid(3), coordinate(3)
    printed = [flat_str(x) for x in flats(a3)]
    for arr, blocks in ((a3, [(0, 1), (2, 3)]), (c3, [(1, 2)])):
        named = f"no flat of {arr.kind}3 has the zero block () and the blocks {blocks}"
        with pytest.raises(ValueError, match=re.escape(named)):
            arrg.flat_of_blocks(arr, (), blocks)
    assert [flat_str(x) for x in flats(a3)] == printed
    assert top_flat(c3).dim == 3


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
        zero, blocks = arrg.flat_blocks(x)
        if arr.kind == arrg.KIND_A:
            want = (0, tuple(sorted(len(b) for b in blocks)))
        else:
            # the two blocks of a ± pair have one size
            signed = blocks + tuple(frozenset(-e for e in b) for b in blocks)
            want = (len(zero) // 2, tuple(sorted(len(b) for b in signed))[::2])
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


# sha256 of the newline-joined flat_str of flats(arr) and face_str of
# faces(arr): a changed order changes every report that lists flats or faces
_ORDER_DIGESTS = {
    ("A", 1): ("cd80994abb0d1e0465acdc560717676578c1774f461babbe67b4b131497a6305", "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b"),
    ("A", 2): ("61d42aebd162a253c2f3ba625a5b39678a9f59c554d7448f7ffa66c06217f3e3", "d10c4e5af7d4fb443c335fcd1e3814ecfa011f11143925ae13f3bc10812c8ca0"),
    ("A", 3): ("23cce808041205d43b578c9a98d9c077e6a54d33320080b828659bceedf33815", "d40a0964b7c34310bdd9bf6ca398836825f052ede6c2041a67c0e4fe3f948cdf"),
    ("A", 4): ("1c81cc69dd8084f9ce7ad71d73604f11d5fd0b331a2827d121d5b4f608bac17a", "df31020d361e397331529bcb9a5ec1307041a1b543ae09158ac5c7eaf352c82b"),
    ("A", 5): ("0c0200dd1e91d581625d02b4d8643d55b96907da905248500c761ae277175ac9", "928c1229928a65c282bc265cb2aa3c1e7fd64d5a8328b1d48efe6622f928d246"),
    ("A", 6): ("b70c616822aee997ea2c99cce7c3531660ac83c7938dde53532c33114f7d55a3", "9b9a4b3a50e25988df5b89f316a7e788b5e10250a3d3d9ade36d69be543f4ff5"),
    ("B", 1): ("238e5b08a0c2a3eaea034709d4df5eda7ba61abd5fdc8a0e9f6e5e8690d4413e", "1baa9a561bd9ce89c598b798cbe6e49858d896245f9c06e53d3c0784abbc26a4"),
    ("B", 2): ("67cee7eb2c3a3d33a59108f7d3c8532d23fe3e9e1c8178e9110141ba3728c109", "dc15079e1d70071ead26810a685d48eaeeddd6e4b094edeb63486d6469cf6e44"),
    ("B", 3): ("cb9257758918896e8d4ac2a0743153ef182f936c2cc9bdab6d28f89586e0057c", "538d83283f2dfa56b26eb07b0ba1b2fad7918fbea5679400ae3420d38ec5379e"),
    ("B", 4): ("b090d08db7f6a6b58544a9002310013a233109696a57ff9f16988c71ecd5c44e", "514db23915000656a94831930edc29f8fdae573f25aa92b37ed2504b6826e622"),
    ("B", 5): ("14d96a32325607ab33dd35bdf012bcce09f3e587ff2378e754488c89dc41db03", "a6429577f653dc2842f4611934b87d45efe6dca325f8e9e42768b38a03214ae9"),
    ("C", 1): ("043a4b95b7b0b523d7865a1c6dd20dfb36afb60fb7690c5117852e0f3138957d", "6662da1d072a8349eaee2139e9df3a4bb15ab2cde4e6c58ce7c070cce8704fae"),
    ("C", 2): ("46fb9447efc46f8037073999c059caf4332d96abf3dc764eec88adab1318fde9", "944740868b215d55f6ffa820b129895ad00de9e81e72c48a36762abd5eedbf17"),
    ("C", 3): ("7c74725f6183329c9e50c6d31af86432a05bf1925729bb11976a1d7451def4b2", "ea4bfe6975c886d744aec2c01ad5a8ab606d3498d2b678d802668aef7500ca69"),
    ("C", 4): ("9d6eb222bf190dcf5a580805d8a89b8a2455471adf11c18b768a36668018ad9b", "61236c7aa436c74bf693869dc4be306b293268a338dd2c9454ffa4dbf4d68d6f"),
    ("C", 5): ("417d29f2386ed0ff04578fec0ee7f81128b677facfc255256f630948bef6174e", "89f43e9c6a32e2b07eef6e6eeb0806522cd5e9277bdaaaaac869c6541be3451d"),
    ("C", 6): ("f0a5c27289395d3d6a79d8dd42e14884cb073505e1d98e3ef988cc303a87e639", "27ca14b350f52ee7a4dc274b7868252533dac64e356b80fc96d93f778b8b9f94"),
}


@pytest.mark.parametrize("kind, d", sorted(_ORDER_DIGESTS))
def test_flat_and_face_orders_are_pinned(kind, d):
    import hashlib

    def digest(strings):
        return hashlib.sha256("\n".join(strings).encode()).hexdigest()

    arr = arrg.Arrangement(kind, d)
    assert (
        digest(map(flat_str, flats(arr))),
        digest(map(face_str, faces(arr))),
    ) == _ORDER_DIGESTS[kind, d]


def test_b5_face_count():
    # computed with the per-kind enumerator that building faces per flat replaced
    assert len(faces(type_b(5))) == 24483


_SCANNED = [braid(d) for d in range(1, 6)] + [type_b(d) for d in range(1, 5)] + [coordinate(d) for d in range(1, 6)]


@pytest.mark.parametrize("arr", _SCANNED, ids=str)
def test_support_index_equals_the_filter_scans(arr):
    fs = faces(arr)
    for x in flats(arr):
        assert arrg.faces_with_support(arr, x) == tuple(f for f in fs if support(f) == x)
    assert arrg.chambers(arr) == tuple(f for f in fs if f.dim == arr.d)
    sides = (f for x in flats(arr) if x.dim == arr.d - 1 for f in arrg.faces_with_support(arr, x))
    assert arrg.walls(arr) == tuple(sorted(sides, key=arrg._face_sort_key))
