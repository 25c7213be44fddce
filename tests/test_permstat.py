import pytest
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from zonalg import gfseries
from zonalg.arrangement import braid, type_b, parse_flat, bottom_flat, top_flat, flat_blocks
from zonalg.permstat import (
    BoundExceededError,
    Permutation,
    SignedPermutation,
    IncreasingForest,
    Tree,
    enumerate_group,
    forest_of,
    hyperoctahedral_group,
    stats,
    stats_signed,
    supp_exc_tally,
    symmetric_group,
    _cycles_exc,
    _supp_dim_exc_b,
)

from helpers import exc_prec, perm_of


def parse_signed_cycles(d, text):
    """Parse cycle notation like "(1)(-1)(2 -2)(3 4 -3 -4)"."""
    text = text.strip()
    if not (text.startswith("(") and text.endswith(")")):
        raise ValueError(f"bad cycle notation: {text!r}")
    cycles = []
    for chunk in text[1:-1].split(")("):
        cycles.append(tuple(int(t) for t in chunk.split()))
    # keep only one representative of each mirrored pair
    seen = set()
    uniq = []
    for cyc in cycles:
        s = frozenset(cyc)
        if s in seen:
            continue
        seen.add(s)
        seen.add(frozenset(-e for e in s))
        uniq.append(cyc)
    return SignedPermutation.from_cycles(d, uniq)


def cycle_through(sigma, start):
    """The cycle of ``sigma`` through ``start`` as a tuple."""
    cyc = [start]
    nxt = sigma(start)
    while nxt != start:
        cyc.append(nxt)
        nxt = sigma(nxt)
    return tuple(cyc)


def restrict_to_zero_block(sigma):
    """Restriction of a signed permutation to the zero block of its support,
    relabeled as a signed permutation of {1..k}."""
    zero, _blocks = flat_blocks(sigma.supp())
    abs_z = sorted({abs(e) for e in zero})
    relabel = {a: i + 1 for i, a in enumerate(abs_z)}
    imgs = []
    for a in abs_z:
        v = sigma(a)
        imgs.append(relabel[abs(v)] * (1 if v > 0 else -1))
    return SignedPermutation(tuple(imgs)) if imgs else None


def node_sets(forest):
    """The node sets of the trees of an increasing forest."""
    return frozenset(frozenset(t.nodes()) for t in forest.trees)


def test_stats_example_s8():
    s = Permutation.from_cycles(8, [(1, 3), (2, 6, 5, 8), (4,), (7,)])
    st = stats(s)
    assert st["exc"] == 3
    assert st["supp"] == parse_flat(braid(8), "{13,2568,4,7}")


def test_identity_stats():
    s = Permutation(tuple(range(1, 6)))
    st = stats(s)
    assert st["exc"] == 0 and st["des"] == 0
    assert st["supp"] == top_flat(braid(5))


def test_three_cycle_excedances():
    s = Permutation((2, 3, 1))
    assert s.exc() == 2


def test_signed_supp_example():
    s = parse_signed_cycles(6, "(1)(-1)(2 -2)(3 4 -3 -4)(5 -6)(-5 6)")
    want = parse_flat(type_b(6), "{0:2 -2 3 -3 4 -4,1,-1,5 -6,-5 6}")
    assert s.supp() == want


def test_negation_stats():
    s = SignedPermutation((-1, -2))
    st = stats_signed(s)
    assert st["exc"] == 0 and st["fneg"] == 2 and st["exc_B"] == 1
    assert st["supp"] == bottom_flat(type_b(2))
    ident = SignedPermutation((1, 2))
    assert ident.exc_b() == 0 and ident.supp() == top_flat(type_b(2))


def test_b2_central_excedances():
    bot = bottom_flat(type_b(2))
    els = enumerate_group("B", 2, supp=bot)
    assert sorted(e.exc_b() for e in els) == [1, 1, 2]


def test_group_sizes():
    import math

    for d in (1, 2, 3, 4, 5):
        assert len(enumerate_group("S", d)) == math.factorial(d)
    for d in (1, 2, 3):
        assert len(enumerate_group("B", d)) == 2 ** d * math.factorial(d)


def test_bounds():
    with pytest.raises(BoundExceededError):
        symmetric_group(9)
    with pytest.raises(BoundExceededError):
        hyperoctahedral_group(7)


def test_s3_central():
    bot = bottom_flat(braid(3))
    els = enumerate_group("S", 3, supp=bot)
    assert sorted(e.exc() for e in els) == [1, 2]


@pytest.mark.parametrize("d", range(1, 8))
def test_equidistribution_type_a(d):
    perms = symmetric_group(d)
    assert Counter(p.des() for p in perms) == Counter(p.exc() for p in perms)


@pytest.mark.parametrize("d", range(1, 6))
def test_equidistribution_type_b(d):
    perms = hyperoctahedral_group(d)
    assert Counter(p.des() for p in perms) == Counter(p.exc_b() for p in perms)


def test_forest_paper_example():
    sigma = Permutation.from_cycles(10, [(7, 3, 6, 9, 5, 1), (4, 10, 8, 2)])
    f = forest_of(sigma)
    roots = [(t.root, tuple(c.root for c in t.children)) for t in f.trees]
    assert roots == [(1, (3, 5)), (2, (4, 8))]
    assert f.leaves() == 5 == sigma.exc()
    assert f.leaf_paths() == [
        frozenset({1, 3, 7}),
        frozenset({1, 5, 6}),
        frozenset({1, 5, 9}),
        frozenset({2, 4}),
        frozenset({2, 8, 10}),
    ]
    assert perm_of(f) == sigma


def test_identity_forest():
    s = Permutation(tuple(range(1, 5)))
    f = forest_of(s)
    assert len(f.trees) == 4 and f.leaves() == 0
    assert all(not t.children for t in f.trees)


@pytest.mark.parametrize("d", range(1, 7))
def test_forest_bijection_exhaustive(d):
    for p in symmetric_group(d):
        f = forest_of(p)
        assert perm_of(f) == p
        assert f.leaves() == p.exc()
        assert node_sets(f) == frozenset(flat_blocks(p.supp())[1])


def test_forest_validation():
    with pytest.raises(ValueError):
        IncreasingForest((Tree(2, (Tree(1, ()),)),))  # child smaller than parent
    with pytest.raises(ValueError):
        IncreasingForest((Tree(1, (Tree(3, ()), Tree(2, ()))),))  # children out of order


def test_exc_prec_rejects_inclusive():
    with pytest.raises(ValueError):
        exc_prec((1, -1))


def test_exc_prec_singleton():
    assert exc_prec((3,)) == 0


@pytest.mark.parametrize("d", range(1, 5))
def test_exc_b_additivity(d):
    for s in hyperoctahedral_group(d):
        _zero, blocks = flat_blocks(s.supp())
        total = 0
        rz = restrict_to_zero_block(s)
        if rz is not None:
            total += rz.exc_b()
        # one block of each ± pair
        for b in blocks:
            total += exc_prec(cycle_through(s, next(iter(b))))
        assert total == s.exc_b()


def test_cycle_notation_round_trip():
    s = parse_signed_cycles(4, "(1)(-1)(2 -2)(3 4 -3 -4)")
    assert str(s) == "(1)(-1)(2 -2)(3 4 -3 -4)"


# ---------------------------------------------------------------------------
# the object-free kernel against the element objects

def _images(max_d):
    return st.integers(1, max_d).flatmap(lambda d: st.permutations(range(1, d + 1)))


def _signed(max_d):
    return _images(max_d).flatmap(
        lambda p: st.tuples(*[st.sampled_from((v, -v)) for v in p])
    )


@given(_images(9))
@settings(max_examples=300, deadline=None)
def test_cycles_exc_matches_permutation(images):
    images = tuple(images)
    sigma = Permutation(images)
    assert _cycles_exc(images) == (sigma.supp().dim, sigma.exc())


@given(_signed(8))
@settings(max_examples=300, deadline=None)
def test_supp_dim_exc_b_matches_signed_permutation(images):
    sigma = SignedPermutation(images)
    assert _supp_dim_exc_b(images) == (sigma.supp().dim, sigma.exc_b())


@pytest.mark.parametrize("d", range(1, 7))
def test_tally_matches_symmetric_group(d):
    want = Counter((s.supp().dim, s.exc()) for s in symmetric_group(d))
    assert supp_exc_tally("S", d) == want


@pytest.mark.parametrize("d", range(1, 6))
def test_tally_matches_hyperoctahedral_group(d):
    want = Counter((s.supp().dim, s.exc_b()) for s in hyperoctahedral_group(d))
    assert supp_exc_tally("B", d) == want


def test_tally_bounds(monkeypatch):
    monkeypatch.delenv("ZONALG_MAX_SYMMETRIC", raising=False)
    monkeypatch.delenv("ZONALG_MAX_HYPEROCTAHEDRAL", raising=False)
    with pytest.raises(BoundExceededError, match="S_9 exceeds the bound 8"):
        supp_exc_tally("S", 9)
    with pytest.raises(BoundExceededError, match="B_7 exceeds the bound 6"):
        supp_exc_tally("B", 7)
    with pytest.raises(BoundExceededError, match="S_9 exceeds the bound 8"):
        gfseries._perm_stats(9)


def test_exc_b_filter_needs_group_b():
    with pytest.raises(ValueError, match="exc_b"):
        enumerate_group("S", 3, exc_b=1)
    # B_2(z) = 1 + 6z + z^2
    assert [s.exc_b() for s in enumerate_group("B", 2, exc_b=1)] == [1] * 6


def test_enumerate_group_filters_combine():
    x = parse_flat(type_b(3), "{0:1 -1,2 3,-2 -3}")
    got = enumerate_group("B", 3, supp=x, exc=1, exc_b=2)
    want = [s for s in hyperoctahedral_group(3) if s.supp() == x and s.exc() == 1 and s.exc_b() == 2]
    assert got == want and got
    with pytest.raises(ValueError, match="unknown group"):
        enumerate_group("D", 3)
