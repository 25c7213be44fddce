import math
import pytest
from fractions import Fraction

from zonalg import arrangement as arrg
from zonalg import gfseries
from zonalg.gfseries import (
    RatPoly,
    TruncSeries,
    eulerian_A,
    eulerian_B,
    eulerian_gf_A,
    eulerian_gf_B,
    verify_identities,
)
from zonalg.permstat import hyperoctahedral_group, symmetric_group


def test_eulerian_small_values():
    assert eulerian_A(1) == RatPoly.of(1)
    assert eulerian_A(3) == RatPoly.of(1, 4, 1)
    assert eulerian_B(2) == RatPoly.of(1, 6, 1)


@pytest.mark.parametrize("d", range(1, 7))
def test_eulerian_A_matches_enumeration(d):
    counts = {}
    for s in symmetric_group(d):
        counts[s.exc()] = counts.get(s.exc(), 0) + 1
    got = eulerian_A(d)
    assert all(got.coeff(k) == counts.get(k, 0) for k in range(d))


@pytest.mark.parametrize("d", range(1, 5))
def test_eulerian_B_matches_enumeration(d):
    counts = {}
    for s in hyperoctahedral_group(d):
        counts[s.exc_b()] = counts.get(s.exc_b(), 0) + 1
    got = eulerian_B(d)
    assert all(got.coeff(k) == counts.get(k, 0) for k in range(d + 1))


@pytest.mark.parametrize("d", range(1, 7))
def test_total_mass_and_palindromicity(d):
    assert eulerian_A(d)(1) == math.factorial(d)
    assert eulerian_B(d)(1) == 2 ** d * math.factorial(d)
    assert eulerian_A(d).coeffs == tuple(reversed(eulerian_A(d).coeffs))
    assert eulerian_B(d).coeffs == tuple(reversed(eulerian_B(d).coeffs))


def test_log_exp_inverse():
    s = TruncSeries.from_coeffs([0, 1, 1], 8)
    assert s.exp().log().coeffs == s.coeffs


def test_exp_additivity_on_sparse_inputs():
    import random

    f = TruncSeries.from_coeffs([0, 2, 0, 5], 8)
    g = TruncSeries.from_coeffs([0, 0, 3, 1], 8)
    assert (f + g).exp().coeffs == (f.exp() * g.exp()).coeffs
    rng = random.Random(8)
    for _ in range(5):
        fc = [0] + [rng.choice((0, 0, rng.randint(-3, 3))) for _ in range(8)]
        gc = [0] + [rng.choice((0, 0, Fraction(rng.randint(-4, 4), rng.randint(1, 3)))) for _ in range(8)]
        f = TruncSeries.from_coeffs(fc, 8)
        g = TruncSeries.from_coeffs(gc, 8)
        assert (f + g).exp().coeffs == (f.exp() * g.exp()).coeffs
        assert f.exp().log().coeffs == f.coeffs


def test_log_requires_unit_constant():
    with pytest.raises(ValueError):
        TruncSeries.from_coeffs([2, 1], 4).log()


def test_power_rational():
    one_plus_x = TruncSeries.one(6) + TruncSeries.x(6)
    s = one_plus_x.power(Fraction(-1, 2))
    # coefficients are (-1)^d (2d-1)!! in the type-B convention
    for d in range(0, 7):
        dfact = 1
        for k in range(2 * d - 1, 0, -2):
            dfact *= k
        assert s.coeff(d, "bgf") == RatPoly.of((-1) ** d * dfact)
    # and the square root squares back
    assert (s * s).coeffs == one_plus_x.power(-1).coeffs


def test_inverse():
    f = TruncSeries.from_coeffs([1, 3, 5], 6)
    assert (f * f.inverse()).coeffs == TruncSeries.one(6).coeffs


def test_convention_conversion_exact():
    s = TruncSeries.from_coeffs([RatPoly.of(1)] * 5, 4, "egf")
    for d in range(5):
        assert s.coeff(d, "egf") == RatPoly.of(1)
        assert s.coeff(d, "bgf") == RatPoly.of(Fraction(2 ** d * math.factorial(d), math.factorial(d)))


def test_generating_function_low_coefficients():
    A = eulerian_gf_A(4)
    for d in range(5):
        assert A.coeff(d, "egf") == eulerian_A(d)
    B = eulerian_gf_B(3)
    for d in range(4):
        assert B.coeff(d, "bgf") == eulerian_B(d)


def test_verify_identities_quick():
    report = verify_identities(order_a=5, order_b=3)
    assert all(r["ok"] for r in report), [r for r in report if not r["ok"]]
    names = {r["identity"] for r in report}
    assert {
        "eulerian-egf-A",
        "eulerian-egf-B",
        "cyclic-excedance-A",
        "cyclic-excedance-B",
        "double-factorial-sqrt",
        "supp-excedance-bivariate-A",
        "compositional-B",
        "exponential-B",
        "supp-excedance-bivariate-B",
    } <= names


def test_cyclic_excedance_d3_value():
    # both sides of the cyclic identity at d=3 equal z + z^2
    from zonalg.gfseries import _cyclic_excedance_poly, _partition_mobius_sum

    assert _cyclic_excedance_poly(3) == RatPoly.of(0, 1, 1)
    assert _partition_mobius_sum(arrg.braid(3)) == RatPoly.of(0, 1, 1)


def _poly(by_exc):
    return RatPoly.of(*[by_exc.get(e, 0) for e in range(max(by_exc) + 1)])


@pytest.mark.parametrize("d", range(1, 6))
def test_bivariate_A_matches_per_element_sum(d):
    for t in (0, 1, 2, 3, 7):
        by_exc = {}
        for s in symmetric_group(d):
            k = s.supp().dim
            by_exc[s.exc()] = by_exc.get(s.exc(), 0) + t ** k
        assert gfseries._bivariate_A(d, t) == _poly(by_exc)


@pytest.mark.parametrize("d", range(1, 5))
def test_bivariate_B_matches_per_element_sum(d):
    for t in (0, 1, 2, 3, Fraction(-1, 2)):
        by_exc = {}
        for s in hyperoctahedral_group(d):
            by_exc[s.exc_b()] = by_exc.get(s.exc_b(), 0) + Fraction(t) ** s.supp().dim
        assert gfseries._bivariate_B(d, t) == _poly(by_exc)


def _per_flat_mobius_sum(arr, factor):
    bot = arrg.bottom_flat(arr)
    acc = RatPoly.of(0)
    for x in arrg.flats(arr):
        acc = acc + factor(x).scale(arrg.mobius(bot, x))
    return acc


def test_grouped_mobius_sum_A5_matches_per_flat_sum():
    def factor(x):
        term = RatPoly.of(1)
        for block in arrg.flat_blocks(x)[1]:
            term = term * eulerian_A(len(block))
        return term

    assert gfseries._partition_mobius_sum(arrg.braid(5)) == _per_flat_mobius_sum(arrg.braid(5), factor)


def test_grouped_mobius_sum_B4_matches_per_flat_sum():
    def factor(x):
        zero, blocks = arrg.flat_blocks(x)
        term = eulerian_B(len(zero) // 2)
        # one block of each ± pair
        for b in blocks:
            term = term * eulerian_A(len(b))
        return term

    assert gfseries._partition_mobius_sum(arrg.type_b(4)) == _per_flat_mobius_sum(arrg.type_b(4), factor)


def test_corrupted_perm_stats_fails_bivariate_A(monkeypatch):
    tally = dict(gfseries._perm_stats(4))
    (k, e), c = next(item for item in sorted(tally.items()) if item[0][1] == 1)
    tally[(k, e)] = c - 1
    tally[(k, e + 1)] = tally.get((k, e + 1), 0) + 1
    real = gfseries._perm_stats
    monkeypatch.setattr(
        gfseries, "_perm_stats", lambda d: tuple(sorted(tally.items())) if d == 4 else real(d)
    )
    report = {r["identity"]: r for r in verify_identities(order_a=5, order_b=3)}
    bad = report.pop("supp-excedance-bivariate-A")
    assert bad["ok"] is False
    assert bad["first_mismatch"]["d"] == 4
    assert all(r["ok"] for r in report.values())


@pytest.mark.parametrize("d", range(1, 8))
def test_cyclic_excedance_poly_matches_cycle_objects(d):
    import itertools

    from zonalg.permstat import Permutation

    by_exc = {}
    for rest in itertools.permutations(range(2, d + 1)):
        e = Permutation.from_cycles(d, [(1,) + rest]).exc()
        by_exc[e] = by_exc.get(e, 0) + 1
    assert gfseries._cyclic_excedance_poly(d) == _poly(by_exc)


def test_unknown_convention_is_rejected():
    with pytest.raises(ValueError, match="unknown convention"):
        TruncSeries.from_coeffs([1, 1], 1, "egff")
    with pytest.raises(ValueError, match="unknown convention"):
        TruncSeries.one(2).coeff(1, "EGF")


def _raise_coefficient(real, at):
    """``real`` with z added to its value at the argument ``at``."""
    return lambda d: real(d) + RatPoly.z() if d == at else real(d)


def _shift_one_excedance(tally, k):
    """A tally with one element of support dimension k moved up one excedance."""
    tally = dict(tally)
    (k, e), c = next(item for item in sorted(tally.items()) if item[0][0] == k)
    tally[(k, e)] = c - 1
    tally[(k, e + 1)] = tally.get((k, e + 1), 0) + 1
    return tuple(sorted(tally.items()))


def _corrupt_egf_A(mp):
    # eulerian_A(0) is read only by the egf check: Möbius sums take A_s at s >= 1
    mp.setattr(gfseries, "eulerian_A", _raise_coefficient(gfseries.eulerian_A, 0))


def _corrupt_egf_B(mp):
    mp.setattr(gfseries, "eulerian_B", _raise_coefficient(gfseries.eulerian_B, 2))


def _corrupt_cyclic_A(mp):
    mp.setattr(gfseries, "_cyclic_excedance_poly", _raise_coefficient(gfseries._cyclic_excedance_poly, 3))


def _corrupt_cyclic_B(mp):
    real = gfseries._partition_mobius_sum
    mp.setattr(
        gfseries,
        "_partition_mobius_sum",
        lambda arr: real(arr) + RatPoly.z() if arr == arrg.type_b(2) else real(arr),
    )


def _corrupt_double_factorial(mp):
    # the substitution x -> 2x in (1 + x)^{-1/2}
    real = TruncSeries.x.__func__
    mp.setattr(TruncSeries, "x", classmethod(lambda cls, order: real(cls, order).scale(2)))


def _corrupt_bivariate_A(mp):
    real = gfseries._perm_stats
    mp.setattr(gfseries, "_perm_stats", lambda d: _shift_one_excedance(real(d), 1) if d == 3 else real(d))


def _corrupt_compositional(mp):
    real = gfseries._compose_bgf
    mp.setattr(gfseries, "_compose_bgf", lambda g, a, order: real(g, a, order) + TruncSeries.x(order))


def _corrupt_exponential(mp):
    # the exponential sums are the only signed-flat sums that name no family
    real = gfseries._signed_flat_rows

    def rows(order, rhs, fc, gc, ac, **where):
        return real(order, rhs if where else rhs + TruncSeries.x(order), fc, gc, ac, **where)

    mp.setattr(gfseries, "_signed_flat_rows", rows)


def _corrupt_bivariate_B(mp):
    # an element of support dimension 1 leaves the central (dimension 0) count alone
    real = gfseries._signed_stats
    mp.setattr(gfseries, "_signed_stats", lambda d: _shift_one_excedance(real(d), 1) if d == 2 else real(d))


@pytest.mark.parametrize(
    "identity, corrupt, where, also",
    [
        ("eulerian-egf-A", _corrupt_egf_A, {"d": 0}, ()),
        # the Möbius sums of the cyclic identity read the same B_k
        ("eulerian-egf-B", _corrupt_egf_B, {"d": 2}, ("cyclic-excedance-B",)),
        ("cyclic-excedance-A", _corrupt_cyclic_A, {"d": 3}, ()),
        ("cyclic-excedance-B", _corrupt_cyclic_B, {"d": 2}, ()),
        ("double-factorial-sqrt", _corrupt_double_factorial, {"d": 1}, ()),
        ("supp-excedance-bivariate-A", _corrupt_bivariate_A, {"d": 3, "t": 1}, ()),
        ("compositional-B", _corrupt_compositional, {"d": 1, "family": 0}, ()),
        ("exponential-B", _corrupt_exponential, {"d": 1}, ()),
        ("supp-excedance-bivariate-B", _corrupt_bivariate_B, {"d": 2, "t": 1}, ()),
    ],
)
def test_corrupted_input_names_first_row(monkeypatch, identity, corrupt, where, also):
    corrupt(monkeypatch)
    report = {r["identity"]: r for r in verify_identities(order_a=5, order_b=3)}
    bad = report.pop(identity)
    assert bad["ok"] is False
    witness = bad["first_mismatch"]
    lhs, rhs = witness.pop("lhs"), witness.pop("rhs")
    assert witness == where
    assert isinstance(lhs, str) and isinstance(rhs, str) and lhs != rhs
    assert sorted(name for name, r in report.items() if not r["ok"]) == sorted(also)
