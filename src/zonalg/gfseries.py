"""Exact polynomial and truncated power-series arithmetic over the rationals,
Eulerian polynomials of both kinds, and the generating-function identities.

``RatPoly`` is a univariate polynomial in z with Fraction coefficients.
``TruncSeries`` is a truncated power series in x whose coefficients are
RatPoly values; internally coefficients are plain (ordinary) coefficients of
x^d, and the "egf" (x^d/d!) and "bgf" (x^d/(2d)!!) conventions are applied
on the way in and out.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import arrangement as arrg
from . import permstat


def _dfact(d):
    """(2d)!! = 2^d d!"""
    return (2 ** d) * math.factorial(d)


def _convention_scale(d, convention):
    """The factor that reads the ordinary coefficient of x^d in a convention:
    1 ("ordinary"), d! ("egf") or (2d)!! ("bgf")."""
    if convention == "egf":
        return math.factorial(d)
    if convention == "bgf":
        return _dfact(d)
    if convention != "ordinary":
        raise ValueError(f"unknown convention {convention!r}")
    return 1


@dataclass(frozen=True)
class RatPoly:
    coeffs: tuple  # Fraction coefficients, low degree first, trailing zeros trimmed

    @classmethod
    def of(cls, *coeffs):
        return cls(_trim(tuple(Fraction(c) for c in coeffs)))

    @classmethod
    def z(cls):
        return cls.of(0, 1)

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        a = self.coeffs + (Fraction(0),) * (n - len(self.coeffs))
        b = other.coeffs + (Fraction(0),) * (n - len(other.coeffs))
        return RatPoly(_trim(tuple(x + y for x, y in zip(a, b))))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return RatPoly(tuple(-x for x in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not self.coeffs or not other.coeffs:
            return RatPoly(())
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return RatPoly(_trim(tuple(out)))

    __rmul__ = __mul__

    def scale(self, c):
        c = Fraction(c)
        if c == 0:
            return RatPoly(())
        return RatPoly(tuple(x * c for x in self.coeffs))

    def __pow__(self, n):
        result = RatPoly.of(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __call__(self, value):
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def coeff(self, k):
        return self.coeffs[k] if k < len(self.coeffs) else Fraction(0)

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*z" if c != 1 else "z")
            else:
                parts.append(f"{c}*z^{i}" if c != 1 else f"z^{i}")
        return " + ".join(parts)


def _trim(coeffs):
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    return coeffs[:n]


_P_ZERO = RatPoly(())
_P_ONE = RatPoly.of(1)


# ---------------------------------------------------------------------------
# Eulerian polynomials

def eulerian_A(d):
    """Eulerian polynomial: excedance (equivalently descent) counts over S_d."""
    if d < 0:
        raise ValueError("d must be >= 0")
    row = [1]
    for n in range(2, d + 1):
        new = [Fraction(0)] * n
        for k in range(n):
            a = (k + 1) * (row[k] if k < len(row) else 0)
            b = (n - k) * (row[k - 1] if 0 < k <= len(row) else 0)
            new[k] = a + b
        row = new
    return RatPoly(_trim(tuple(Fraction(c) for c in row)))


def eulerian_B(d):
    """Type B Eulerian polynomial: B-excedance (equivalently descent) counts over B_d."""
    if d < 0:
        raise ValueError("d must be >= 0")
    row = [1]
    for n in range(1, d + 1):
        new = [Fraction(0)] * (n + 1)
        for k in range(n + 1):
            a = (2 * k + 1) * (row[k] if k < len(row) else 0)
            b = (2 * (n - k) + 1) * (row[k - 1] if 0 < k <= len(row) else 0)
            new[k] = a + b
        row = new
    return RatPoly(_trim(tuple(Fraction(c) for c in row)))


# ---------------------------------------------------------------------------
# truncated bivariate series

@dataclass(frozen=True)
class TruncSeries:
    order: int
    coeffs: tuple  # RatPoly per power of x, ordinary convention, len == order+1

    def __post_init__(self):
        if self.order < 0 or len(self.coeffs) != self.order + 1:
            raise ValueError("inconsistent truncation order")

    @classmethod
    def from_coeffs(cls, coeffs, order, convention="ordinary"):
        """Build from the coefficients as read in the given convention."""
        polys = []
        for d in range(order + 1):
            c = coeffs[d] if d < len(coeffs) else _P_ZERO
            if isinstance(c, (int, Fraction)):
                c = RatPoly.of(c)
            scale = _convention_scale(d, convention)
            polys.append(c.scale(Fraction(1, scale)) if scale != 1 else c)
        return cls(order, tuple(polys))

    @classmethod
    def zero(cls, order):
        return cls(order, (_P_ZERO,) * (order + 1))

    @classmethod
    def one(cls, order):
        return cls(order, (_P_ONE,) + (_P_ZERO,) * order)

    @classmethod
    def x(cls, order):
        if order < 1:
            raise ValueError("order must be >= 1")
        return cls(order, (_P_ZERO, _P_ONE) + (_P_ZERO,) * (order - 1))

    def coeff(self, d, convention="ordinary"):
        """Coefficient of x^d read in the requested convention."""
        scale = _convention_scale(d, convention)
        return self.coeffs[d].scale(scale) if scale != 1 else self.coeffs[d]

    def _binop(self, other):
        if self.order != other.order:
            raise ValueError("mixed truncation orders")
        return other

    def __add__(self, other):
        other = self._binop(other)
        return TruncSeries(
            self.order,
            tuple(a + b for a, b in zip(self.coeffs, other.coeffs)),
        )

    def __sub__(self, other):
        other = self._binop(other)
        return TruncSeries(
            self.order,
            tuple(a - b for a, b in zip(self.coeffs, other.coeffs)),
        )

    def __neg__(self):
        return TruncSeries(self.order, tuple(-a for a in self.coeffs))

    def scale(self, c):
        if isinstance(c, (int, Fraction)):
            c = RatPoly.of(c)
        return TruncSeries(self.order, tuple(a * c for a in self.coeffs))

    def __mul__(self, other):
        other = self._binop(other)
        out = [_P_ZERO] * (self.order + 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j in range(self.order + 1 - i):
                b = other.coeffs[j]
                if not b.is_zero():
                    out[i + j] = out[i + j] + a * b
        return TruncSeries(self.order, tuple(out))

    def exp(self):
        if not self.coeffs[0].is_zero():
            raise ValueError("exp requires zero constant term")
        result = TruncSeries.one(self.order)
        term = TruncSeries.one(self.order)
        for k in range(1, self.order + 1):
            term = term * self
            term = term.scale(Fraction(1, k))
            result = result + term
        return result

    def log(self):
        if self.coeffs[0] != _P_ONE:
            raise ValueError("log requires constant term 1")
        h = self - TruncSeries.one(self.order)
        result = TruncSeries.zero(self.order)
        power = TruncSeries.one(self.order)
        for k in range(1, self.order + 1):
            power = power * h
            result = result + power.scale(Fraction((-1) ** (k - 1), k))
        return result

    def inverse(self):
        """Multiplicative inverse; the constant term must be a nonzero rational."""
        c0 = self.coeffs[0]
        if c0.degree > 0 or c0.is_zero():
            raise ValueError("inverse requires a nonzero rational constant term")
        inv0 = RatPoly.of(Fraction(1) / c0.coeffs[0])
        out = [inv0] + [_P_ZERO] * self.order
        for n in range(1, self.order + 1):
            acc = _P_ZERO
            for k in range(1, n + 1):
                if not self.coeffs[k].is_zero():
                    acc = acc + self.coeffs[k] * out[n - k]
            out[n] = -(acc * inv0)
        return TruncSeries(self.order, tuple(out))

    def power(self, exponent):
        """f^exponent for rational exponent; requires constant term 1."""
        exponent = Fraction(exponent)
        if exponent.denominator == 1 and exponent >= 0:
            n = int(exponent)
            result = TruncSeries.one(self.order)
            base = self
            while n:
                if n & 1:
                    result = result * base
                base = base * base
                n >>= 1
            return result
        return self.log().scale(exponent).exp()


# ---------------------------------------------------------------------------
# closed-form generating functions

def eulerian_gf_A(order):
    """(z-1)/(z - e^{x(z-1)}) = 1/(1 - g) with g = sum_{d>=1} (z-1)^{d-1} x^d/d!."""
    zm1 = RatPoly.of(-1, 1)
    g = TruncSeries.from_coeffs(
        [_P_ZERO] + [zm1 ** (d - 1) * Fraction(1, math.factorial(d)) for d in range(1, order + 1)],
        order,
    )
    return (TruncSeries.one(order) - g).inverse()


def eulerian_gf_B(order):
    """(1-z) e^{x(1-z)/2} / (1 - z e^{x(1-z)}), with B-convention coefficients B_d(z)."""
    omz = RatPoly.of(1, -1)  # 1 - z
    h = TruncSeries.from_coeffs(
        [_P_ZERO] + [omz ** (d - 1) * Fraction(1, math.factorial(d)) for d in range(1, order + 1)],
        order,
    )
    zh = h.scale(RatPoly.z())
    expo = TruncSeries.from_coeffs(
        [_P_ZERO] + [omz.scale(Fraction(1, 2))] + [_P_ZERO] * (order - 1), order
    ).exp()
    return expo * (TruncSeries.one(order) - zh).inverse()


# ---------------------------------------------------------------------------
# identity verification

def _poly_of_counts(counts):
    """The polynomial sum_e counts[e] z^e."""
    coeffs = [Fraction(0)] * (max(counts, default=0) + 1)
    for e, c in counts.items():
        coeffs[e] = Fraction(c)
    return RatPoly(_trim(tuple(coeffs)))


def _cyclic_excedance_poly(d):
    """sum over cyclic permutations of [d] of z^exc, by direct enumeration of
    the image tuples of the cycles (1, rest...)."""
    total = Counter()
    for rest in itertools.permutations(range(2, d + 1)):
        images = [0] * d
        for a, b in zip((1,) + rest, rest + (1,)):
            images[a - 1] = b
        total[permstat._cycles_exc(images)[1]] += 1
    return _poly_of_counts(total)


@lru_cache(maxsize=None)
def _perm_stats(d):
    """((#blocks of supp, exc), count) over S_d, from one enumeration."""
    return tuple(sorted(permstat.supp_exc_tally("S", d).items()))


@lru_cache(maxsize=None)
def _signed_stats(d):
    """((dim of supp, exc_B), count) over B_d, from one enumeration."""
    return tuple(sorted(permstat.supp_exc_tally("B", d).items()))


def _tally_poly(tally, t):
    """sum over a tally of count * t^k z^e, at an integer or rational t."""
    by_exc = {}
    for (k, e), c in tally:
        by_exc[e] = by_exc.get(e, 0) + c * t ** k
    return _poly_of_counts(by_exc)


def _bivariate_A(d, t):
    """sum over S_d of t^{#blocks of supp} z^{exc}, at an integer t."""
    return _tally_poly(_perm_stats(d), t)


def _bivariate_B(d, t):
    """sum over B_d of t^{dim supp} z^{exc_B}, at a rational t."""
    return _tally_poly(_signed_stats(d), t)


def h_of_flat(flat):
    """h-polynomial of the zonotope face at a flat, by the product formulas:
    B_k(z) * prod_i A_{s_i}(z) at a flat of type (k, (s_1, s_2, ...)), as
    ``arrangement.flat_type`` gives it (B_0 = 1, so a type-A flat takes the
    plain product), and (1+z)^(d - dim X) for the coordinate arrangement,
    whose faces are cubes."""
    if flat.arr.kind == arrg.KIND_C:
        return RatPoly.of(1, 1) ** (flat.arr.d - flat.dim)
    zero, sizes = arrg.flat_type(flat)
    return math.prod(map(eulerian_A, sizes), start=eulerian_B(zero))


def mobius_h_sums(xs):
    """X -> the sum over the flats Y >= X of mu(X, Y) * h_of_flat(Y), for
    each flat X of ``xs``.

    Every flat contributes its own Möbius value; the integer weights are
    added up per flat type (per d - dim Y for the coordinate arrangement,
    which is all that h reads there), and each h-polynomial is taken once
    per type in one call.
    """
    h = {}
    out = {}
    for x in xs:
        cube = x.arr.kind == arrg.KIND_C
        weights = Counter()
        for y in arrg.flats_geq(x):
            key = x.arr.d - y.dim if cube else arrg.flat_type(y)
            weights[key] += arrg.mobius(x, y)
            if key not in h:
                h[key] = h_of_flat(y)
        acc = _P_ZERO
        for key, w in weights.items():
            if w:
                acc = acc + h[key].scale(w)
        out[x] = acc
    return out


def _first_mismatch(rows):
    """The first row ``(where, lhs, rhs)`` whose two sides differ, named as
    ``where`` with both sides as strings, or None when every row agrees."""
    for where, lhs, rhs in rows:
        if lhs != rhs:
            return {**where, "lhs": str(lhs), "rhs": str(rhs)}
    return None


def verify_identities(order_a=8, order_b=6):
    """Check every generating-function identity; returns a list of records.

    Left-hand sides come from exhaustive enumeration or Möbius-partition
    sums; right-hand sides from the closed-form series.  Identities with a
    free exponent t are checked at enough integer values to pin down the
    coefficient polynomials in t.  Each identity is a stream of rows
    ``(where, lhs, rhs)``; its record names the first row that differs.
    """
    A = eulerian_gf_A(order_a)
    B = eulerian_gf_B(order_b)
    Ab = eulerian_gf_A(order_b)
    # B(z,x)/sqrt(A(z,x)), the B-convention series of the central count
    central = B * Ab.power(Fraction(-1, 2))
    sqrt_inv = (TruncSeries.one(order_b) + TruncSeries.x(order_b)).power(Fraction(-1, 2))
    identities = (
        # classical exponential generating function of the Eulerian polynomials
        ("eulerian-egf-A", order_a, _coefficient_rows(eulerian_A, A, "egf", range(order_a + 1))),
        ("eulerian-egf-B", order_b, _coefficient_rows(eulerian_B, B, "bgf", range(order_b + 1))),
        # cyclic-excedance identity: both sides have egf log A(z,x)
        ("cyclic-excedance-A", order_a,
         _central_rows(arrg.braid, _cyclic_excedance_poly, A.log(), "egf", order_a)),
        # type B analogue: both sides have B-convention generating function
        # B(z,x)/sqrt(A(z,x)) - 1
        ("cyclic-excedance-B", order_b,
         _central_rows(arrg.type_b, lambda d: _bivariate_B(d, 0), central, "bgf", order_b)),
        # 1 + sum (-1)^d (2d-1)!! x^d/(2d)!! = (1+x)^{-1/2}
        ("double-factorial-sqrt", order_b, _coefficient_rows(
            lambda d: RatPoly.of((-1) ** d * math.prod(range(2 * d - 1, 0, -2))),
            sqrt_inv, "bgf", range(order_b + 1),
        )),
        # bivariate identity in type A: egf of t^{|supp|} z^{exc} equals A(z,x)^t;
        # polynomials in t of degree <= d are pinned by order_a + 1 integer points
        ("supp-excedance-bivariate-A", order_a, _bivariate_rows(
            _bivariate_A, ((t, A.power(t)) for t in range(order_a + 1)), "egf", order_a
        )),
        # type B compositional formula, exercised on two coefficient families
        ("compositional-B", order_b, _compositional_rows(order_b)),
        ("exponential-B", order_b, _exponential_rows(order_b)),
        # bivariate identity in type B: B-gf of t^{dim supp} z^{exc_B} equals
        # B(z,x) A(z,x)^{(t-1)/2}; at t = 0 both sides are the central count
        # and series of cyclic-excedance-B
        ("supp-excedance-bivariate-B", order_b, _bivariate_rows(
            _bivariate_B, ((t, B * Ab.power(Fraction(t - 1, 2))) for t in (0, 1, 2, 3)),
            "bgf", order_b,
        )),
    )
    report = []
    for name, order, rows in identities:
        mismatch = _first_mismatch(rows)
        report.append({"identity": name, "order": order, "ok": mismatch is None,
                       "first_mismatch": mismatch})
    return report


def _coefficient_rows(count, series, convention, degrees, **where):
    """For each d of ``degrees``: ``count(d)`` against the coefficient of x^d
    in ``series``, read in ``convention``."""
    for d in degrees:
        yield {"d": d, **where}, count(d), series.coeff(d, convention)


def _central_rows(arrangement, count, series, convention, order):
    """For d = 1..order: the Möbius-partition sum over ``arrangement(d)``,
    then the coefficient of x^d in ``series``, each against ``count(d)``."""
    for d in range(1, order + 1):
        want = count(d)
        bottom = arrg.bottom_flat(arrangement(d))
        yield {"d": d}, mobius_h_sums([bottom])[bottom], want
        yield {"d": d}, series.coeff(d, convention), want


def _bivariate_rows(tally_poly, powers, convention, order):
    """For each (t, series) of ``powers`` and d = 0..order: the statistic sum
    ``tally_poly(d, t)`` against the coefficient of x^d in the series."""
    for t, series in powers:
        for d in range(order + 1):
            yield {"d": d, "t": t}, tally_poly(d, t) if d else _P_ONE, series.coeff(d, convention)


def _coefficient_series(constant, c, order, convention):
    """The series with constant term ``constant`` and coefficient c(d) of
    x^d, d >= 1, read in the given convention."""
    return TruncSeries.from_coeffs(
        [RatPoly.of(constant)] + [RatPoly.of(c(d)) for d in range(1, order + 1)],
        order,
        convention,
    )


def _signed_flat_rows(order, rhs, fc, gc, ac, **where):
    """Brute-force sums over the signed partitions of [±d], d <= min(order, 4),
    against the bgf coefficients of ``rhs``: a flat of type (k, (s_1..s_m))
    contributes f_k g_m a_{s_1} ... a_{s_m}."""
    for d in range(1, min(order, 4) + 1):
        lhs = Fraction(0)
        for x in arrg.flats(arrg.type_b(d)):
            zero, sizes = arrg.flat_type(x)
            lhs += fc(zero) * gc(len(sizes)) * math.prod(map(ac, sizes))
        yield {"d": d, **where}, RatPoly.of(lhs), rhs.coeff(d, "bgf")


def _compositional_rows(order):
    """Brute-force signed-partition sums against f(x) g(a(x)).

    Checked for two coefficient families: all-ones, and a second family with
    growing coefficients.
    """
    families = [
        (lambda d: Fraction(1), lambda k: Fraction(1), lambda m: Fraction(1)),
        (lambda d: Fraction(d + 1), lambda k: Fraction(2) ** k, lambda m: Fraction(m)),
    ]
    for fam, (fc, gc, ac) in enumerate(families):
        f = _coefficient_series(1, fc, order, "bgf")
        g = _coefficient_series(1, gc, order, "bgf")
        a = _coefficient_series(0, ac, order, "egf")
        # g(a(x)) needs g as a function of its argument: expand via the bgf
        # coefficients g_k against powers of a
        yield from _signed_flat_rows(order, f * _compose_bgf(g, a, order), fc, gc, ac, family=fam)


def _compose_bgf(g, a, order):
    """g(a(x)) where g carries bgf coefficients g_k: sum_k g_k a(x)^k/(2k)!!."""
    result = TruncSeries.one(order)
    power = TruncSeries.one(order)
    for k in range(1, order + 1):
        power = power * a
        gk = g.coeff(k, "bgf")
        result = result + power.scale(gk * Fraction(1, _dfact(k)))
    return result


def _exponential_rows(order):
    """The compositional sums at g_k = 1, where g(a(x)) = exp(a(x)/2):
    h(x) = f(x) exp(a(x)/2), with exp computed by its own series."""
    fc = lambda d: Fraction(1, d + 1)
    ac = lambda m: Fraction(m * m)
    f = _coefficient_series(1, fc, order, "bgf")
    a = _coefficient_series(0, ac, order, "egf")
    rhs = f * a.scale(Fraction(1, 2)).exp()
    return _signed_flat_rows(order, rhs, fc, lambda k: Fraction(1), ac)
