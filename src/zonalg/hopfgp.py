"""Hopf-monoid operations on labeled generalized permutahedra and their
classes: Cartesian product, restriction/contraction coproduct, antipode via
the Euler map, and the structural compatibility checks.

A labeled polytope carries a finite label set I; coordinates of R^I are
ordered by sorted labels and the underlying polytope is a deformation of the
permutahedron on |I| letters.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from . import arrangement as arrg
from . import polyclass
from .linalg import Combination
from .polyclass import PiElement, VPolytope


@dataclass(frozen=True)
class LabeledGP:
    labels: tuple  # sorted
    poly: VPolytope  # over braid(len(labels))

    @classmethod
    def make(cls, labels, poly):
        labels = tuple(sorted(labels))
        if len(labels) != poly.arr.d or poly.arr.kind != arrg.KIND_A:
            raise ValueError("polytope must live over the braid arrangement on the labels")
        return cls(labels, poly)

    @property
    def n(self):
        return len(self.labels)


def _coordinates(den, points, idx):
    """The polytope over the braid arrangement on len(idx) letters whose
    vertices are the integer ``points`` / ``den`` read at the coordinates
    ``idx``, in this order."""
    return polyclass._polytope(arrg.braid(len(idx)), den, [tuple(v[i] for i in idx) for v in points])


def gp_product(p, q):
    """Cartesian product over a disjoint union of labels."""
    if set(p.labels) & set(q.labels):
        raise ValueError("label sets must be disjoint")
    labels = p.labels + q.labels
    den = lcm(p.poly._den, q.poly._den)
    ps = [tuple(den // p.poly._den * c for c in v) for v in p.poly._ipts]
    qs = [tuple(den // q.poly._den * c for c in w) for w in q.poly._ipts]
    idx = sorted(range(len(labels)), key=labels.__getitem__)
    return LabeledGP.make(labels, _coordinates(den, [v + w for v in ps for w in qs], idx))


def gp_coproduct(p, s_labels):
    """(p restricted to S, p contracted by S) for a nonempty proper subset S."""
    s_labels = frozenset(s_labels)
    if not s_labels < set(p.labels) or not s_labels:
        raise ValueError("S must be a nonempty proper subset of the labels")
    # the two-block face S|T: x = 1 on S and 0 on T
    face = arrg.face_of_point(arrg.braid(p.n), tuple(int(lab in s_labels) for lab in p.labels))
    q = p.poly.face_max(face)
    s_sorted = tuple(sorted(s_labels))
    t_sorted = tuple(sorted(set(p.labels) - s_labels))
    s_idx = [p.labels.index(l) for l in s_sorted]
    t_idx = [p.labels.index(l) for l in t_sorted]
    restr = _coordinates(q._den, q._ipts, s_idx)
    contr = _coordinates(q._den, q._ipts, t_idx)
    return LabeledGP.make(s_sorted, restr), LabeledGP.make(t_sorted, contr)


# ---------------------------------------------------------------------------
# classes: Euler map and antipode

def euler_map_polytope(p):
    """[p]^* = sum over faces q of p of (-1)^{dim q} [q]."""
    return PiElement(p.arr, {
        polyclass._polytope(p.arr, p._den, [p._ipts[i] for i in fs]): (-1) ** dim
        for fs, dim in p.lattice().items()
    })


def euler_map(x):
    return PiElement.linear(x.arr, x.terms.items(), lambda p: euler_map_polytope(p).terms)


def antipode_class(x):
    """Antipode on classes: (-1)^{|I|} times the Euler map, with |I| = d."""
    return euler_map(x).scale((-1) ** x.arr.d)


# ---------------------------------------------------------------------------
# tensors of classes in cone-weight coordinates

class Tensor2(Combination):
    """Formal sum of tensor products of classes over a two-block split;
    ``arr`` is the pair of arrangements of the two factors."""

    __slots__ = ()

    @staticmethod
    def _key(pq):
        return (pq[0].normalized(), pq[1].normalized())

    def is_zero_class(self):
        """Whether the weights on pairs of arrangement faces (the tensor of
        the embeddings) vanish."""
        return Combination.linear(self.arr, self.terms.items(), _tensor_weights).is_zero()


def _tensor_weights(pq):
    wp = polyclass.polytope_cone_weights(pq[0]).terms
    wq = polyclass.polytope_cone_weights(pq[1]).terms
    return {(f1, f2): a * b for f1, a in wp.items() for f2, b in wq.items()}


def coproduct_tensor(x, s_labels):
    """Coproduct of a class combination along a split, as a Tensor2.

    ``x`` is a formal combination of labeled polytopes given as a list of
    (LabeledGP, coeff).
    """
    pairs = [(gp_coproduct(gp, s_labels), c) for gp, c in x]
    arrs = tuple(gp.poly.arr for gp in pairs[-1][0]) if pairs else None
    return Tensor2.linear(arrs, pairs, lambda rq: {(rq[0].poly, rq[1].poly): 1})


# ---------------------------------------------------------------------------
# structural checks

def _sample_gps(n, rng):
    """Deterministic sample of labeled deformations on labels 1..n."""
    arr = arrg.braid(n)
    labels = tuple(range(1, n + 1))
    out = [LabeledGP.make(labels, polyclass.permutahedron(n))]
    subsets = [
        frozenset(s)
        for k in range(2, n + 1)
        for s in itertools.combinations(range(1, n + 1), k)
    ]
    for s in subsets:
        out.append(LabeledGP.make(labels, polyclass.simplex(arr, s)))
    if subsets:
        for _ in range(3):
            picks = rng.sample(subsets, min(len(subsets), rng.randint(2, 3)))
            acc = polyclass.simplex(arr, picks[0])
            for s in picks[1:]:
                acc = acc.minkowski(polyclass.simplex(arr, s))
            out.append(LabeledGP.make(labels, acc))
    return out


def _proper_splits(labels):
    labels = tuple(sorted(labels))
    for k in range(1, len(labels)):
        for s in itertools.combinations(labels, k):
            yield frozenset(s)


def _restriction(gp, s):
    """p restricted to S (S may be everything, giving p itself)."""
    if frozenset(s) == frozenset(gp.labels):
        return gp
    return gp_coproduct(gp, s)[0]


def _contraction(gp, s):
    """p contracted by S (S may be empty, giving p itself)."""
    if not s:
        return gp
    return gp_coproduct(gp, s)[1]


def hopf_axiom_check(n, seed=0):
    """Coassociativity, product/coproduct compatibility, and the antipode
    axiom (the latter verified in the faithful tensor coordinates)."""
    rng = random.Random(seed)
    report = {"n": n, "coassociative": True, "compatible": True, "antipode": True}
    samples = _sample_gps(n, rng)

    # coassociativity: iterate the coproduct along every ordered partition
    # (A, B, C) both ways and compare all three factors
    for gp in samples[:4]:
        labels = frozenset(gp.labels)
        for a in _proper_splits(gp.labels):
            rest = labels - a
            for b in _proper_splits(tuple(rest)):
                left_first = gp_coproduct(gp, a | b)
                p_ab = left_first[0]
                via1 = (gp_coproduct(p_ab, a), left_first[1])
                right_first = gp_coproduct(gp, a)
                via2 = (right_first[0], gp_coproduct(right_first[1], b))
                triple1 = (via1[0][0].poly, via1[0][1].poly, via1[1].poly)
                triple2 = (via2[0].poly, via2[1][0].poly, via2[1][1].poly)
                if triple1 != triple2:
                    report["coassociative"] = False

    # compatibility: the coproduct of a product is the product of coproducts
    # along the induced splits
    if n >= 2:
        k = n // 2
        left = tuple(range(1, k + 1))
        right = tuple(range(k + 1, n + 1))
        lsamples = _sample_gps(len(left), rng)[:2]
        rsamples = [LabeledGP.make(right, g.poly) for g in _sample_gps(len(right), rng)[:2]]
        for lp in lsamples:
            for rp in rsamples:
                prod = gp_product(lp, rp)
                for s in _proper_splits(prod.labels):
                    ls = s & set(left)
                    rs = s & set(right)
                    got_r, got_c = gp_coproduct(prod, s)
                    parts_r = []
                    parts_c = []
                    if ls:
                        parts_r.append(_restriction(lp, ls))
                    if rs:
                        parts_r.append(_restriction(rp, rs))
                    if ls != set(left):
                        parts_c.append(_contraction(lp, ls))
                    if rs != set(right):
                        parts_c.append(_contraction(rp, rs))
                    want_r = parts_r[0] if len(parts_r) == 1 else gp_product(*parts_r)
                    want_c = parts_c[0] if len(parts_c) == 1 else gp_product(*parts_c)
                    if got_r.poly != want_r.poly or got_c.poly != want_c.poly:
                        report["compatible"] = False

    # antipode axiom: sum over all splits of mu (s ⊗ id) Delta = 0 on I != {}
    for gp in samples[:3]:
        total = PiElement.zero(gp.poly.arr)
        labels = frozenset(gp.labels)
        for k in range(0, len(labels) + 1):
            for s in itertools.combinations(sorted(labels), k):
                s = frozenset(s)
                if not s:
                    # the empty factor contributes mu(1 ⊗ p) = p
                    total = total + PiElement.of(gp.poly)
                    continue
                if s == labels:
                    total = total + antipode_class(PiElement.of(gp.poly))
                    continue
                restr, contr = gp_coproduct(gp, s)
                anti = antipode_class(PiElement.of(restr.poly))
                for p, c in anti.terms.items():
                    glued = gp_product(
                        LabeledGP.make(restr.labels, p),
                        LabeledGP.make(contr.labels, contr.poly),
                    )
                    total = total + PiElement.of(glued.poly, c)
        if not total.phi().is_zero():
            report["antipode"] = False
    report["ok"] = report["coassociative"] and report["compatible"] and report["antipode"]
    return report


# the sampled polytopes that mc_coideal_check slices, beside the permutahedron
_COIDEAL_SAMPLES = 3


def mc_coideal_check(n, seed=0):
    """Valuation and translation generators are killed by the quotient and
    stay killed under the operations: their coproducts vanish in the tensor
    coordinates for every split (coideal side), and their products with any
    polytope vanish as classes (ideal side)."""
    rng = random.Random(seed)
    arr = arrg.braid(n)
    labels = tuple(range(1, n + 1))
    report = {"n": n, "valuation": True, "translation": True, "product_ideal": True}
    cases = []
    if n >= 2:
        p = polyclass.permutahedron(n)
        cases.append((p, (1,) + (0,) * (n - 1), Fraction(3, 2)))
        for _ in range(_COIDEAL_SAMPLES):
            gp = _sample_gps(n, rng)[-1]
            i = rng.randint(1, n)
            vals = sorted({v[i - 1] for v in gp.poly._ipts})
            if len(vals) >= 2:
                c = Fraction(vals[0] + vals[-1], 2 * gp.poly._den)
                cases.append((gp.poly, tuple(int(k == i) for k in range(1, n + 1)), c))
    for poly, normal, c in cases:
        pieces = polyclass.valuation_relation(poly, normal, c).terms.items()
        for s in _proper_splits(labels):
            x = [(LabeledGP.make(labels, q), coeff) for q, coeff in pieces]
            tensor = coproduct_tensor(x, s)
            if not tensor.is_zero_class():
                report["valuation"] = False
        # ideal side: the product with any polytope over fresh labels is a
        # relation again, so its class vanishes
        other = _sample_gps(2, rng)[1]
        shifted = LabeledGP.make((n + 1, n + 2), other.poly)
        total = PiElement.zero(arrg.braid(n + 2))
        for q, coeff in pieces:
            glued = gp_product(LabeledGP.make(labels, q), shifted)
            total = total + PiElement.of(glued.poly, coeff)
        if not total.phi().is_zero():
            report["product_ideal"] = False
    # translation generators map to translation generators
    gp = _sample_gps(n, rng)[0]
    t = tuple(Fraction(rng.randint(-2, 2)) for _ in range(n))
    shifted = gp.poly.translate(t)
    for s in _proper_splits(labels):
        x = [(LabeledGP.make(labels, shifted), 1), (LabeledGP.make(labels, gp.poly), -1)]
        tensor = coproduct_tensor(x, s)
        if not tensor.is_zero_class():
            report["translation"] = False
    report["ok"] = report["valuation"] and report["translation"] and report["product_ideal"]
    return report


def two_one_monoid_check(n, seed=0):
    """Interchange of Cartesian product with Minkowski sum, and of Minkowski
    sum with the coproduct, at the level of exact vertex sets."""
    rng = random.Random(seed)
    report = {"n": n, "product_interchange": True, "coproduct_minkowski": True}
    if n >= 2:
        k = n // 2
        left = tuple(range(1, k + 1))
        right = tuple(range(k + 1, n + 1))
        arrL = arrg.braid(len(left))
        arrR = arrg.braid(len(right))
        ls = _sample_gps(len(left), rng)[:3]
        rs = _sample_gps(len(right), rng)[:3]
        for p1 in ls:
            for p2 in ls:
                for q1 in rs:
                    for q2 in rs:
                        a = gp_product(
                            LabeledGP.make(left, p1.poly.minkowski(p2.poly)),
                            LabeledGP.make(right, q1.poly.minkowski(q2.poly)),
                        )
                        b1 = gp_product(LabeledGP.make(left, p1.poly), LabeledGP.make(right, q1.poly))
                        b2 = gp_product(LabeledGP.make(left, p2.poly), LabeledGP.make(right, q2.poly))
                        if a.poly != b1.poly.minkowski(b2.poly):
                            report["product_interchange"] = False
    labels = tuple(range(1, n + 1))
    samples = _sample_gps(n, rng)[:4]
    for gp1 in samples:
        for gp2 in samples:
            total = gp1.poly.minkowski(gp2.poly)
            for s in _proper_splits(labels):
                r, c = gp_coproduct(LabeledGP.make(labels, total), s)
                r1, c1 = gp_coproduct(gp1, s)
                r2, c2 = gp_coproduct(gp2, s)
                if r.poly != r1.poly.minkowski(r2.poly):
                    report["coproduct_minkowski"] = False
                if c.poly != c1.poly.minkowski(c2.poly):
                    report["coproduct_minkowski"] = False
    report["ok"] = report["product_interchange"] and report["coproduct_minkowski"]
    return report
