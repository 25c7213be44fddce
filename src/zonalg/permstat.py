"""Permutations, signed permutations, their statistics, and the forest bijection.

Statistics follow the usual conventions: an excedance of a permutation is a
position i with sigma(i) > i; for signed permutations the B-excedance is
exc + floor((fneg+1)/2) where fneg counts positions mapped to negative
values.  Supports are returned as flats of the matching arrangement.
"""

from __future__ import annotations

import itertools
import operator
import os
from collections import Counter
from dataclasses import dataclass

from .arrangement import braid, flat_of_blocks, type_b


class BoundExceededError(RuntimeError):
    """Raised when an exhaustive enumeration would exceed the configured bound."""


class _Cycles:
    """Cycle decomposition and cycle notation, shared by both permutation
    types; ``_starts`` is the order in which elements open new cycles."""

    __slots__ = ()

    def cycles(self):
        seen = set()
        out = []
        for start in self._starts():
            if start in seen:
                continue
            cyc = [start]
            seen.add(start)
            nxt = self(start)
            while nxt != start:
                cyc.append(nxt)
                seen.add(nxt)
                nxt = self(nxt)
            out.append(tuple(cyc))
        return out

    def __str__(self):
        return "".join(f"({' '.join(str(x) for x in c)})" for c in self.cycles())


@dataclass(frozen=True)
class Permutation(_Cycles):
    images: tuple  # images[i-1] = sigma(i)

    def __post_init__(self):
        d = len(self.images)
        if sorted(self.images) != list(range(1, d + 1)):
            raise ValueError(f"not a permutation of [{d}]: {self.images}")

    @property
    def d(self):
        return len(self.images)

    def __call__(self, i):
        return self.images[i - 1]

    def _starts(self):
        return range(1, self.d + 1)

    def exc(self):
        return sum(1 for i in range(1, self.d + 1) if self(i) > i)

    def des(self):
        return sum(1 for i in range(1, self.d) if self(i) > self(i + 1))

    def supp(self):
        return flat_of_blocks(braid(self.d), (), self.cycles())

    @classmethod
    def from_cycles(cls, d, cycles):
        images = list(range(1, d + 1))
        for cyc in cycles:
            for a, b in zip(cyc, cyc[1:] + tuple(cyc[:1])):
                images[a - 1] = b
        return cls(tuple(images))


@dataclass(frozen=True)
class SignedPermutation(_Cycles):
    images: tuple  # images[i-1] = sigma(i) in [±d]; sigma(-i) = -sigma(i)

    def __post_init__(self):
        d = len(self.images)
        if sorted(abs(v) for v in self.images) != list(range(1, d + 1)):
            raise ValueError(f"not a signed permutation: {self.images}")

    @property
    def d(self):
        return len(self.images)

    def __call__(self, i):
        if i > 0:
            return self.images[i - 1]
        return -self.images[-i - 1]

    def _starts(self):
        """Cycles are on the signed ground set [±d]: 1, -1, 2, -2, ..."""
        return [x for i in range(1, self.d + 1) for x in (i, -i)]

    def exc(self):
        return sum(1 for i in range(1, self.d) if self(i) > i)

    def des(self):
        # descent at position 0 uses sigma(0) = 0
        return sum(1 for i in range(0, self.d) if (self(i) if i else 0) > self(i + 1))

    def fneg(self):
        return sum(1 for v in self.images if v < 0)

    def fexc(self):
        return 2 * self.exc() + self.fneg()

    def exc_b(self):
        return (self.fexc() + 1) // 2

    def supp(self):
        """Signed partition of the cycles: a self-negative cycle falls into
        the zero block."""
        return flat_of_blocks(type_b(self.d), (), self.cycles())

    @classmethod
    def from_cycles(cls, d, cycles):
        images = {}
        for cyc in cycles:
            for a, b in zip(cyc, cyc[1:] + tuple(cyc[:1])):
                images[a] = b
                images[-a] = -b
        out = [images.get(i, i) for i in range(1, d + 1)]
        return cls(tuple(out))


def stats(sigma):
    return {"exc": sigma.exc(), "des": sigma.des(), "supp": sigma.supp()}


def stats_signed(sigma):
    return {
        "exc": sigma.exc(),
        "fneg": sigma.fneg(),
        "fexc": sigma.fexc(),
        "exc_B": sigma.exc_b(),
        "des": sigma.des(),
        "supp": sigma.supp(),
    }


# ---------------------------------------------------------------------------
# increasing forests

@dataclass(frozen=True)
class Tree:
    root: int
    children: tuple  # of Tree, roots increasing left to right

    def nodes(self):
        out = {self.root}
        for c in self.children:
            out |= c.nodes()
        return out

    def leaves(self):
        if not self.children:
            return 0
        return sum(max(c.leaves(), 1) for c in self.children)


@dataclass(frozen=True)
class IncreasingForest:
    trees: tuple  # of Tree, ordered by root

    def __post_init__(self):
        for t in self.trees:
            _validate_tree(t)
        all_nodes = [n for t in self.trees for n in t.nodes()]
        if len(all_nodes) != len(set(all_nodes)):
            raise ValueError("trees share nodes")

    @property
    def d(self):
        return max((n for t in self.trees for n in t.nodes()), default=0)

    def leaves(self):
        return sum(t.leaves() for t in self.trees)

    def leaf_paths(self):
        """For each leaf (left to right, trees by root), the node set of the
        path from the leaf to the root of its tree."""
        paths = []

        def walk(tree, above):
            here = above + [tree.root]
            if not tree.children:
                if len(here) > 1:
                    paths.append(frozenset(here))
                return
            for c in tree.children:
                walk(c, here)

        for t in sorted(self.trees, key=lambda t: t.root):
            walk(t, [])
        return paths


def _validate_tree(tree):
    roots = [c.root for c in tree.children]
    if roots != sorted(roots) or len(set(roots)) != len(roots):
        raise ValueError("children must be increasing left to right")
    for c in tree.children:
        if c.root <= tree.root:
            raise ValueError("each child must be larger than its parent")
        _validate_tree(c)


def _parse_postorder(word):
    """Split a postorder word into subtrees; each segment ends at the running minimum."""
    subtrees = []
    i = 0
    while i < len(word):
        rest = word[i:]
        j = i + rest.index(min(rest))
        seg = word[i:j + 1]
        subtrees.append(Tree(seg[-1], _parse_postorder(seg[:-1])))
        i = j + 1
    return tuple(subtrees)


def forest_of(sigma):
    """The increasing rooted forest of a permutation (components = cycles)."""
    trees = []
    for cyc in sigma.cycles():
        m = min(cyc)
        k = cyc.index(m)
        word = list(cyc[k + 1:]) + list(cyc[:k + 1])  # cycle rotated so min is last
        trees.append(Tree(m, _parse_postorder(word[:-1])))
    trees.sort(key=lambda t: t.root)
    return IncreasingForest(tuple(trees))


# ---------------------------------------------------------------------------
# enumeration (the brute-force oracle)

_BOUNDS = {"S": ("ZONALG_MAX_SYMMETRIC", 8), "B": ("ZONALG_MAX_HYPEROCTAHEDRAL", 6)}


def _check_bound(group, d):
    """Raise BoundExceededError when S_d or B_d (``group`` "S" or "B") is past
    the bound its ZONALG_MAX_* variable sets, read when it is used; a value
    that is no non-negative integer raises ValueError naming the variable."""
    name, bound = _BOUNDS[group]
    raw = os.environ.get(name)
    if raw is not None:
        try:
            bound = int(raw)
            if bound < 0:
                raise ValueError
        except ValueError:
            raise ValueError(f"{name} must be a non-negative integer, got {raw!r}") from None
    if d > bound:
        raise BoundExceededError(f"{group}_{d} exceeds the bound {bound}")


def _signed_images(d):
    """The image tuples of B_d: each permutation of [d] under each sign vector."""
    for p in itertools.permutations(range(1, d + 1)):
        yield from itertools.product(*[(v, -v) for v in p])


def symmetric_group(d):
    _check_bound("S", d)
    return [Permutation(p) for p in itertools.permutations(range(1, d + 1))]


def hyperoctahedral_group(d):
    _check_bound("B", d)
    return [SignedPermutation(t) for t in _signed_images(d)]


def enumerate_group(group, d, supp=None, exc=None, exc_b=None):
    """Filtered exhaustive enumeration; the oracle for the eigenspace counts.

    ``group`` is "S" or "B".  Filters: supp (a Flat), exc (both groups) and
    exc_b (type B only).
    """
    if group == "S":
        if exc_b is not None:
            raise ValueError("the exc_b filter needs the signed group B")
        elems = symmetric_group(d)
    elif group == "B":
        elems = hyperoctahedral_group(d)
    else:
        raise ValueError(f"unknown group {group!r}")
    return [
        s
        for s in elems
        if (supp is None or s.supp() == supp)
        and (exc is None or s.exc() == exc)
        and (exc_b is None or s.exc_b() == exc_b)
    ]


# ---------------------------------------------------------------------------
# object-free statistics: the tallies of the series identities, read straight
# off the image tuples (the element objects above are their oracle)

def _cycles_exc(images):
    """(number of cycles, exc) of the permutation with these images: the
    number of blocks of supp(sigma) and its excedance number."""
    d = len(images)
    seen = [False] * (d + 1)
    cycles = 0
    for i in range(1, d + 1):
        if not seen[i]:
            cycles += 1
            while not seen[i]:
                seen[i] = True
                i = images[i - 1]
    return cycles, sum(map(operator.gt, images, range(1, d + 1)))


def _supp_dim_exc_b(images):
    """(dim supp, exc_B) of the signed permutation with these images.  The
    cycle through i either comes back to i, and with its mirror image makes
    one +- pair of blocks of supp, or reaches -i first and lies in the zero
    block; so dim supp counts the cycles of the first kind."""
    d = len(images)
    sigma = (0,) + images + tuple(map(operator.neg, reversed(images)))  # sigma[-i] = -sigma(i)
    seen = [False] * (d + 1)
    pairs = 0
    for i in range(1, d + 1):
        if seen[i]:
            continue
        j = sigma[i]
        while j != i and j != -i:
            seen[abs(j)] = True
            j = sigma[j]
        pairs += j == i
    exc = sum(map(operator.gt, images, range(1, d + 1)))
    fneg = sum(map(operator.lt, images, itertools.repeat(0)))
    return pairs, (2 * exc + fneg + 1) // 2


def supp_exc_tally(group, d):
    """Counter of (dim supp, exc) over S_d (``group`` "S") or of
    (dim supp, exc_B) over B_d ("B"), without building element objects;
    bounded like ``symmetric_group`` and ``hyperoctahedral_group``."""
    _check_bound(group, d)
    if group == "S":
        return Counter(map(_cycles_exc, itertools.permutations(range(1, d + 1))))
    return Counter(map(_supp_dim_exc_b, _signed_images(d)))
