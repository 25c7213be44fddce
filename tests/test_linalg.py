"""Integer elimination and the gcd-of-minors lattice volume against
independent oracles: Gauss-Jordan elimination over ``Fraction``s, the
Leibniz determinant, and a count of lattice points."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zonalg import linalg

_SETTINGS = settings(max_examples=150, deadline=None)


# ---------------------------------------------------------------------------
# the oracle: Gauss-Jordan elimination over the rationals

def _rref_oracle(rows, width):
    """Row-reduce a copy of ``rows`` over ``Fraction``s; return (reduced
    rows with pivot entries 1, pivot columns)."""
    mat = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    r = 0
    for c in range(width):
        pivot = None
        for i in range(r, len(mat)):
            if mat[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = mat[r][c]
        mat[r] = [x / inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def _rank_oracle(rows, width):
    return len(_rref_oracle(rows, width)[0])


def _solve_oracle(rows, rhs):
    """The unique solution of M x = rhs, or the message of the ValueError
    that ``linalg.solve_unique`` must raise."""
    width = len(rows[0])
    reduced, pivots = _rref_oracle([list(r) + [b] for r, b in zip(rows, rhs)], width + 1)
    if width in pivots:
        return "inconsistent linear system"
    if len(pivots) < width:
        return "underdetermined linear system"
    sol = [Fraction(0)] * width
    for r, c in enumerate(pivots):
        sol[c] = reduced[r][width]
    return tuple(sol)


# ---------------------------------------------------------------------------
# strategies: small rational matrices, often rank-deficient

_entries = st.one_of(
    st.just(0),
    st.integers(-3, 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)


@st.composite
def _matrices(draw, max_rows=6, max_cols=6):
    """A rational matrix; some rows are rational combinations of others."""
    n = draw(st.integers(1, max_cols))
    m = draw(st.integers(1, max_rows))
    rows = []
    for _ in range(m):
        if rows and draw(st.booleans()):
            coeffs = draw(st.lists(_entries, min_size=len(rows), max_size=len(rows)))
            rows.append([sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(n)])
        else:
            rows.append(draw(st.lists(_entries, min_size=n, max_size=n)))
    return rows


@given(_matrices())
@_SETTINGS
def test_rank_matches_fraction_oracle(rows):
    width = len(rows[0])
    assert linalg.rank(rows) == _rank_oracle(rows, width)
    assert linalg.rank(iter(rows)) == _rank_oracle(rows, width)


def test_rank_of_no_rows():
    assert linalg.rank([]) == 0


@given(_matrices(), st.data())
@_SETTINGS
def test_solve_unique_matches_fraction_oracle(rows, data):
    rhs = data.draw(st.lists(_entries, min_size=len(rows), max_size=len(rows)))
    if data.draw(st.booleans()):
        # a consistent right-hand side: M times a drawn vector
        x = data.draw(st.lists(_entries, min_size=len(rows[0]), max_size=len(rows[0])))
        rhs = [sum(a * b for a, b in zip(row, x)) for row in rows]
    want = _solve_oracle(rows, rhs)
    if isinstance(want, str):
        with pytest.raises(ValueError, match=want):
            linalg.solve_unique(rows, rhs)
    else:
        got = linalg.solve_unique(rows, rhs)
        assert got == want
        assert all(type(c) is Fraction for c in got)


def test_solve_unique_errors():
    with pytest.raises(ValueError, match="empty system"):
        linalg.solve_unique([], [])
    with pytest.raises(ValueError, match="inconsistent"):
        linalg.solve_unique([[1, 2], [2, 4]], [1, 3])
    with pytest.raises(ValueError, match="underdetermined"):
        linalg.solve_unique([[1, 2], [2, 4]], [1, 2])
    assert linalg.solve_unique([[2, 0], [0, Fraction(1, 3)]], [1, 1]) == (Fraction(1, 2), 3)


@given(_matrices(), st.data())
@_SETTINGS
def test_factorization_matches_fraction_oracle(rows, data):
    """One factorization answers several right-hand sides, consistent or
    not, as a fresh Fraction elimination of each augmented system does."""
    width = len(rows[0])
    fact = linalg.Factorization(rows)
    assert fact.rank == _rank_oracle(rows, width)
    for _ in range(4):
        if data.draw(st.booleans()):
            x = data.draw(st.lists(_entries, min_size=width, max_size=width))
            rhs = [sum(a * b for a, b in zip(row, x)) for row in rows]
        else:
            rhs = data.draw(st.lists(_entries, min_size=len(rows), max_size=len(rows)))
        want = _solve_oracle(rows, rhs)
        if isinstance(want, str):
            with pytest.raises(ValueError, match=want):
                fact.solve(rhs)
        else:
            got = fact.solve(rhs)
            assert got == want
            assert all(type(c) is Fraction for c in got)


def test_factorization_errors():
    with pytest.raises(ValueError, match="empty system"):
        linalg.Factorization([])
    fact = linalg.Factorization([[1, 2], [2, 4], [0, 0]])
    assert fact.rank == 1
    # inconsistency is reported before rank deficiency
    with pytest.raises(ValueError, match="inconsistent"):
        fact.solve([1, 2, 1])
    with pytest.raises(ValueError, match="underdetermined"):
        fact.solve([1, 2, 0])
    with pytest.raises(ValueError, match="wrong length"):
        fact.solve([1, 2])
    fact = linalg.Factorization([[2, 0], [0, Fraction(1, 3)], [1, 1]])
    assert fact.solve([1, 1, Fraction(7, 2)]) == (Fraction(1, 2), 3)
    assert fact.solve([0, 0, 0]) == (0, 0)
    with pytest.raises(ValueError, match="inconsistent"):
        fact.solve([1, 1, 3])
    # the factorization is the tuple of the rows, and solve_unique uses it
    assert fact == ((2, 0), (0, Fraction(1, 3)), (1, 1))
    assert linalg.solve_unique(fact, [1, 1, Fraction(7, 2)]) == (Fraction(1, 2), 3)


@given(_matrices(max_rows=8))
@_SETTINGS
def test_incremental_rank_matches_fraction_oracle(rows):
    width = len(rows[0])
    tracker = linalg.IncrementalRank(width)
    for k, vec in enumerate(rows):
        grew = _rank_oracle(rows[:k + 1], width) > _rank_oracle(rows[:k], width)
        assert tracker.add(vec) is grew
        assert tracker.rank == _rank_oracle(rows[:k + 1], width)


# ---------------------------------------------------------------------------
# integer determinant and lattice volume

_small_ints = st.integers(-3, 3)


def _leibniz(rows):
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * math.prod(rows[i][perm[i]] for i in range(n))
    return total


@given(st.integers(0, 5).flatmap(
    lambda n: st.lists(st.lists(_small_ints, min_size=n, max_size=n), min_size=n, max_size=n)
))
@_SETTINGS
def test_det_matches_leibniz(rows):
    assert linalg.det(rows) == _leibniz(rows)


def _parallelepiped_points(rows):
    """Number of points of Z^d in the half-open parallelepiped
    {sum t_i rows_i : 0 <= t_i < 1} of independent integer rows.

    Each such point is fixed by its coordinates in r columns C on which the
    rows are independent, so those run over their bounding box; t comes from
    the inverse of the r x r block (through the Fraction oracle), and the
    point counts when every t_i is in [0, 1) and sum t_i rows_i is integral.
    """
    r, d = len(rows), len(rows[0])
    cols = next(
        c for c in itertools.combinations(range(d), r)
        if _rank_oracle([[row[j] for j in c] for row in rows], r) == r
    )
    block = [[row[j] for j in cols] for row in rows]
    # inverse of the block: its columns solve block^T y = e_k
    transpose = [list(col) for col in zip(*block)]
    inv_cols = [_solve_oracle(transpose, [int(i == k) for i in range(r)]) for k in range(r)]
    ranges = [
        range(sum(min(0, row[j]) for row in rows), sum(max(0, row[j]) for row in rows) + 1)
        for j in cols
    ]
    count = 0
    for y in itertools.product(*ranges):
        t = [sum(yk * inv[i] for yk, inv in zip(y, inv_cols)) for i in range(r)]
        if all(0 <= ti < 1 for ti in t):
            point = [sum(ti * row[j] for ti, row in zip(t, rows)) for j in range(d)]
            count += all(x.denominator == 1 for x in map(Fraction, point))
    return count


@given(st.integers(1, 4).flatmap(lambda d: st.integers(1, d).flatmap(
    lambda r: st.lists(st.lists(_small_ints, min_size=d, max_size=d), min_size=r, max_size=r)
)))
@settings(max_examples=100, deadline=None)
def test_lattice_index_counts_parallelepiped_points(rows):
    if _rank_oracle(rows, len(rows[0])) < len(rows):
        assert linalg.lattice_index(rows) == 0
    else:
        assert linalg.lattice_index(rows) == _parallelepiped_points(rows)


def test_lattice_index_examples():
    assert linalg.lattice_index([]) == 1
    assert linalg.lattice_index([[2, 2]]) == 2
    assert linalg.lattice_index([[1, -1, 0], [0, 1, -1]]) == 1
    assert linalg.lattice_index([[2, 0], [0, 3]]) == 6
