import random
from fractions import Fraction as Q
from math import prod

import pytest
import numpy as np
from hypothesis import given, settings, strategies as st

from orbitatlas._modp import _negated_inverses, rank_mod_p, residues
from orbitatlas.linalg import (
    kernel_basis_int,
    rank_int_rows,
    solve_linear,
)

P = 2**31 - 1


def is_negative_definite(sym: list[list[int]]) -> bool:
    """Sign test on leading principal minors of an exact symmetric matrix."""
    n = len(sym)
    work = [list(row) for row in sym]
    prev = 1
    for k in range(n):
        pc = work[k][k]
        if pc == 0:
            return False
        # after k steps the pivot equals the (k+1)-st leading principal minor
        minor_sign = 1 if pc > 0 else -1
        if minor_sign != (1 if (k + 1) % 2 == 0 else -1):
            return False
        for i in range(k + 1, n):
            rik = work[i][k]
            for j in range(k + 1, n):
                work[i][j] = (pc * work[i][j] - rik * work[k][j]) // prev
            work[i][k] = 0
        prev = pc
    return True


def test_rank_identity():
    assert rank_int_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 3) == 3


def test_rank_zero():
    assert rank_int_rows([[0, 0], [0, 0]], 2) == 0


def test_rank_proportional_rows():
    assert rank_int_rows([[1, 2], [2, 4], [3, 6]], 2) == 1


def test_kernel_identity_empty():
    assert kernel_basis_int([[1, 0], [0, 1]], 2) == ([], 1)


def test_kernel_symmetry():
    (v,), den = kernel_basis_int([[1, -1]], 2)
    assert (Q(v[0], den), Q(v[1], den)) == (Q(1), Q(1))


def test_kernel_zero_matrix():
    basis, den = kernel_basis_int([[0, 0, 0]] * 3, 3)
    assert len(basis) == 3 and den == 1


def test_kernel_reads_the_last_pivot():
    # pivots 2 and det [[2, 1], [0, 3]] = 6 -> the free column reads 6
    (v,), den = kernel_basis_int([[2, 1, 1], [0, 3, 2]], 3)
    assert den == 6 and v == (-1, -4, 6)


def test_solve_identity():
    # the right-hand side (3, -2/7) scaled by 7
    num, den = solve_linear([[1, 0], [0, 1]], 2, [21, -2])
    assert (Q(num[0], 7 * den), Q(num[1], 7 * den)) == (Q(3), Q(-2, 7))


def test_solve_underdetermined_verifies():
    num, den = solve_linear([[1, 1]], 2, [2])
    assert num[0] + num[1] == 2 * den


def test_solve_inconsistent():
    assert solve_linear([[1], [1]], 1, [0, 1]) is None


def test_solve_dimension_mismatch():
    with pytest.raises(ValueError):
        solve_linear([[1, 2]], 2, [1, 2])


@st.composite
def int_matrices(draw, maxn=7, ncols=None):
    n = draw(st.integers(1, maxn))
    m = ncols or draw(st.integers(1, maxn))
    rows = draw(
        st.lists(
            st.lists(st.integers(-9, 9), min_size=m, max_size=m),
            min_size=n,
            max_size=n,
        )
    )
    return rows


def _rank_fraction_gauss(rows):
    a = [[Q(x) for x in r] for r in rows]
    n, m = len(a), len(a[0])
    r = 0
    for col in range(m):
        piv = next((i for i in range(r, n) if a[i][col] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(r + 1, n):
            f = a[i][col] / a[r][col]
            a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
    return r


@given(int_matrices())
@settings(max_examples=120, deadline=None)
def test_bareiss_agrees_with_fraction_gauss(rows):
    expected = _rank_fraction_gauss(rows)
    assert rank_int_rows(rows, len(rows[0])) == expected


# entries that stress reduction mod P: multiples of P, values near them, and
# entries of about 100 bits
_mod_p_entries = st.one_of(
    st.integers(-9, 9),
    st.integers(-3, 3).map(lambda k: k * P),
    st.integers(-3, 3).map(lambda k: k * P + 1),
    st.integers(-(2**100), 2**100),
)


@st.composite
def mod_p_matrices(draw, maxn=7, ncols=None):
    n = draw(st.integers(1, maxn))
    m = ncols or draw(st.integers(1, maxn))
    rows = draw(st.lists(st.lists(_mod_p_entries, min_size=m, max_size=m), min_size=n, max_size=n))
    # a row combination keeps some inputs rank deficient over Q
    if n >= 2 and draw(st.booleans()):
        c = draw(st.sampled_from([1, -2, P, 2**64]))
        rows[-1] = [a + c * b for a, b in zip(rows[0], rows[1])]
    return rows


@st.composite
def stacks(draw, matrices, maxn=7):
    """1 to 6 matrices with one column count and mixed row counts."""
    m = draw(st.integers(1, maxn))
    return draw(st.lists(matrices(maxn=maxn, ncols=m), min_size=1, max_size=6))


def stack_residues(mats):
    """The matrices reduced mod P and zero-padded to one (B, n, m) stack."""
    n, m = max(len(rows) for rows in mats), len(mats[0][0])
    return np.stack([residues(rows + [[0] * m] * (n - len(rows)), m) for rows in mats])


@given(stacks(mod_p_matrices))
@settings(max_examples=120, deadline=None)
def test_rank_lower_bound_never_exceeds_exact_rank(mats):
    ranks = rank_mod_p(stack_residues(mats))
    assert len(ranks) == len(mats)
    assert all(r <= rank_int_rows(rows, len(rows[0])) for r, rows in zip(ranks, mats))


@given(stacks(int_matrices, maxn=6))
@settings(max_examples=120, deadline=None)
def test_rank_lower_bound_exact_when_minors_are_below_p(mats):
    # Hadamard: a minor is at most the product of its rows' norms, and a
    # nonzero minor below P cannot vanish mod P
    for rows in mats:
        assert prod(max(1, sum(a * a for a in row)) for row in rows) < P * P
    assert rank_mod_p(stack_residues(mats)) == [rank_int_rows(rows, len(rows[0])) for rows in mats]


def test_rank_lower_bound_strict_on_the_prime():
    assert rank_mod_p(residues([[P]], 1)[None]) == [0]
    assert rank_int_rows([[P]], 1) == 1
    # a column of P's, and of its multiples, is 0 mod P
    assert rank_mod_p(residues([[P], [2 * P], [-P]], 1)[None]) == [0]


def test_stacked_rank_edge_cases():
    assert rank_mod_p(np.zeros((2, 3, 0), dtype=np.int64)) == [0, 0]
    assert rank_mod_p(np.zeros((2, 0, 3), dtype=np.int64)) == [0, 0]
    assert rank_mod_p(np.zeros((0, 3, 3), dtype=np.int64)) == []
    assert rank_mod_p(residues([[1, 2], [2, 4]], 2)[None]) == [1]
    assert rank_mod_p(residues([[1], [2], [0], [5], [3]], 1)[None]) == [1]  # tall
    # square 5 x 5 (no transpose): full rank reached at different rows, zero
    # rows first and between, pivots out of column order, and a dependent row
    # after full rank
    mats = [
        [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0], [1, 1, 1, 1, 0]],
        [[0, 0, 0, 0, 0], [1, 1, 0, 0, 0], [0, 0, 0, 0, 0], [2, 2, 0, 0, 0], [0, 0, 0, 1, 0]],
        [[0, 0, 0, 1, 0], [0, 0, 1, 0, 0], [0, 1, 0, 0, 0], [1, 0, 0, 0, 0], [0, 0, 0, 0, 0]],
        [[1, 2, 3, 4, 0], [2, 3, 4, 5, 0], [3, 4, 5, 7, 0], [3, 5, 7, 9, 0], [P - 1, 0, 0, P - 1, 0]],
        [[0, 0, 0, 0, 0]] * 5,
    ]
    expected = [rank_int_rows([[v % P for v in row] for row in rows], 5) for rows in mats]
    assert expected == [4, 2, 4, 4, 0]
    assert rank_mod_p(stack_residues(mats)) == expected
    for rows, r in zip(mats, expected):
        assert rank_mod_p(residues(rows, 5)[None]) == [r]


def _rank_gf_p(rows) -> int:
    """Rank over GF(P) by Gaussian elimination in Python ints, the reference for `rank_mod_p`."""
    rows, rank = [[v % P for v in row] for row in rows], 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], -1, P)
        for r in range(rank + 1, len(rows)):
            f = rows[r][col] * inv % P
            rows[r] = [(a - f * b) % P for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


@pytest.mark.parametrize("n", [12, 16, 23, 29, 34, 40])
def test_rank_mod_p_with_delayed_folds_equals_python_elimination(n):
    # n rows, so several folds, each after four updates, and entries in [P - 2**10, P)
    # with planted dependent rows:
    # - random entries, some rows repeating an earlier row, which must end exactly 0;
    # - the staircase L U, L unit lower triangular with 1s below the diagonal and row i of
    #   U equal to -1 from column i on, but 0 on every sixth row.  Eliminating it reads
    #   back every multiplier -1 and every pivot row entry -1, so each update adds the
    #   largest product, (P - 1)**2.  Row 5 equals row 4, and ends 0 only if the update at
    #   step 4, the fifth, does not wrap: with no fold after the fourth it would.
    # A low-rank product A B mod P plants dependences among residues spread over [0, P).
    rng = random.Random(n)
    m = rng.randint(n, 40)
    mats = []
    for _ in range(2):
        rows = [[rng.randrange(P - (1 << 10), P) for _ in range(m)] for _ in range(n)]
        for r in rng.sample(range(1, n), n // 3):
            rows[r] = list(rows[rng.randrange(r)])
        mats.append(rows)
    live = [i for i in range(n) if i % 6 != 5]
    mats.append([[P - sum(i <= min(j, k) for i in live) for j in range(m)] for k in range(n)])
    k = rng.randint(1, n - 1)
    left = [[rng.randrange(P) for _ in range(k)] for _ in range(n)]
    right = [[rng.randrange(P - (1 << 10), P) for _ in range(m)] for _ in range(k)]
    mats.append([[sum(x * y for x, y in zip(row, col)) % P for col in zip(*right)] for row in left])
    expected = [_rank_gf_p(rows) for rows in mats]
    assert all(r < n for r in expected[2:])
    assert rank_mod_p(np.array(mats, dtype=np.int64)) == expected


@pytest.mark.parametrize("b", [1, 3, 5, 25])
def test_rank_mod_p_with_matrices_missing_a_pivot_equals_python_elimination(b):
    # At steps 0, 3 and the last one, the even-numbered matrices have no pivot: the row is
    # zero there, or at step 3 a repeat of an earlier row.  So a step's pivot list has a zero
    # first and last, and for B = 5 and 25 in the middle too; the pivots of the odd-numbered
    # matrices share one inversion per step, which must skip the zeros.
    rng = random.Random(b)
    n, m = 7, 9
    mats = []
    for d in range(b):
        rows = [[rng.randrange(P - (1 << 10), P) for _ in range(m)] for _ in range(n)]
        if d % 2 == 0:
            rows[0] = [0] * m
            rows[3] = list(rows[1])
            rows[n - 1] = [0] * m
        mats.append(rows)
    expected = [_rank_gf_p(rows) for rows in mats]
    assert expected[0] == n - 3 and (b == 1 or expected[1] == n)
    assert rank_mod_p(np.array(mats, dtype=np.int64)) == expected


@pytest.mark.parametrize("vs", [[5], [0], [0, 0, 0], [0, 2, 3], [2, 0, 3], [2, 3, 0],
                                [P - 1, 1, 0, P - 2, 0, 7] * 4])
def test_negated_inverses_are_one_per_nonzero_residue(vs):
    assert _negated_inverses(vs) == [P - pow(v, -1, P) if v else 0 for v in vs]


@pytest.mark.parametrize("entry", [-1, -P, P, 1 << 62])
def test_rank_mod_p_ranks_entries_outside_the_residues_as_their_residues(entry):
    # rank_mod_p reduces its stack itself, so only the entry's residue r shows
    r = entry % P
    a = np.zeros((2, 3, 4), dtype=np.int64)
    a[1, 2, 0] = entry
    assert rank_mod_p(a) == [0, int(r != 0)]
    pairs = np.array([[[entry, 1], [r, 1]], [[entry, 1], [r + 1, 1]]], dtype=np.int64)
    assert rank_mod_p(pairs) == [1, 2]
    tall = np.array([[[entry, 1], [r, 1], [r, 1]]], dtype=np.int64)
    assert rank_mod_p(tall) == [1]


@given(int_matrices())
@settings(max_examples=80, deadline=None)
def test_rank_nullity(rows):
    ncols = len(rows[0])
    assert rank_int_rows(rows, ncols) + len(kernel_basis_int(rows, ncols)[0]) == ncols


@given(int_matrices())
@settings(max_examples=80, deadline=None)
def test_kernel_vectors_annihilate(rows):
    for v in kernel_basis_int(rows, len(rows[0]))[0]:
        for row in rows:
            assert sum(c * x for c, x in zip(row, v)) == 0


@given(int_matrices(maxn=5), st.lists(st.integers(-5, 5), min_size=1, max_size=5))
@settings(max_examples=80, deadline=None)
def test_solve_substitution(rows, b):
    b = (b * 5)[: len(rows)]
    sol = solve_linear(rows, len(rows[0]), b)
    if sol is not None:
        num, den = sol
        for row, be in zip(rows, b):
            assert sum(c * v for c, v in zip(row, num)) == den * be


def _in_column_span(rows, b):
    return rank_int_rows([list(r) + [be] for r, be in zip(rows, b)], len(rows[0]) + 1) == \
        rank_int_rows(rows, len(rows[0]))


# entries up to 2**40 make the Bareiss pivots, and so the denominators, large
_kernel_entries = st.one_of(st.integers(-9, 9), st.integers(-(2**40), 2**40))


@given(
    st.integers(1, 6).flatmap(lambda m: st.tuples(
        st.lists(st.lists(_kernel_entries, min_size=m, max_size=m), min_size=1, max_size=6),
        st.lists(st.integers(-9, 9), min_size=6, max_size=6),
        st.booleans(),
    ))
)
@settings(max_examples=150, deadline=None)
def test_integer_kernel_and_solve(data):
    rows, b, dependent = data
    ncols = len(rows[0])
    if dependent and len(rows) >= 2:
        rows[-1] = [x - 3 * y for x, y in zip(rows[0], rows[1])]
    basis, den = kernel_basis_int(rows, ncols)
    assert den > 0
    # one vector per free column, ncols - rank of them
    assert len(basis) == ncols - rank_int_rows(rows, ncols)
    # the free columns are those that do not raise the rank of the columns before them
    prefix = [rank_int_rows([r[:j] for r in rows], j) for j in range(ncols + 1)]
    free = [j for j in range(ncols) if prefix[j + 1] == prefix[j]]
    assert len(basis) == len(free)
    for v, f in zip(basis, free):
        assert all(isinstance(x, int) for x in v)
        # rows . v = 0 in integers
        assert all(sum(c * x for c, x in zip(row, v)) == 0 for row in rows)
        # v reads den on its own free column and 0 on the other free columns
        assert [v[g] for g in free] == [den * (g == f) for g in free]
    b = b[: len(rows)]
    sol = solve_linear(rows, ncols, b)
    if sol is None:
        assert not _in_column_span(rows, b)
    else:
        num, d = sol
        assert d != 0 and all(isinstance(x, int) for x in num)
        assert all(sum(c * x for c, x in zip(row, num)) == d * be for row, be in zip(rows, b))


def test_rank_row_order_independent():
    rows = [[1, 2, 3], [0, 1, 1], [1, 3, 4], [2, 0, 1]]
    r = rank_int_rows([r[:] for r in rows], 3)
    assert r == rank_int_rows([rows[i][:] for i in (2, 0, 3, 1)], 3)


def test_negative_definite():
    assert is_negative_definite([[-2, 1], [1, -2]])
    assert not is_negative_definite([[2, 0], [0, -1]])
    assert not is_negative_definite([[-1, 2], [2, -1]])
