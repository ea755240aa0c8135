from fractions import Fraction as Q
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from orbitatlas.linalg import (
    RationalMatrix,
    is_negative_definite,
    kernel_basis,
    rank_int_rows,
    rank_lower_bound,
    rank_rational,
    solve_linear,
)

P = 2**31 - 1


def test_rank_identity():
    assert rank_rational(RationalMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == 3


def test_rank_zero():
    assert rank_rational(RationalMatrix([[0, 0], [0, 0]])) == 0


def test_rank_proportional_rows():
    assert rank_rational(RationalMatrix([[1, 2], [2, 4], [3, 6]])) == 1


def test_kernel_identity_empty():
    assert kernel_basis(RationalMatrix([[1, 0], [0, 1]])) == []


def test_kernel_symmetry():
    (v,) = kernel_basis(RationalMatrix([[1, -1]]))
    assert v == (Q(1), Q(1))


def test_kernel_zero_matrix():
    assert len(kernel_basis(RationalMatrix([[0, 0, 0]] * 3))) == 3


def test_solve_identity():
    m = RationalMatrix([[1, 0], [0, 1]])
    assert solve_linear(m, [Q(3), Q(-2, 7)]) == (Q(3), Q(-2, 7))


def test_solve_underdetermined_verifies():
    m = RationalMatrix([[1, 1]])
    x = solve_linear(m, [2])
    assert x is not None and x[0] + x[1] == 2


def test_solve_inconsistent():
    assert solve_linear(RationalMatrix([[1], [1]]), [0, 1]) is None


def test_solve_dimension_mismatch():
    with pytest.raises(ValueError):
        solve_linear(RationalMatrix([[1, 2]]), [1, 2])


@st.composite
def int_matrices(draw, maxn=7):
    n = draw(st.integers(1, maxn))
    m = draw(st.integers(1, maxn))
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
def mod_p_matrices(draw, maxn=7):
    n = draw(st.integers(1, maxn))
    m = draw(st.integers(1, maxn))
    rows = draw(st.lists(st.lists(_mod_p_entries, min_size=m, max_size=m), min_size=n, max_size=n))
    # a row combination keeps some inputs rank deficient over Q
    if n >= 2 and draw(st.booleans()):
        c = draw(st.sampled_from([1, -2, P, 2**64]))
        rows[-1] = [a + c * b for a, b in zip(rows[0], rows[1])]
    return rows


@given(mod_p_matrices())
@settings(max_examples=120, deadline=None)
def test_rank_lower_bound_never_exceeds_exact_rank(rows):
    assert rank_lower_bound(rows, len(rows[0])) <= rank_int_rows(rows, len(rows[0]))


@given(int_matrices(maxn=6))
@settings(max_examples=120, deadline=None)
def test_rank_lower_bound_exact_when_minors_are_below_p(rows):
    # Hadamard: a minor is at most the product of its rows' norms, and a
    # nonzero minor below P cannot vanish mod P
    assert prod(max(1, sum(a * a for a in row)) for row in rows) < P * P
    assert rank_lower_bound(rows, len(rows[0])) == rank_int_rows(rows, len(rows[0]))


def test_rank_lower_bound_strict_on_the_prime():
    assert rank_lower_bound([[P]], 1) == 0
    assert rank_int_rows([[P]], 1) == 1


@given(int_matrices())
@settings(max_examples=80, deadline=None)
def test_rank_nullity(rows):
    m = RationalMatrix(rows)
    assert rank_rational(m) + len(kernel_basis(m)) == m.cols


@given(int_matrices())
@settings(max_examples=80, deadline=None)
def test_kernel_vectors_annihilate(rows):
    m = RationalMatrix(rows)
    for v in kernel_basis(m):
        for row in rows:
            assert sum(Q(c) * x for c, x in zip(row, v)) == 0


@given(int_matrices(maxn=5), st.lists(st.integers(-5, 5), min_size=1, max_size=5))
@settings(max_examples=80, deadline=None)
def test_solve_substitution(rows, b):
    b = (b * 5)[: len(rows)]
    m = RationalMatrix(rows)
    x = solve_linear(m, b)
    if x is not None:
        for row, be in zip(rows, b):
            assert sum(Q(c) * v for c, v in zip(row, x)) == be


def test_rank_row_order_independent():
    rows = [[1, 2, 3], [0, 1, 1], [1, 3, 4], [2, 0, 1]]
    r = rank_int_rows([r[:] for r in rows], 3)
    assert r == rank_int_rows([rows[i][:] for i in (2, 0, 3, 1)], 3)


def test_negative_definite():
    assert is_negative_definite([[-2, 1], [1, -2]])
    assert not is_negative_definite([[2, 0], [0, -1]])
    assert not is_negative_definite([[-1, 2], [2, -1]])
