from fractions import Fraction as Q

import pytest

from orbitatlas import sl2
from orbitatlas.chevalley import build_algebra
from orbitatlas.linalg import RationalMatrix
from orbitatlas.orbits import (
    Partition,
    minimal_orbit,
    next_to_minimal,
    representative,
    weighted_diagram,
)
from orbitatlas.roots import CartanElement, coweight_element
from orbitatlas.sl2 import (
    commutant_dim,
    complete_triple,
    isotypic_decomposition,
    sl2_data_for_diagram,
    triple_centralizer,
    w_isotypic_action,
)


def test_complete_triple_sl2():
    a = build_algebra("A1")
    x = a.root_vector((1,))
    t = complete_triple(a, x, coweight_element(a.rs, [2]))
    assert t.y == a.root_vector((-1,))


def test_complete_triple_rejects_wrong_grade():
    a = build_algebra("A1")
    x = a.root_vector((1,))
    with pytest.raises(ValueError):
        complete_triple(a, x, coweight_element(a.rs, [0]))


def test_triple_relations_exact():
    for t, p in [("A3", (2, 2)), ("B3", (3, 1, 1, 1, 1)), ("C3", (2, 2, 1, 1))]:
        a = build_algebra(t)
        w = weighted_diagram(t, Partition(p))
        x = representative(a, w)
        tr = complete_triple(a, x, coweight_element(a.rs, w.marks))
        assert a.bracket(tr.x, tr.y) == tr.h
        assert a.bracket(tr.h, tr.x) == tr.x.scale(2)
        assert a.bracket(tr.h, tr.y) == tr.y.scale(-2)


def test_regular_triple_centralizer_trivial():
    a = build_algebra("A1")
    t = complete_triple(a, a.root_vector((1,)), coweight_element(a.rs, [2]))
    _, dim = triple_centralizer(a, t)
    assert dim == 0


def test_A2_minimal_centralizer_dim_one():
    a = build_algebra("A2")
    t, d = sl2_data_for_diagram(a, weighted_diagram("A2", Partition((2, 1))))
    _, dim = triple_centralizer(a, t)
    assert dim == 1


def test_A1_regular_decomposition():
    a = build_algebra("A1")
    t = complete_triple(a, a.root_vector((1,)), coweight_element(a.rs, [2]))
    d = isotypic_decomposition(a, t)
    assert d.k_dim == 0 and d.multiplicities == {} and d.w_dim == 0


def test_A2_regular_decomposition():
    # su(3) = su(2) + [S^4], W = [S^2] of dimension 3
    a = build_algebra("A2")
    t, d = sl2_data_for_diagram(a, weighted_diagram("A2", Partition((3,))))
    assert d.k_dim == 0
    assert d.multiplicities == {4: 1}
    assert d.w_dim == 3


def test_bookkeeping_identity():
    for t, p in [("A4", (2, 2, 1)), ("C3", (2, 2, 1, 1)), ("D4", (3, 1, 1, 1, 1, 1))]:
        a = build_algebra(t)
        tr, d = sl2_data_for_diagram(a, weighted_diagram(t, Partition(p)))
        assert 3 + d.k_dim + sum(m * (k + 1) for k, m in d.multiplicities.items()) == a.dim


def test_spectrum_symmetric():
    a = build_algebra("B3")
    tr, d = sl2_data_for_diagram(a, weighted_diagram("B3", Partition((3, 1, 1, 1, 1))))
    for k, n in d.graded_dims.items():
        assert d.graded_dims.get(-k) == n


def test_commutant_irreducible_so3():
    mats = [
        RationalMatrix([[0, 0, 0], [0, 0, -1], [0, 1, 0]]),
        RationalMatrix([[0, 0, 1], [0, 0, 0], [-1, 0, 0]]),
        RationalMatrix([[0, -1, 0], [1, 0, 0], [0, 0, 0]]),
    ]
    assert commutant_dim(mats) == 1


def test_commutant_trivial_action():
    assert commutant_dim([RationalMatrix([[0, 0], [0, 0]])]) == 4


def test_commutant_complex_type():
    assert commutant_dim([RationalMatrix([[0, -1], [1, 0]])]) == 2


def test_G2_ntm_w_block():
    a = build_algebra("G2")
    t, d = sl2_data_for_diagram(a, next_to_minimal("G2")[0].diagram)
    assert d.k_dim == 3 and d.w_dim == 4
    kb, _ = triple_centralizer(a, t)
    blocks = w_isotypic_action(a, t, kb)
    assert len(blocks) == 1
    k, mats, dim = blocks[0]
    assert (k, dim) == (3, 2)
    assert commutant_dim(mats) == 1


def test_E6_ntm_quick():
    a = build_algebra("E6")
    t, d = sl2_data_for_diagram(a, next_to_minimal("E6")[0].diagram)
    kb, kd = triple_centralizer(a, t)
    assert kd == 22  # so(2) + so(7)
    assert d.w_dim == 7


def test_triple_carries_its_integer_grading():
    a = build_algebra("B3")
    w = weighted_diagram("B3", Partition((3, 1, 1, 1, 1)))
    h = coweight_element(a.rs, w.marks)
    t = complete_triple(a, representative(a, w), h)
    assert t.grading[0][: a.rank] == list(range(a.rank))
    for k, idx in t.grading.items():
        assert idx == sorted(idx)
        for i in idx[a.rank if k == 0 else 0:]:
            assert a.rs.pair_root_cartan(a.rs.all_roots[i - a.rank], h) == k
    assert sum(len(v) for v in t.grading.values()) == a.dim


def test_graded_basis_rejects_fractional_eigenvalues():
    a = build_algebra("A2")
    with pytest.raises(ArithmeticError, match="not an integer"):
        sl2._graded_basis(a, CartanElement((Q(1, 2), Q(0))))  # marks (1, -1/2)


def test_wrong_partner_fails_the_triple_check(monkeypatch):
    a = build_algebra("A2")
    w = weighted_diagram("A2", Partition((3,)))
    x = representative(a, w)
    good = sl2.solve_linear
    monkeypatch.setattr(sl2, "solve_linear", lambda m, b: tuple(2 * c for c in good(m, b)))
    with pytest.raises(ArithmeticError, match=r"\[X, Y\] = H"):
        complete_triple(a, x, coweight_element(a.rs, w.marks))
