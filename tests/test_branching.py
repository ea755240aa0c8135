from fractions import Fraction

import numpy as np
import pytest

from orbitatlas.branching import (
    BranchComponent,
    BranchingResult,
    branch_adjoint,
    restriction_matrix,
    weight_multiplicities,
)
from orbitatlas import branching
from orbitatlas.linalg import kernel_basis_int
from orbitatlas.roots import build_root_system, identify_subsystem, root_centralizer_subsystem


def adjoint_hw(rs):
    return rs.pairings[rs.root_index[rs.highest_root]]


def adjoint_table(rs):
    """The adjoint representation's weight table: each root once, and zero `rank` times."""
    table = {rs.pairings[rs.root_index[g]]: 1 for g in rs.all_roots}
    table[(0,) * rs.rank] = rs.rank
    return table


def test_A1_adjoint_weights():
    rs = build_root_system("A1")
    t = weight_multiplicities(rs, (2,))
    assert t.entries == {(2,): 1, (0,): 1, (-2,): 1}


def test_A2_adjoint():
    rs = build_root_system("A2")
    t = weight_multiplicities(rs, (1, 1))
    assert t.dimension == 8
    assert t.entries[(0, 0)] == 2
    assert sum(1 for m in t.entries.values() if m == 1) == 6


def test_G2_adjoint():
    rs = build_root_system("G2")
    t = weight_multiplicities(rs, adjoint_hw(rs))
    assert t.dimension == 14
    assert t.entries[(0, 0)] == 2


SIMPLE_TYPES = (
    [f"A{n}" for n in range(1, 9)] + [f"B{n}" for n in range(2, 9)]
    + [f"C{n}" for n in range(3, 9)] + [f"D{n}" for n in range(4, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)


@pytest.mark.parametrize("name", SIMPLE_TYPES)
def test_adjoint_zero_weight_is_rank(name):
    # the whole adjoint table: each root's weight once, and zero rank times
    rs = build_root_system(name)
    expected = {rs.pairings[rs.root_index[r]]: 1 for r in rs.all_roots}
    expected[(0,) * rs.rank] = rs.rank
    t = weight_multiplicities(rs, adjoint_hw(rs))
    assert t.entries == expected
    assert t.dimension == rs.dimension


@pytest.mark.parametrize("name", SIMPLE_TYPES)
def test_freudenthal_gives_the_adjoint_table_branching_reads(name):
    # the oracle peel below starts from the adjoint table; Freudenthal stays checked against it
    rs = build_root_system(name)
    assert weight_multiplicities(rs, adjoint_hw(rs)).entries == adjoint_table(rs)


def test_weyl_invariance_spot_check():
    rs = build_root_system("C3")
    t = weight_multiplicities(rs, (1, 0, 1))
    for w, m in t.entries.items():
        for j in range(rs.rank):
            refl = tuple(
                w[k] - w[j] * rs.cartan_matrix[k][j] for k in range(rs.rank)
            )
            assert t.entries.get(refl) == m


@pytest.mark.parametrize("name,hw,dim,zero", [
    ("G2", (2, 0), 27, 3),
    ("G2", (0, 1), 14, 2),
    ("F4", (0, 0, 0, 1), 26, 2),
    ("C3", (0, 1, 0), 14, 2),
    ("C3", (1, 0, 1), 70, 4),
])
def test_non_simply_laced_tables(name, hw, dim, zero):
    # symmetrizers d_i != 1 enter every pairing of the recursion
    rs = build_root_system(name)
    t = weight_multiplicities(rs, hw)
    assert t.dimension == dim
    assert t.entries[(0,) * rs.rank] == zero
    for w, m in t.entries.items():
        for j in range(rs.rank):
            refl = tuple(w[k] - w[j] * rs.cartan_matrix[k][j] for k in range(rs.rank))
            assert t.entries.get(refl) == m


def test_non_dominant_rejected():
    rs = build_root_system("A2")
    with pytest.raises(ValueError):
        weight_multiplicities(rs, (1, -1))


@pytest.mark.parametrize("hw", [(1.5, 0), ("1", 0), (1.0, 0)])
def test_non_integral_highest_weight_rejected(hw):
    # int() would truncate 1.5 and parse "1", returning V(1, 0)
    with pytest.raises(ValueError, match="not integral"):
        weight_multiplicities(build_root_system("A2"), hw)


def test_numpy_integer_highest_weight_accepted():
    t = weight_multiplicities(build_root_system("A2"), np.array([1, 0]))
    assert t.highest_weight == (1, 0) and t.dimension == 3


def test_restriction_full_system_identity_like():
    rs = build_root_system("A2")
    simples = [(1, 0), (0, 1)]
    r = restriction_matrix(rs, simples)
    assert [list(row) for row in r] == [[1, 0], [0, 1]]


def test_restriction_A2_to_A1():
    rs = build_root_system("A2")
    r = restriction_matrix(rs, [(1, 0)])
    # alpha_2 has fundamental coordinates (-1, 2); <alpha_2, alpha_1^vee> = -1
    alpha2_fund = tuple(rs.cartan_matrix[i][1] for i in range(2))
    assert sum(r[0][i] * v for i, v in enumerate(alpha2_fund)) == -1


def test_restriction_rejects_dependent():
    rs = build_root_system("A2")
    with pytest.raises(ValueError):
        restriction_matrix(rs, [(1, 0), (-1, 0)])


def test_branch_A1_to_itself():
    rs = build_root_system("A1")
    br = branch_adjoint(rs, [(1,)])
    assert len(br.components) == 1
    assert br.components[0].highest_weight == (2,)


def test_branch_to_full_system_is_identity():
    for name in ("A2", "B2", "G2"):
        rs = build_root_system(name)
        simples = [
            tuple(1 if j == i else 0 for j in range(rs.rank)) for i in range(rs.rank)
        ]
        br = branch_adjoint(rs, simples)
        assert len(br.components) == 1
        assert br.components[0].multiplicity == 1
        assert br.components[0].dimension == rs.dimension


def test_branch_G2_to_long_A2():
    rs = build_root_system("G2")
    longs = [r for r in rs.positive_roots if rs.lengths[rs.root_index[r]] == 3]
    lset = set(longs)
    simples = [
        r for r in longs
        if not any(tuple(a - b for a, b in zip(r, s)) in lset for s in longs if s != r)
    ]
    br = branch_adjoint(rs, simples)
    dims = sorted(c.dimension * c.multiplicity for c in br.components)
    assert dims == [3, 3, 8]
    assert br.total_dimension == 14
    assert br == peel(rs, simples)


def test_branch_A2_to_A1_plus_torus():
    rs = build_root_system("A2")
    br = branch_adjoint(rs, [(1, 0)])
    dims = sorted(c.dimension for c in br.components)
    assert dims == [1, 2, 2, 3]
    # the two doublets carry opposite nonzero torus charges
    two = [c for c in br.components if c.dimension == 2]
    assert two[0].torus_charge == tuple(-q for q in two[1].torus_charge)
    assert any(q != 0 for q in two[0].torus_charge)


@pytest.mark.parametrize(
    "name,marks",
    [("B3", [0, 1, 0]), ("F4", [1, 0, 0, 0]), ("E6", [1, 0, 0, 0, 0, 0])],
)
def test_branch_dimension_conservation(name, marks):
    rs = build_root_system(name)
    sub = root_centralizer_subsystem(rs, marks)
    br = branch_adjoint(rs, sub.simple_roots)
    assert br.total_dimension == rs.dimension


def test_branch_E8_fig1_pipeline():
    rs = build_root_system("E8")
    sub = root_centralizer_subsystem(rs, [1, 0, 0, 0, 0, 0, 0, 0])
    assert str(sub.cartan_type) == "D7"
    # subalgebra dimension plus torus equals the centralizer dimension of h
    assert len(sub.roots) + (rs.rank - sub.torus_dim) + sub.torus_dim == 92
    br = branch_adjoint(rs, sub.simple_roots)
    assert br.total_dimension == 248
    mults = sorted(c.dimension for c in br.components)
    assert mults == [1, 14, 14, 64, 64, 91]


def test_A2_V22():
    t = weight_multiplicities(build_root_system("A2"), (2, 2))
    assert t.dimension == 27
    assert t.entries[(0, 0)] == 3


@pytest.mark.parametrize(
    "name,hw,dim", [("E6", (1, 0, 0, 0, 0, 0), 27), ("B3", (0, 0, 1), 8)]
)
def test_minuscule_tables(name, hw, dim):
    t = weight_multiplicities(build_root_system(name), hw)
    assert t.dimension == dim
    assert len(t.entries) == dim
    assert set(t.entries.values()) == {1}


def test_branch_E7_node7_is_E6_plus_torus():
    rs = build_root_system("E7")
    sub = root_centralizer_subsystem(rs, [0, 0, 0, 0, 0, 0, 1])
    assert str(sub.cartan_type) == "E6" and sub.torus_dim == 1
    br = branch_adjoint(rs, sub.simple_roots)
    assert sorted(c.dimension for c in br.components) == [1, 27, 27, 78]
    charges = sorted(c.torus_charge for c in br.components if c.dimension == 27)
    assert charges == [(Fraction(-2, 3),), (Fraction(2, 3),)]


def test_dimension_check_raises(monkeypatch):
    monkeypatch.setattr(branching, "weyl_dimension", lambda rs, hw: 9)
    with pytest.raises(ArithmeticError, match="dimension check failed"):
        weight_multiplicities(build_root_system("A2"), (1, 1))


def test_branch_conservation_check_raises(monkeypatch):
    # a raise, not an assert, so that it also runs under python -O
    monkeypatch.setattr(branching, "weyl_dimension", lambda rs, hw: 1)
    with pytest.raises(ArithmeticError, match="dimension conservation failed"):
        branch_adjoint(build_root_system("A2"), [(1, 0)])


_TABLES = {}


def peel(rs, subsystem):
    """Branching by restricted-weight bookkeeping, the oracle for branch_adjoint.

    Restrict the adjoint table, then repeatedly take the highest remaining key
    and subtract its component's Freudenthal weight table.
    """
    ctype, ordered = identify_subsystem(rs, [tuple(b) for b in subsystem])
    sub_rs = build_root_system(ctype)
    rows = restriction_matrix(rs, ordered)
    pair_rows = [list(rs.pairings[rs.root_index[b]]) for b in ordered]
    torus, tden = kernel_basis_int(pair_rows, rs.rank)
    remaining = {}
    for w, m in adjoint_table(rs).items():
        key = (
            tuple(sum(a * b for a, b in zip(row, w)) for row in rows),
            tuple(Fraction(sum(a * b for a, b in zip(t, w)), tden) for t in torus),
        )
        remaining[key] = remaining.get(key, 0) + m
    # <w, 2 rho^vee>, with 2 rho^vee the sum of the positive coroots
    two_rho = [sum(col) for col in zip(*sub_rs.coroots[:sub_rs.num_positive])]
    components = []
    while any(remaining.values()):
        hw, ch = max((k for k, m in remaining.items() if m),
                     key=lambda k: (sum(a * b for a, b in zip(two_rho, k[0])), k))
        mult = remaining[hw, ch]
        assert mult > 0 and min(hw) >= 0
        if (str(ctype), hw) not in _TABLES:
            _TABLES[str(ctype), hw] = weight_multiplicities(sub_rs, hw)
        tbl = _TABLES[str(ctype), hw]
        for w, m in tbl.entries.items():
            remaining[w, ch] -= mult * m
            assert remaining[w, ch] >= 0
        components.append(BranchComponent(str(ctype), hw, ch, mult, tbl.dimension))
    return BranchingResult(tuple(components), rs.dimension)


ORACLE_TYPES = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D4", "G2", "F4",
                "E6", "A2xG2"]


@pytest.mark.parametrize("name", ORACLE_TYPES)
def test_branch_matches_the_freudenthal_peel(name):
    # every node subset S, given as nodes and as the {0,1}-marks centralizer
    # with zeros on S (the all-ones marks centralize no root), in component order
    rs = build_root_system(name)
    n = rs.rank
    for bits in range(1, 2 ** n):
        nodes = [tuple(int(j == i) for j in range(n)) for i in range(n) if bits >> i & 1]
        marks = [0 if bits >> i & 1 else 1 for i in range(n)]
        # the two orders of the same simple roots may identify a chain reversed
        for simples in (nodes, root_centralizer_subsystem(rs, marks).simple_roots):
            assert branch_adjoint(rs, simples) == peel(rs, simples)

