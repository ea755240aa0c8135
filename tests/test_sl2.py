import dataclasses
import hashlib
from fractions import Fraction as Q
from math import gcd

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from orbitatlas import sl2
from orbitatlas.chevalley import build_algebra
from orbitatlas.linalg import kernel_basis_int, rank_int_rows, solve_linear
from orbitatlas.orbits import (
    Partition,
    minimal_orbit,
    next_to_minimal,
    representative,
    weighted_diagram,
)
from orbitatlas.sl2 import (
    commutant_dim,
    complete_triple,
    isotypic_decomposition,
    triple_centralizer,
    w_isotypic_action,
)


def sl2_data_for_diagram(a, w, seed=0):
    """representative's triple and its decomposition, in one call."""
    t = representative(a, w, seed=seed)
    return t, isotypic_decomposition(a, t)


def test_complete_triple_sl2():
    a = build_algebra("A1")
    x = a.root_vector((1,))
    t = complete_triple(a, x, [2])
    assert t.y == a.root_vector((-1,))


def test_complete_triple_rejects_wrong_grade():
    a = build_algebra("A1")
    x = a.root_vector((1,))
    with pytest.raises(ValueError):
        complete_triple(a, x, [0])


def test_triple_relations_exact():
    for t, p in [("A3", (2, 2)), ("B3", (3, 1, 1, 1, 1)), ("C3", (2, 2, 1, 1))]:
        a = build_algebra(t)
        w = weighted_diagram(t, Partition(p))
        tr = representative(a, w)
        assert a.bracket(tr.x, tr.y) == tr.h
        assert a.bracket(tr.h, tr.x) == tr.x.scale(2)
        assert a.bracket(tr.h, tr.y) == tr.y.scale(-2)


def test_regular_triple_centralizer_trivial():
    a = build_algebra("A1")
    t = complete_triple(a, a.root_vector((1,)), [2])
    _, dim = triple_centralizer(a, t)
    assert dim == 0


def test_A2_minimal_centralizer_dim_one():
    a = build_algebra("A2")
    t, d = sl2_data_for_diagram(a, weighted_diagram("A2", Partition((2, 1))))
    _, dim = triple_centralizer(a, t)
    assert dim == 1


def test_A1_regular_decomposition():
    a = build_algebra("A1")
    t = complete_triple(a, a.root_vector((1,)), [2])
    d = isotypic_decomposition(a, t)
    assert d.k_dim == 0 and d.multiplicities == {} and d.w_dim == 0


def test_A2_regular_decomposition():
    # su(3) = su(2) + [S^4], W = [S^2] of dimension 3
    a = build_algebra("A2")
    t, d = sl2_data_for_diagram(a, weighted_diagram("A2", Partition((3,))))
    assert d.k_dim == 0
    assert d.multiplicities == {4: 1}
    assert d.w_dim == 3


def test_negative_isotypic_multiplicity_raises_arithmetic_error():
    # a grading with one vector in degree 3 and none in degree 1 reads A_1 = n_1 - n_3 = -1
    a = build_algebra("A1")
    t = complete_triple(a, a.root_vector((1,)), [2])
    bad = dataclasses.replace(t, grading={0: [0], 3: [1], -3: [2]})
    with pytest.raises(ArithmeticError, match="negative isotypic multiplicity"):
        isotypic_decomposition(a, bad)


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
        [[0, 0, 0], [0, 0, -1], [0, 1, 0]],
        [[0, 0, 1], [0, 0, 0], [-1, 0, 0]],
        [[0, -1, 0], [1, 0, 0], [0, 0, 0]],
    ]
    assert commutant_dim(mats) == 1


def test_commutant_trivial_action():
    assert commutant_dim([[[0, 0], [0, 0]]]) == 4


def test_commutant_complex_type():
    assert commutant_dim([[[0, -1], [1, 0]]]) == 2


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
    t = representative(a, w)
    assert t.marks == w.marks
    assert t.grading[0][: a.rank] == list(range(a.rank))
    for k, idx in t.grading.items():
        assert idx == sorted(idx)
        for i in idx[a.rank if k == 0 else 0:]:
            beta = a.rs.all_roots[i - a.rank]
            assert sum(b * m for b, m in zip(beta, w.marks)) == k
    assert sum(len(v) for v in t.grading.values()) == a.dim


def test_wrong_partner_fails_the_triple_check(monkeypatch):
    a = build_algebra("A2")
    w = weighted_diagram("A2", Partition((3,)))
    x = representative(a, w).x
    good = sl2.solve_linear
    monkeypatch.setattr(sl2, "solve_linear",
                        lambda *args: (tuple(2 * c for c in good(*args)[0]), good(*args)[1]))
    with pytest.raises(ArithmeticError, match=r"\[X, Y\] = H"):
        complete_triple(a, x, w.marks)


# ---------------------------------------------------------------------------
# commutant: mod-p reading of two combinations, exact fallback


def _commutant_reference(mats):
    """d^2 - rank of the stacked vec([M, B]) = (I (x) M - M^T (x) I) vec(B), by Bareiss."""
    d = len(mats[0])
    rows = []
    for mi in mats:
        for i in range(d):
            for j in range(d):
                # entry (i, j) of MB - BM, on B[k][l] at column k * d + l
                row = [0] * (d * d)
                for k in range(d):
                    row[k * d + j] += mi[i][k]
                for l in range(d):
                    row[i * d + l] -= mi[l][j]
                rows.append(row)
    return d * d - rank_int_rows(rows, d * d)


@st.composite
def action_matrices(draw):
    d = draw(st.integers(1, 4))
    count = draw(st.integers(1, 3))
    entries = st.lists(st.lists(st.integers(-9, 9), min_size=d, max_size=d), min_size=d, max_size=d)
    return [draw(entries) for _ in range(count)]


SO3 = [
    [[0, 0, 0], [0, 0, -1], [0, 1, 0]],
    [[0, 0, 1], [0, 0, 0], [-1, 0, 0]],
    [[0, -1, 0], [1, 0, 0], [0, 0, 0]],
]


@given(action_matrices())
@example(SO3)  # irreducible: the mod-p reading 1 is returned
@example([[[1, 0], [0, 2]]])  # reading 2: the exact fallback
# both fixed combinations are multiples of E11, so they read 2, but the span holds
# E11 and E12, whose commutant is the scalars: the fallback must correct the reading
@example([[[-2, -8], [0, 0]], [[0, 1], [0, 0]], [[1, 2], [0, 0]]])
# the first fixed combination is A = 0, which is derogatory, but the set generates M_2,
# whose commutant is the scalars: the fallback must answer 1
@example([[[0, 2], [0, 0]], [[0, -1], [0, 0]], [[0, 0], [4, 0]], [[0, 0], [-3, 0]]])
@settings(max_examples=150, deadline=None)
def test_commutant_dim_matches_bareiss_on_the_full_stack(mats):
    assert commutant_dim(mats) == _commutant_reference(mats)
    assert commutant_dim(np.array(mats, dtype=np.int64)) == commutant_dim(mats)


@pytest.mark.parametrize("bad", [
    [], np.zeros((0, 2, 2), dtype=np.int64),
    [[[1, 2]]], np.zeros((1, 1, 2), dtype=np.int64),
    [[[1]], [[1, 0], [0, 1]]], [np.eye(1, dtype=np.int64), np.eye(2, dtype=np.int64)],
], ids=["empty-lists", "empty-int64", "nonsquare-lists", "nonsquare-int64",
        "mixed-lists", "mixed-int64"])
def test_commutant_dim_rejects_malformed_stacks(bad):
    with pytest.raises(ValueError):
        commutant_dim(bad)


def test_commutant_dim_past_int64_raises_arithmetic_error():
    # 2**63 does not fit int64; an int64 array's -2**63 has that magnitude
    for mats in ([[[2**63]]], [[[0, 1], [-2**63, 0]]],
                 np.array([[[-2**63]]], dtype=np.int64), np.array([[[0, 1], [-2**63, 0]]])):
        with pytest.raises(ArithmeticError):
            commutant_dim(mats)


def _count_exact_ranks(monkeypatch):
    calls = []
    good = sl2.rank_int_rows
    monkeypatch.setattr(sl2, "rank_int_rows", lambda *a: calls.append(1) or good(*a))
    return calls


def test_commutant_reading_one_needs_no_exact_rank(monkeypatch):
    calls = _count_exact_ranks(monkeypatch)
    assert commutant_dim(SO3) == 1
    assert calls == []


def test_certified_commutant_ranks_one_stack_of_one_matrix(monkeypatch):
    # r_comm = d - 1 forces r_pow = d, so the powers are never ranked
    shapes = []
    good = sl2.rank_mod_p
    monkeypatch.setattr(sl2, "rank_mod_p", lambda m: shapes.append(m.shape) or good(m))
    assert commutant_dim(SO3) == 1
    assert shapes == [(1, 3, 9)]


def test_commutant_reading_above_one_falls_back_to_exact(monkeypatch):
    calls = _count_exact_ranks(monkeypatch)
    assert commutant_dim([[[0, -1], [1, 0]]]) == 2
    assert calls == [1]


def test_every_table1_w_block_is_certified_or_makes_one_exact_rank(monkeypatch):
    from orbitatlas.classify import TABLE1_TYPES

    rows = []
    for tname in TABLE1_TYPES:
        a = build_algebra(tname)
        for lab in next_to_minimal(tname):
            t = representative(a, weighted_diagram(tname, lab))
            kb, _ = triple_centralizer(a, t)
            rows.append((tname, [mats for _, mats, _ in w_isotypic_action(a, t, kb)]))
    assert len(rows) == 20
    calls = _count_exact_ranks(monkeypatch)
    for tname, blocks in rows:
        for mats in filter(len, blocks):
            calls.clear()
            # the non-derogatory certificate reads 1; C2-C4's reading 2 is the exact fallback's
            want = (2, [1]) if tname[0] == "C" else (1, [])
            assert (commutant_dim(mats), calls) == want, tname


# ---------------------------------------------------------------------------
# W-block action: read-off coordinates against solves


def _ntm_triple(tname):
    a = build_algebra(tname)
    t, _ = sl2_data_for_diagram(a, weighted_diagram(tname, next_to_minimal(tname)[0]))
    kb, _ = triple_centralizer(a, t)
    return a, t, kb


@pytest.mark.parametrize("tname", ["G2", "B3", "F4", "E6"])
def test_k_rows_centralize_the_triple_by_python_int_brackets(tname):
    a, t, _ = _ntm_triple(tname)
    kb, dim = triple_centralizer(a, t)
    g0 = t.grading[0]
    assert kb.dtype == np.int64 and kb.shape == (dim, len(g0))
    for row in kb.tolist():
        assert gcd(*row) == 1  # reduced as an AlgebraElement would be
        u = [0] * a.dim
        for b, c in zip(g0, row):
            u[b] = c
        assert not any(a.bracket_vec(u, t.x.num)) and not any(a.bracket_vec(u, t.y.num))
    assert rank_int_rows(kb.tolist(), len(g0)) == dim


def test_each_w_block_is_one_ad_ints_gather_and_k_builds_no_element(monkeypatch):
    a = build_algebra("E7")
    t, _ = sl2_data_for_diagram(a, weighted_diagram("E7", next_to_minimal("E7")[0]))
    embeds, good_embed = [], sl2._embed
    monkeypatch.setattr(sl2, "_embed", lambda *args: embeds.append(1) or good_embed(*args))
    kb, _ = triple_centralizer(a, t)
    assert embeds == []
    calls, good = [], a.ad_ints
    monkeypatch.setattr(a, "ad_ints", lambda *args: calls.append(1) or good(*args))
    blocks = w_isotypic_action(a, t, kb)
    # one block: the slice's map rows, then one gather of the block's 9 slice points
    assert [(k, d) for k, _, d in blocks] == [(2, 9)]
    assert len(calls) == 2


def _w_action_by_solves(a, t, kbasis):
    """The W-block matrices, each column by solve_linear against the slice matrix.

    A matrix is s * den(u) times the action of u, where s is the value every
    slice vector reads on its own unit coordinate: the scale of the kernel
    basis, times the hyperplane step's scale at k = 2.
    """
    blocks = []
    for k, _, d in w_isotypic_action(a, t, kbasis):
        gk, gk2 = t.grading[k], t.grading.get(k + 2, [])
        rows = sl2._restricted_map_rows(a, t.x.num, gk, gk2)
        vecs, s = kernel_basis_int(rows, len(gk))
        if k == 2:
            kappa = [a.killing(sl2._embed(a, gk, v).num, t.y.num) for v in vecs]
            vecs, f = sl2._hyperplane_basis(vecs, kappa)
            s *= f
        bm = [[v[i] for v in vecs] for i in range(len(gk))]
        mats = []
        for row in kbasis.tolist():
            u, cols = sl2._embed(a, t.grading[0], row), []
            for v in vecs:
                img = a.bracket(u, sl2._embed(a, gk, v)).scale(u.den)
                assert img.den == 1
                num, den = solve_linear(bm, len(vecs), [img.num[b] for b in gk])
                cols.append([Q(c * s, den) for c in num])
            mats.append([list(r) for r in zip(*cols)])
        blocks.append((k, mats, d))
    return blocks


@pytest.mark.parametrize("tname", ["G2", "B3", "F4", "E6"])
def test_w_action_equals_the_solves(tname):
    a, t, kb = _ntm_triple(tname)
    blocks = w_isotypic_action(a, t, kb)
    assert blocks
    assert [(k, m.tolist(), d) for k, m, d in blocks] == _w_action_by_solves(a, t, kb)


def test_bracket_leaving_the_slice_raises(monkeypatch):
    a, t, kb = _ntm_triple("B3")
    assert [k for k, _, _ in w_isotypic_action(a, t, kb)] == [2]
    # X spans the line the k = 2 slice drops, so adding a nonzero multiple of it leaves the
    # slice.  The image of u is sum_j u_j [b_j, v] over the rows g0 of ad(v); on its own free
    # column of the kernel kb[0] reads c != 0 and every other basis vector 0, so X added to
    # that row of ad(v) adds c X to the image of kb[0] alone (c = 2 here)
    g0, good = t.grading[0], a.ad_ints
    j = next(p for p in range(len(g0)) if kb[0, p] and not kb[1:, p].any())

    def faulty(xs, js=None):
        out = good(xs, js)
        if js is g0:
            out[:, j] += t.x.num
        return out

    monkeypatch.setattr(a, "ad_ints", faulty)
    with pytest.raises(ArithmeticError, match="leaves the W slice"):
        w_isotypic_action(a, t, kb)


def test_bracket_leaving_the_graded_piece_raises(monkeypatch):
    a, t, kb = _ntm_triple("B3")
    g0, good = t.grading[0], a.ad_ints

    def faulty(xs, js=None):
        out = good(xs, js)
        if js is g0:
            out[-1, -1, 0] = 1  # the last slice point's last row gains a Cartan coordinate
        return out

    monkeypatch.setattr(a, "ad_ints", faulty)
    with pytest.raises(ArithmeticError, match="left the graded piece"):
        w_isotypic_action(a, t, kb)


# the sha256 of every Table 1 row's W-block matrices and commutants through E7, at seed 0;
# pinned when each bracket of the action was an exact `bracket_vec` over Python ints
SL2_BLOCKS_SHA256 = "488c81f2a8df1570ebace60b5bea923fc68dc382021e865533bc10e87b5ae972"


def test_w_blocks_and_commutants_match_the_pinned_hash():
    from orbitatlas.classify import TABLE1_TYPES

    h = hashlib.sha256()
    for tname in TABLE1_TYPES[: TABLE1_TYPES.index("E7") + 1]:
        a = build_algebra(tname)
        for lab in next_to_minimal(tname):
            t, _ = sl2_data_for_diagram(a, weighted_diagram(tname, lab))
            kb, _ = triple_centralizer(a, t)
            blocks = [(k, mats.tolist(), d, commutant_dim(mats) if len(mats) else d * d)
                      for k, mats, d in w_isotypic_action(a, t, kb)]
            h.update(repr((tname, str(lab), blocks)).encode())
    assert h.hexdigest() == SL2_BLOCKS_SHA256
