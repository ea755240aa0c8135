import gc
import hashlib
import random
from fractions import Fraction as Q
from math import gcd

import numpy as np
import pytest

from orbitatlas._modp import P, residues
from orbitatlas.chevalley import AlgebraElement, ChevalleyAlgebra, build_algebra
from orbitatlas.classify import TABLE1_TYPES
from orbitatlas.flags import flag_point, painted, scan_types
from orbitatlas.roots import build_root_system, parse_cartan_type, simple
from test_linalg import is_negative_definite


def compact_gram_killing(a) -> list[list[int]]:
    """Exact Killing Gram matrix of the compact real form's basis, from `killing`.

    The basis is {i h_j} u {e_b - e_-b, i(e_b + e_-b) : b > 0}, in that order.
    Each vector is u or i u for an integer vector u, and K(i u, i v) = -K(u, v);
    K(u, i v) must vanish, or the form would not be real on the compact form.
    """
    r, npos = a.rank, a.rs.num_positive
    basis = [(a.basis_vector(j), True) for j in range(r)]
    for k in range(npos):
        e, f = a.basis_vector(r + k), a.basis_vector(r + npos + k)
        basis += [([p - q for p, q in zip(e, f)], False), ([p + q for p, q in zip(e, f)], True)]
    g = [[a.killing(u, v) for v, _ in basis] for u, _ in basis]
    for m, (_, s) in enumerate(basis):
        for n, (_, t) in enumerate(basis):
            assert s == t or g[m][n] == 0
            if s and t:
                g[m][n] = -g[m][n]
    return g


def _n(a, x, y) -> int:
    """N_{x,y}, read off `bracket_vec`: [e_x, e_y] = N_{x,y} e_{x+y} and nothing else."""
    v = a.bracket_vec(a.root_vector(x).num, a.root_vector(y).num)
    k = a.root_vector_index(tuple(p + q for p, q in zip(x, y)))
    assert not any(c for i, c in enumerate(v) if i != k)
    return v[k]


def _root_pairs(a):
    """Every ordered pair of roots whose sum is a root."""
    idx = a.rs.root_index
    return [(x, y) for x in a.rs.all_roots for y in a.rs.all_roots
            if tuple(p + q for p, q in zip(x, y)) in idx]


def test_sl2_relations():
    a = build_algebra("A1")
    e, f = a.root_vector((1,)), a.root_vector((-1,))
    h = a.bracket(e, f)
    assert h.den == 1 and h.num[0] == 1 and all(c == 0 for c in h.num[1:])
    assert a.bracket(h, e) == e.scale(2)
    assert a.bracket(h, f) == f.scale(-2)


def test_build_algebra_accepts_every_form_of_a_type():
    a = build_algebra("A2")
    assert build_algebra(simple("A", 2)) is a
    assert build_algebra(build_root_system("A2")) is a
    assert build_algebra(parse_cartan_type("A1xG2")).dim == 17


def test_A2_simple_constants_are_units():
    a = build_algebra("A2")
    assert abs(_n(a, (1, 0), (0, 1))) == 1


def test_G2_constants_reach_three():
    a = build_algebra("G2")
    assert max(abs(_n(a, x, y)) for x, y in _root_pairs(a)) == 3


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "C3", "G2", "D4"])
def test_jacobi_exhaustive_small(name):
    assert build_algebra(name).verify_jacobi()


def test_string_magnitudes():
    # |N_{a,b}| = p + 1 where p is the down-string length (checked for G2;
    # the constructor asserts it for every positive pair of every algebra)
    a = build_algebra("G2")
    for x, y in _root_pairs(a):
        assert abs(_n(a, x, y)) == a._down_string(y, x) + 1


def test_bracket_ef_lands_in_cartan():
    a = build_algebra("F4")
    for beta in a.rs.positive_roots:
        v = a.bracket(a.root_vector(beta), a.root_vector(tuple(-c for c in beta)))
        assert all(v.num[i] == 0 for i in range(a.rank, a.dim))
        assert any(v.num[i] != 0 for i in range(a.rank))


def test_ad_derivation_property():
    a = build_algebra("C3")
    rng = random.Random(3)

    def rand_elt():
        return AlgebraElement([rng.randint(-2, 2) for _ in range(a.dim)])

    for _ in range(10):
        x, y, z = rand_elt(), rand_elt(), rand_elt()
        lhs = a.bracket(x, a.bracket(y, z))
        rhs = a.bracket(a.bracket(x, y), z) + a.bracket(y, a.bracket(x, z))
        assert lhs == rhs


def _ad(a, x):
    """The matrix of y -> [x, y], read off `ad_rows(x.num)` (row j is -den(x) times column j)."""
    rows = a.ad_rows(x.num)
    return [[Q(-rows[j][i], x.den) for j in range(a.dim)] for i in range(a.dim)]


@pytest.mark.parametrize("name", ["A2", "G2", "B3", "F4", "E6", "E8"])
def test_ad_residues_is_ad_rows_mod_p(name):
    a = build_algebra(name)
    rng = random.Random(8)
    h = flag_point(a, painted(name, range(a.rank)))  # det(C) times a coweight
    wide = [c * 3**41 - 2**64 for c in h.num]  # entries beyond +-2**63
    dense = [rng.randint(-2**70, 2**70) for _ in range(a.dim)]
    for x in (h.num, wide, dense):
        assert np.array_equal(a.ad_ints(residues([x], a.dim))[0] % P,
                              residues(a.ad_rows(list(x)), a.dim))
    # several points in one call: each matrix is its point's alone
    xs = residues([h.num, wide, dense], a.dim)
    assert np.array_equal(a.ad_ints(xs), np.concatenate([a.ad_ints(x[None]) for x in xs]))


@pytest.mark.parametrize("name", ["A2", "G2", "F4", "E6"])
def test_ad_ints_is_ad_rows(name):
    a = build_algebra(name)
    rng = random.Random(27)
    h = flag_point(a, painted(name, range(a.rank))).num
    dense = [rng.randint(-2**20, 2**20) for _ in range(a.dim)]
    js = sorted(rng.sample(range(a.dim), a.dim // 3))
    for x in (h, dense):
        rows = a.ad_rows(list(x))
        assert a.ad_ints([x]).tolist() == [rows]
        assert a.ad_ints(np.array([x], dtype=np.int64), js).tolist() == [[rows[j] for j in js]]
    # several points in one call: each block is its point's alone
    both = a.ad_ints([h, dense], js).tolist()
    assert both == [a.ad_ints([x], js)[0].tolist() for x in (h, dense)]


@pytest.mark.parametrize("entry", [2**62, -2**62, 2**70])
def test_ad_ints_raises_past_the_int64_headroom(entry):
    # 2**62 fits int64, but times max|c| * fan_in >= 2 an entry of ad(x) would not;
    # 2**70 does not fit int64 at all.  Both are ArithmeticError, an explicit raise
    a = build_algebra("A2")
    x = [0] * a.dim
    x[a.rank] = entry
    with pytest.raises(ArithmeticError, match="int64 headroom"):
        a.ad_ints([x])
    if abs(entry) < 1 << 63:
        with pytest.raises(ArithmeticError, match="int64 headroom"):
            a.ad_ints(np.array([x], dtype=np.int64), [0])


@pytest.mark.parametrize("name", ["A2", "B3", "G2", "F4", "A2xG2"])
def test_max_ad_power_is_the_nilpotency_of_root_vectors(name):
    a = build_algebra(name)
    reached = 0
    for g in a.rs.all_roots:
        e = a.basis_vector(a.root_vector_index(g))
        for j in range(a.dim):
            v, k = a.bracket_vec(e, a.basis_vector(j)), 0
            while any(v):
                v, k = a.bracket_vec(e, v), k + 1
            reached = max(reached, k)
    assert reached == a.max_ad_power


@pytest.mark.parametrize("name", ["A1", "B3", "C3", "G2", "F4", "A2xG2"])
def test_ad_power_rows_are_the_powers_of_ad_root_vectors(name):
    # row gamma of `ad_powers`, power block p, summed slot by slot, is ad(e_gamma)^p
    # computed by p exact brackets, on every basis vector
    a = build_algebra(name)
    widths = a.ad_power_widths
    assert len(widths) == a.max_ad_power and a.ad_powers.shape[2] == sum(widths)
    for q, gamma in enumerate(a.rs.all_roots):
        e = a.root_vector(gamma).num
        powers = [[a.basis_vector(i) for i in range(a.dim)]]
        for _ in widths:
            powers.append([a.bracket_vec(e, v) for v in powers[-1]])
        blocks = np.split(a.ad_powers[q], np.cumsum(widths)[:-1], axis=1)
        for block, expected in zip(blocks, powers[1:]):
            i, k, c = block
            table = np.zeros((a.dim, a.dim), dtype=np.int64)
            np.add.at(table, (i, k), c)  # padding adds c = 0
            assert table.tolist() == expected


def test_ad_powers_refuse_paths_longer_than_max_ad_power():
    a = ChevalleyAlgebra(build_root_system("A2"))
    a.max_ad_power = 1  # ad(e_gamma)^2 e_-gamma = -2 e_gamma has paths of length 2
    with pytest.raises(ArithmeticError, match="not nilpotent"):
        a._build_ad_powers()


def test_ad_powers_refuse_a_sum_of_two_ad_entries_past_the_int64_headroom():
    # real_orbit_dim adds two entries of ad(x), x in [0, P): 2 (P - 1) _headroom < 2**63
    a = ChevalleyAlgebra(build_root_system("A2"))
    a._headroom = (1 << 62) // (P - 1)
    a._build_ad_powers()
    a._headroom += 1
    with pytest.raises(ArithmeticError, match="headroom"):
        a._build_ad_powers()


def test_index_array_refuses_a_prime_without_int64_headroom(monkeypatch):
    from orbitatlas import chevalley

    monkeypatch.setattr(chevalley, "P", (1 << 61) - 1)  # (P - 1)**2 overflows int64
    with pytest.raises(ArithmeticError, match="headroom"):
        ChevalleyAlgebra(build_root_system("A2"))


def test_ad_of_zero():
    a = build_algebra("A2")
    m = _ad(a, AlgebraElement([0] * a.dim))
    assert all(v == 0 for row in m for v in row)


def test_ad_nilpotent_index_sl2():
    a = build_algebra("A1")
    e = a.root_vector((1,))
    m = _ad(a, e)
    # ad(e)^3 = 0, ad(e)^2 != 0
    def matmul(p, q):
        n = a.dim
        return [
            [sum(p[i][k] * q[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]

    m1 = m
    m2 = matmul(m1, m1)
    m3 = matmul(m2, m1)
    assert any(v != 0 for row in m2 for v in row)
    assert all(v == 0 for row in m3 for v in row)


def test_ad_h_diagonal():
    a = build_algebra("A1")
    h = a.coweight_vector([2])
    m = _ad(a, h)
    diag = [m[i][i] for i in range(3)]
    assert sorted(diag) == [-2, 0, 2]
    assert all(m[i][j] == 0 for i in range(3) for j in range(3) if i != j)


def test_centralizer_of_zero():
    a = build_algebra("B2")
    assert a.centralizer_dim(AlgebraElement([0] * a.dim)) == a.dim


def test_minimal_orbit_dims_via_centralizer():
    # dim O_min = 2(h_vee - 1)
    for name, hv in [("A2", 3), ("C3", 4), ("G2", 4), ("F4", 9)]:
        a = build_algebra(name)
        z = a.centralizer_dim(a.root_vector(a.rs.highest_root))
        assert a.dim - z == 2 * (hv - 1)


def test_A2_highest_root_centralizer():
    a = build_algebra("A2")
    assert a.centralizer_dim(a.root_vector(a.rs.highest_root)) == 4


def test_scaling_invariance_of_centralizer():
    a = build_algebra("C3")
    x = a.root_vector(a.rs.highest_root)
    for lam2 in (4, 9):
        assert a.centralizer_dim(x.scale(lam2)) == a.centralizer_dim(x)


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "C3", "G2"])
def test_compact_basis_killing_negative_definite(name):
    a = build_algebra(name)
    g = compact_gram_killing(a)
    assert len(g) == a.dim
    assert is_negative_definite(g)


def test_compact_basis_A1_gram_diagonal():
    a = build_algebra("A1")
    g = compact_gram_killing(a)
    assert all(g[i][j] == 0 for i in range(3) for j in range(3) if i != j)
    assert all(g[i][i] < 0 for i in range(3))


def test_element_normalisation():
    x = AlgebraElement((2, 4, -6, 0), 2)
    assert x == AlgebraElement((1, 2, -3, 0))
    assert (x.num, x.den) == ((1, 2, -3, 0), 1)
    y = AlgebraElement((6, -4, 0), -12)
    assert (y.num, y.den) == ((-3, 2, 0), 6)
    assert y.den > 0 and gcd(*y.num, y.den) == 1
    assert AlgebraElement((0, 0), 7) == AlgebraElement((0, 0))
    with pytest.raises(ZeroDivisionError):
        AlgebraElement((1, 2), 0)


def test_element_add_and_scale_are_exact():
    x = AlgebraElement((1, 1, 0), 2)
    y = AlgebraElement((1, -1, 3), 3)
    assert x + y == AlgebraElement((5, 1, 6), 6)
    assert x.scale(Q(4, 3)) == AlgebraElement((2, 2, 0), 3)
    assert x.scale(0) == AlgebraElement((0, 0, 0))
    assert x + x.scale(-1) == AlgebraElement((0, 0, 0))


@pytest.mark.parametrize("name", ["A2", "B3", "G2"])
def test_bracket_with_denominators(name):
    a = build_algebra(name)
    rng = random.Random(5)

    def rand_elt():
        return AlgebraElement([rng.randint(-3, 3) for _ in range(a.dim)], rng.choice([2, 3, 6, 35]))

    for _ in range(3):
        x, y = rand_elt(), rand_elt()
        assert x.den > 1 and y.den > 1
        z = a.bracket(x, y)
        m = _ad(a, x)
        my = [sum(m[i][j] * Q(y.num[j], y.den) for j in range(a.dim)) for i in range(a.dim)]
        assert [Q(v, z.den) for v in z.num] == my
        assert a.bracket(y, x) == z.scale(-1)
        for q in (Q(3, 4), Q(-5, 7), 6):
            assert a.bracket(x.scale(q), y) == z.scale(q)


def test_bracket_vec_is_exact_past_int64():
    # brackets are exact at any size: 2**70 e_alpha and 3**50 e_beta bracket to
    # 2**70 3**50 N_{alpha,beta} e_{alpha+beta}, a coefficient that int64 would wrap
    a = build_algebra("E8")
    alpha = a.rs.positive_roots[0]
    beta = next(b for b in a.rs.positive_roots
                if tuple(p + q for p, q in zip(alpha, b)) in a.rs.root_index)
    gamma = tuple(p + q for p, q in zip(alpha, beta))
    i, j, k = (a.root_vector_index(r) for r in (alpha, beta, gamma))
    js, ks, cs = a._ad[i]
    (n,) = cs[(js == j) & (ks == k) & (cs != 0)].tolist()  # [e_alpha, e_beta] = n e_gamma
    x, y, expected = a.basis_vector(i), a.basis_vector(j), [0] * a.dim
    x[i], y[j], expected[k] = 2**70, 3**50, 2**70 * 3**50 * n
    assert n != 0 and abs(expected[k]) >= 1 << 140
    assert a.bracket_vec(x, y) == expected
    assert a.bracket(AlgebraElement(x, 5), AlgebraElement(y, 7)) == AlgebraElement(expected, 35)


@pytest.mark.parametrize("name", ["A3", "B3", "C3", "D4", "G2", "F4", "E6", "A2xG2"])
def test_table_is_antisymmetric(name):
    a = build_algebra(name)
    basis = [a.basis_vector(i) for i in range(a.dim)]
    for i, x in enumerate(basis):
        for y in basis[i:]:
            assert a.bracket_vec(x, y) == [-v for v in a.bracket_vec(y, x)]


@pytest.mark.parametrize("name", TABLE1_TYPES + ["A2xG2"])
def test_index_array_unpacks_to_the_table(name):
    # `bracket_vec` reads rows derived from `_ad`, which the Jacobi proof reads:
    # [b_j, b_i] must be the decode of row j of the index array
    a = build_algebra(name)
    basis = [a.basis_vector(i) for i in range(a.dim)]
    for j, x in enumerate(basis):
        i, k, c = a._ad[j]
        decoded = np.zeros((a.dim, a.dim), dtype=np.int64)
        np.add.at(decoded, (i, k), c)  # padding adds c = 0
        assert [a.bracket_vec(x, y) for y in basis] == decoded.tolist()


def canonical_table_hash(names) -> str:
    """sha256 over each algebra's name, its live terms (j, i, k, c) of `_ad` sorted
    lexicographically as int64 bytes, the shape of `_ad` and `max_ad_power`."""
    h = hashlib.sha256()
    for name in names:
        a = build_algebra(name)
        live = a._ad[:, 2] != 0
        terms = np.stack([np.nonzero(live)[0], *a._ad.transpose(1, 0, 2)[:, live]], axis=1)
        terms = np.array(sorted(terms.tolist()), dtype=np.int64)
        for part in (name.encode(), terms.tobytes(), str(a._ad.shape).encode(),
                     str(a.max_ad_power).encode()):
            h.update(part)
    return h.hexdigest()


def test_structure_constant_table_is_pinned():
    # the canonical table of every Table 1 type and a product: a changed structure
    # constant, row width or max_ad_power shows here; G2 and F4 (root coordinates up to
    # 3 and 4) also pin the injectivity of the root-sum keys
    assert canonical_table_hash(TABLE1_TYPES + ["A2xG2"]) == (
        "89588abc9cfbfec3d1d1992dcabbc68f4b2367f0d92d832e7649bdc10f5c2798"
    )


def test_structure_constant_table_is_pinned_beyond_table1():
    # the scan types that Table 1 leaves out (A1, A7, A8, B2, B5-B8, C5-C8, D6-D8) and a
    # product of three factors, recorded before the table was built over root indices
    names = [str(t) for t in scan_types(8) if str(t) not in TABLE1_TYPES] + ["A2xG2xB3"]
    assert len(names) == 16
    assert canonical_table_hash(names) == (
        "47d0e57e3e709f3911ae3c03f358f5f566719d7d0fe40ff9d2d22435e475510a"
    )


def test_root_sum_keys_past_int64_give_each_factor_its_own_constants():
    # nine G2 factors: root coordinates up to 3, so base 13 and rank 18, and
    # 13**18 >= 2**63 puts the root-sum keys in Python ints (object dtype)
    assert 13**18 >= 1 << 63
    g2, a = build_algebra("G2"), build_algebra("x".join(["G2"] * 9))
    assert (a.rank, a.dim) == (18, 126)
    pairs = _root_pairs(a)
    assert len(pairs) == 9 * len(_root_pairs(g2)) == 540
    for x, y in pairs:
        k = next(i for i, c in enumerate(x) if c) // 2 * 2  # the factor's first coordinate
        assert _n(a, x, y) == _n(g2, x[k:k + 2], y[k:k + 2])


def test_construction_leaves_no_garbage():
    # no closure of the construction refers to itself, so a build leaves no cycle behind
    rs = build_root_system("E7")
    gc.collect()
    gc.disable()
    try:
        ChevalleyAlgebra(rs)
        assert gc.collect() == 0
    finally:
        gc.enable()


def _terms(a, i, j):
    """Slots of row i of the index array holding [b_i, b_j]."""
    return np.flatnonzero((a._ad[i, 0] == j) & (a._ad[i, 2] != 0))


def test_jacobi_check_catches_a_corrupted_table():
    a = ChevalleyAlgebra(build_root_system("A2"))
    i, j = a.root_vector_index((1, 0)), a.root_vector_index((0, 1))
    a._ad[i, 2, _terms(a, i, j)] *= 2  # [e_a1, e_a2] doubled, [e_a2, e_a1] left alone
    with pytest.raises(ArithmeticError, match="not antisymmetric"):
        a.verify_jacobi()


def _corrupt_both_orders(a, i, j, change):
    """Replace the coefficients of [b_i, b_j] in the index array by change(them), and
    [b_j, b_i]'s to match: still antisymmetric."""
    ij, ji = _terms(a, i, j), _terms(a, j, i)
    new = change(a._ad[i, 2, ij])
    a._ad[i, 2, ij], a._ad[j, 2, ji] = new, -new


def test_generator_proof_catches_corruption_away_from_the_generators():
    # neither bracket has a simple root vector in it, yet J(e_{+-alpha_i}, ., .) sees both
    a = ChevalleyAlgebra(build_root_system("B3"))
    i, j = a.root_vector_index((0, 1, 1)), a.root_vector_index((1, 1, 1))
    _corrupt_both_orders(a, i, j, lambda c: 2 * c)
    with pytest.raises(ArithmeticError, match="Jacobi fails"):
        a.verify_jacobi()
    a = ChevalleyAlgebra(build_root_system("B3"))
    theta = a.rs.highest_root
    i, j = a.root_vector_index(theta), a.root_vector_index(tuple(-c for c in theta))
    # one coroot coordinate of [e_theta, e_-theta] = h_theta moved by 1
    _corrupt_both_orders(a, i, j, lambda c: c + (np.arange(len(c)) == 0))
    with pytest.raises(ArithmeticError, match="Jacobi fails"):
        a.verify_jacobi()


def test_jacobi_proof_catches_an_E6_corruption_away_from_the_generators():
    # the first two positive roots of height 2 and 3 whose sum is a root; N doubled
    a = ChevalleyAlgebra(build_root_system("E6"))
    x, y = next((x, y) for x in a.rs.positive_roots for y in a.rs.positive_roots
                if (sum(x), sum(y)) == (2, 3)
                and tuple(p + q for p, q in zip(x, y)) in a.rs.root_index)
    _corrupt_both_orders(a, a.root_vector_index(x), a.root_vector_index(y), lambda c: 2 * c)
    with pytest.raises(ArithmeticError, match="Jacobi fails"):
        a.verify_jacobi()


@pytest.mark.parametrize("name", ["A2", "B3", "G2", "F4", "E6", "A2xG2"])
def test_killing_is_the_trace_of_ad_x_ad_y(name):
    a = build_algebra(name)
    rng = random.Random(13)
    for _ in range(3):
        x, y = ([rng.randint(-3, 3) for _ in range(a.dim)] for _ in range(2))
        # row j of ad_rows(x) is minus column j of ad x; the two signs cancel in the trace
        rx, ry = a.ad_rows(x), a.ad_rows(y)
        trace = sum(rx[j][k] * ry[k][j] for j in range(a.dim) for k in range(a.dim))
        assert a.killing(x, y) == trace == a.killing(y, x)
