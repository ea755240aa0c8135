import hashlib
import random

import pytest

from orbitatlas.chevalley import AlgebraElement, build_algebra
from orbitatlas.flags import scan_types
from orbitatlas.roots import (
    _positive_roots,
    build_root_system,
    identify_subsystem,
    parse_cartan_type,
    root_centralizer_subsystem,
    simple,
)

POSITIVE_COUNTS = {
    "A1": 1, "A2": 3, "A3": 6, "A5": 15,
    "B2": 4, "B3": 9, "B4": 16,
    "C3": 9, "C4": 16,
    "D4": 12, "D5": 20,
    "G2": 6, "F4": 24, "E6": 36, "E7": 63, "E8": 120,
}

HIGHEST_ROOTS = {
    "A3": (1, 1, 1),
    "B3": (1, 2, 2),
    "C3": (2, 2, 1),
    "D4": (1, 2, 1, 1),
    "G2": (3, 2),
    "F4": (2, 3, 4, 2),
    "E8": (2, 3, 4, 6, 5, 4, 3, 2),
}


SYMMETRIZERS = {
    "A": lambda n: [1] * n,
    "B": lambda n: [2] * (n - 1) + [1],
    "C": lambda n: [1] * (n - 1) + [2],
    "D": lambda n: [1] * n,
    "E": lambda n: [1] * n,
    "F": lambda n: [2, 2, 1, 1],
    "G": lambda n: [1, 3],
}


@pytest.mark.parametrize("family", SYMMETRIZERS)
def test_symmetrizers_are_read_off_the_cartan_matrix(family):
    # d_i = (alpha_i, alpha_i) / 2, short roots 1, through rank 10
    for n in range(1, 11):
        try:
            rs = build_root_system(simple(family, n))
        except ValueError:  # no such rank in the family
            continue
        d, c = rs.symmetrizers, rs.cartan_matrix
        assert list(d) == SYMMETRIZERS[family](n)
        assert all(d[i] * c[i][j] == d[j] * c[j][i] for i in range(n) for j in range(n))
    assert build_root_system("A2xG2xB3").symmetrizers == (1, 1, 1, 3, 2, 2, 1)


@pytest.mark.parametrize("name,count", POSITIVE_COUNTS.items())
def test_positive_root_counts(name, count):
    rs = build_root_system(name)
    assert rs.num_positive == count
    assert rs.dimension == 2 * count + rs.rank


@pytest.mark.parametrize("name,theta", HIGHEST_ROOTS.items())
def test_highest_roots(name, theta):
    assert build_root_system(name).highest_root == theta


@pytest.mark.parametrize("name", ["A2", "B2", "C3", "G2", "F4", "D4"])
def test_closure_under_root_addition(name):
    rs = build_root_system(name)
    roots = set(rs.all_roots)
    pos = set(rs.positive_roots)
    for a in pos:
        for b in pos:
            s = tuple(x + y for x, y in zip(a, b))
            # the reflection closure forms no sums; check that a sum of two
            # positive roots which is a root is a positive root
            if s in roots:
                assert s in pos


@pytest.mark.parametrize("name", ["A3", "B3", "G2", "F4", "E6"])
def test_highest_root_dominates(name):
    rs = build_root_system(name)
    theta = rs.highest_root
    for r in rs.positive_roots:
        assert all(x <= t for x, t in zip(r, theta))
    # unique and long
    assert sum(1 for r in rs.positive_roots if sum(r) == sum(theta)) == 1
    dmax = max(rs.lengths[rs.root_index[r]] for r in rs.positive_roots)
    assert rs.lengths[rs.root_index[theta]] == dmax


def test_invalid_ranks():
    for bad in ["B1", "C1", "D2", "E5", "E9", "F3", "G3"]:
        with pytest.raises(ValueError):
            build_root_system(bad)


# det of the Cartan matrix: the order of the weight lattice modulo the root lattice
KNOWN_DET = {
    **{f"A{n}": n + 1 for n in range(1, 9)},
    **{f"B{n}": 2 for n in range(2, 9)},
    **{f"C{n}": 2 for n in range(3, 9)},
    **{f"D{n}": 4 for n in range(4, 9)},
    "E6": 3, "E7": 2, "E8": 1, "F4": 1, "G2": 1,
    "A2xG2": 3, "B3xC4xD4": 16,
}


def test_cartan_inverse_identity():
    for name, det in KNOWN_DET.items():
        rs = build_root_system(name)
        n = rs.rank
        assert rs.det_cartan == det, name
        for i in range(n):
            for j in range(n):
                v = sum(
                    rs.inv_cartan_times_det[i][k] * rs.cartan_matrix[k][j]
                    for k in range(n)
                )
                assert v == (rs.det_cartan if i == j else 0)


@pytest.mark.parametrize("name", ["A2", "C3", "G2", "F4", "E6"])
def test_coweight_roundtrip(name):
    a = build_algebra(name)
    marks = [(i * 7 + 3) % 5 - 1 for i in range(a.rank)]
    h = a.coweight_vector(marks)
    for i in range(a.rank):
        e = a.root_vector(tuple(int(j == i) for j in range(a.rank)))
        assert a.bracket(h, e) == e.scale(marks[i])


def test_coweight_zero():
    a = build_algebra("D4")
    assert a.coweight_vector([0, 0, 0, 0]) == AlgebraElement([0] * a.dim)
    assert not any(a.rs.root_pairings([0, 0, 0, 0]))


def test_coweight_sl2_normalization():
    a = build_algebra("A1")
    assert a.coweight_vector([2]) == AlgebraElement((1, 0, 0))  # the coroot of alpha_1


def test_E8_fig1_coweight():
    rs = build_root_system("E8")
    pairings = rs.root_pairings([1] + [0] * 7)
    assert pairings[: rs.num_positive] == [g[0] for g in rs.positive_roots]
    assert max(pairings) == 2  # the highest root has coefficient 2 on alpha_1


@pytest.mark.parametrize("name", ["A3", "B3", "C3", "G2", "F4", "A1xG2"])
def test_coroot_marks_of_simple_roots_are_cartan_rows(name):
    rs = build_root_system(name)
    for i in range(rs.rank):
        alpha = tuple(int(j == i) for j in range(rs.rank))
        assert rs.coroot_marks(alpha) == rs.cartan_matrix[i]


def test_centralizer_h_zero():
    rs = build_root_system("A2")
    sub = root_centralizer_subsystem(rs, [0, 0])
    assert len(sub.roots) == len(rs.all_roots)
    assert str(sub.cartan_type) == "A2"
    assert sub.torus_dim == 0


def test_centralizer_fundamental_coweight_A2():
    rs = build_root_system("A2")
    sub = root_centralizer_subsystem(rs, [1, 0])
    assert str(sub.cartan_type) == "A1"
    assert sub.torus_dim == 1
    assert len(sub.roots) == 2


def test_centralizer_regular():
    rs = build_root_system("B2")
    sub = root_centralizer_subsystem(rs, [1, 1])
    assert sub.cartan_type is None
    assert sub.torus_dim == 2
    assert len(sub.roots) == 0


@pytest.mark.parametrize(
    "name,marks,expected,torus",
    [
        ("E8", [1, 0, 0, 0, 0, 0, 0, 0], "D7", 1),
        ("E8", [0, 0, 0, 0, 0, 0, 0, 1], "E7", 1),
        ("E7", [1, 0, 0, 0, 0, 0, 0], "D6", 1),
        ("E6", [1, 0, 0, 0, 0, 0], "D5", 1),
        ("F4", [1, 0, 0, 0], "C3", 1),
        ("G2", [0, 1], "A1", 1),
    ],
)
def test_centralizer_types(name, marks, expected, torus):
    rs = build_root_system(name)
    sub = root_centralizer_subsystem(rs, marks)
    assert str(sub.cartan_type) == expected
    assert sub.torus_dim == torus


def test_identify_long_root_A2_in_G2():
    rs = build_root_system("G2")
    longs = [r for r in rs.positive_roots if rs.lengths[rs.root_index[r]] == 3]
    simples = [r for r in longs if not any(
        tuple(a - b for a, b in zip(r, s)) in set(longs) for s in longs if s != r
    )]
    ct, ordered = identify_subsystem(rs, simples)
    assert str(ct) == "A2"


def test_products():
    rs = build_root_system("A1xG2")
    assert rs.rank == 3
    assert rs.num_positive == 7
    assert rs.dimension == 17
    # cross-component sums are never roots
    roots = set(rs.all_roots)
    a1_root = (1, 0, 0)
    g2_root = (0, 1, 0)
    assert tuple(x + y for x, y in zip(a1_root, g2_root)) not in roots


def test_parse_cartan_type():
    assert str(parse_cartan_type("a2")) == "A2"
    assert str(parse_cartan_type("A1xA1")) == "A1xA1"
    assert str(parse_cartan_type("B3+G2")) == "B3xG2"
    with pytest.raises(ValueError):
        parse_cartan_type("H4")
    for bad in ("Ay", "A", "A1xBz", "E²"):
        with pytest.raises(ValueError, match="cannot parse Cartan type"):
            parse_cartan_type(bad)


def test_dominant_marks_conjugation():
    rs = build_root_system("E6")
    theta = rs.highest_root
    co = rs.coroot_coords(theta)  # <b, theta^vee> = 0 iff (theta, b) = 0
    beta = next(b for b in rs.positive_roots
                if sum(c * rs.pairings[rs.root_index[b]][i] for i, c in enumerate(co)) == 0)
    marks = [p + q for p, q in zip(rs.coroot_marks(theta), rs.coroot_marks(beta))]
    dom = rs.dominant_marks(marks)
    assert dom == (1, 0, 0, 0, 0, 1)  # the next-to-minimal diagram of E6
    # conjugation preserves the multiset of root pairings
    assert sorted(rs.root_pairings(marks)) == sorted(rs.root_pairings(dom))


@pytest.mark.parametrize("name", ["A3", "B4", "C3", "D5", "G2", "F4", "E7", "A2xB2"])
def test_root_pairings_are_the_ad_eigenvalues(name):
    a = build_algebra(name)
    rng = random.Random(len(name))
    for _ in range(3):
        marks = [rng.randint(-5, 5) for _ in range(a.rank)]
        h = a.coweight_vector(marks)
        for beta, v in zip(a.rs.all_roots, a.rs.root_pairings(marks)):
            e = a.root_vector(beta)
            assert a.bracket(h, e) == e.scale(v)


def test_extended_diagram_is_not_a_dynkin_diagram():
    # the simple roots of E6 and the lowest root form the affine diagram E6~
    rs = build_root_system("E6")
    simples = [r for r in rs.positive_roots if sum(r) == 1]
    with pytest.raises(ValueError, match="not a Dynkin diagram"):
        identify_subsystem(rs, simples + [tuple(-c for c in rs.highest_root)])


IDENTIFY_TYPES = ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "B5", "C2", "C3", "C4", "C5",
                  "D4", "D5", "D6", "G2", "F4", "E6", "E7", "E8", "A2xG2"]
# sha256 of the sweep below, recorded from the hand-written component
# classifier that preceded the Cartan-matrix matcher
IDENTIFY_SHA256 = "6a7549605697e41c87c1cc7ba3e0b8766ebaaa15f6c5e9d731691bcaf25fca45"


def test_identification_sweep_matches_the_pinned_hash():
    # every node subset, in ascending, descending and rotated order (the last
    # fixes E6's flip), and every {0,1}-marks centralizer: the type and the
    # ordered simple roots
    lines = []
    for name in IDENTIFY_TYPES:
        rs = build_root_system(name)
        n = rs.rank
        for bits in range(1, 2 ** n):
            nodes = [tuple(int(j == i) for j in range(n)) for i in range(n) if bits >> i & 1]
            for simples in (nodes, nodes[::-1], nodes[1:] + nodes[:1]):
                ctype, ordered = identify_subsystem(rs, simples)
                lines.append(f"{name} {simples} {ctype} {list(ordered)}")
            marks = [0 if bits >> i & 1 else 1 for i in range(n)]
            sub = root_centralizer_subsystem(rs, marks)
            lines.append(f"{name} {marks} {sub.cartan_type} {list(sub.simple_roots)} {sub.torus_dim}")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert (len(lines), digest) == (3024, IDENTIFY_SHA256)


POSITIVE_ROOTS_TYPES = [str(t) for t in scan_types(8)] + ["A2xG2", "B3xC2", "A1xA1xA1"]
# sha256 of every type's positive roots in order, recorded from the root-string
# closure that preceded the reflection closure
POSITIVE_ROOTS_SHA256 = "5ae07d5d4d49b5f995729a86628ed31d7ce94330275b94d7a94b7db53446bbfb"


def test_positive_roots_match_the_pinned_hash():
    lines = [f"{name} {list(build_root_system(name).positive_roots)}" for name in POSITIVE_ROOTS_TYPES]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    total = sum(build_root_system(name).num_positive for name in POSITIVE_ROOTS_TYPES)
    assert (len(lines), total, digest) == (35, 960, POSITIVE_ROOTS_SHA256)


def test_identify_subsystem_rejects_a_non_root():
    rs = build_root_system("A2")
    with pytest.raises(ValueError, match=r"\(1, -1\) is not a root of A2"):
        identify_subsystem(rs, [(1, 0), (1, -1)])


ROOT_TABLE_TYPES = [str(t) for t in scan_types(8)] + ["A2xG2xB3", "B3xC4"]
# sha256 of each root's (pairings <beta, alpha_i^vee>, coroot, half squared length),
# in `all_roots` order, recorded from the per-root helpers that computed them one
# root at a time before `RootSystem` tabulated them
ROOT_TABLE_SHA256 = "4917c1904a6222d362949252966f03aa1bb8d226dd2f518f89652cbb05ef990b"


def test_root_tables_match_the_pinned_hash():
    lines, total = [], 0
    for name in ROOT_TABLE_TYPES:
        rs = build_root_system(name)
        rows = list(zip(rs.pairings, rs.coroots, rs.lengths))
        # Python ints, not numpy scalars: callers need exact ints and int.bit_length
        assert all(type(v) is int for p, c, d in rows for v in (*p, *c, d))
        # the reflection search's pairing vectors are the table's positive rows
        npos = rs.num_positive
        assert _positive_roots(rs.cartan_matrix) == list(zip(rs.positive_roots, rs.pairings))
        # each negative row is its positive row negated, with the same length
        for k in range(npos):
            b, (p, c, d) = rs.all_roots[k], rows[k]
            neg = tuple(-x for x in b), tuple(-x for x in p), tuple(-x for x in c), d
            assert (rs.all_roots[npos + k], *rows[npos + k]) == neg
        lines.append(f"{name} {rows}")
        total += len(rows)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert (len(lines), total, digest) == (34, 1956, ROOT_TABLE_SHA256)
