import hashlib

import pytest

from orbitatlas.chevalley import build_algebra
from orbitatlas.classify import TABLE1_TYPES
from orbitatlas.orbits import (
    OrbitLabel,
    Partition,
    WeightedDynkinDiagram,
    dominates,
    expected_orbit_dimension,
    hasse_diagram,
    min_orbit_representative,
    minimal_orbit,
    next_to_minimal,
    orbit_dimension,
    representative,
    valid_partitions,
    weighted_diagram,
)
from orbitatlas.roots import build_root_system


def labels(t):
    return {str(l) for l in valid_partitions(t)}


def test_valid_partitions_C2():
    assert labels("C2") == {"(4)", "(2,2)", "(2,1,1)", "(1,1,1,1)"}


def test_valid_partitions_A2():
    assert labels("A2") == {"(3)", "(2,1)", "(1,1,1)"}


def test_valid_partitions_B2():
    assert labels("B2") == {"(5)", "(3,1,1)", "(2,2,1)", "(1,1,1,1,1)"}


def test_very_even_flag():
    d4 = valid_partitions("D4")
    flagged = {str(l.partition) for l in d4 if l.very_even}
    assert flagged == {"(4,4)", "(2,2,2,2)"}


def test_orbit_dim_minimal_A():
    for n in (2, 3, 4):
        p = Partition((2,) + (1,) * (n - 1))
        assert orbit_dimension(f"A{n}", p) == 2 * n


def test_orbit_dim_zero():
    assert orbit_dimension("C3", Partition((1,) * 6)) == 0
    assert orbit_dimension("B3", Partition((1,) * 7)) == 0


def test_orbit_dim_C2_values():
    dims = {str(l): orbit_dimension("C2", l) for l in valid_partitions("C2")}
    assert dims == {"(4)": 8, "(2,2)": 6, "(2,1,1)": 4, "(1,1,1,1)": 0}


def test_orbit_dim_rejects_invalid():
    with pytest.raises(ValueError):
        orbit_dimension("C2", Partition((3, 1)))


def test_orbit_dim_matches_representative_rank():
    for t, p in [("A3", (2, 2)), ("C2", (2, 2)), ("B3", (3, 1, 1, 1, 1)), ("D4", (2, 2, 2, 2))]:
        a = build_algebra(t)
        w = weighted_diagram(t, Partition(p))
        x = representative(a, w).x
        assert a.dim - a.centralizer_dim(x) == orbit_dimension(t, Partition(p))


def test_dominates():
    assert dominates(Partition((3, 1, 1, 1)), Partition((2, 2, 1, 1)))
    assert dominates(Partition((2, 2)), Partition((2, 2)))
    assert not dominates(Partition((2, 2, 1, 1)), Partition((3, 1, 1, 1)))
    with pytest.raises(ValueError):
        dominates(Partition((2,)), Partition((1, 1, 1)))


def _partitions(n, most=None):
    """Every partition of n with parts at most `most`, as tuples."""
    most = n if most is None else most
    if n == 0:
        return [()]
    return [(k,) + rest for k in range(min(n, most), 0, -1) for rest in _partitions(n - k, k)]


def test_dominates_is_the_definition_on_all_partitions_up_to_8():
    def by_definition(p, q):
        # every partial sum of p, padded with zero parts, is >= that of q
        m = max(len(p), len(q))
        p, q = p + (0,) * (m - len(p)), q + (0,) * (m - len(q))
        return all(sum(p[:i]) >= sum(q[:i]) for i in range(1, m + 1))

    for n in range(1, 9):
        parts = _partitions(n)
        for p in parts:
            for q in parts:
                assert dominates(Partition(p), Partition(q)) == by_definition(p, q), (p, q)


def test_hasse_C2_chain():
    edges = {(str(a), str(b)) for a, b in hasse_diagram("C2")}
    assert edges == {
        ("(1,1,1,1)", "(2,1,1)"),
        ("(2,1,1)", "(2,2)"),
        ("(2,2)", "(4)"),
    }


def test_minimal_below_everything():
    for t in ("A4", "B3", "C3", "D4"):
        mp = minimal_orbit(t).partition
        for lab in valid_partitions(t):
            if lab.partition.parts != tuple([1] * lab.partition.total):
                assert dominates(lab.partition, mp)


def test_dimension_monotone_on_covers():
    for t in ("A4", "B3", "C3", "D4", "D5"):
        for lo, hi in hasse_diagram(t):
            assert orbit_dimension(t, hi) > orbit_dimension(t, lo)


def test_minimal_and_ntm_labels():
    assert str(minimal_orbit("A5").partition) == "(2,1,1,1,1)"
    assert [str(l) for l in next_to_minimal("A5")] == ["(2,2,1,1)"]
    assert [str(l.partition) for l in next_to_minimal("B4")] == [
        "(3,1,1,1,1,1,1)", "(2,2,2,2,1)"]
    assert [str(l.partition) for l in next_to_minimal("B3")] == ["(3,1,1,1,1)"]
    assert [str(l) for l in next_to_minimal("C3")] == ["(2,2,1,1)"]
    d4 = next_to_minimal("D4")
    assert [str(l) for l in d4] == ["(3,1,1,1,1,1)", "(2,2,2,2) [I/II]"]
    assert [str(l.partition) for l in next_to_minimal("D5")] == [
        "(3,1,1,1,1,1,1,1)", "(2,2,2,2,1,1)"]
    assert next_to_minimal("A1") == []


def test_ntm_are_covers_of_minimal():
    for t in ("A4", "A5", "B3", "B4", "C3", "D4", "D5"):
        mp = minimal_orbit(t).partition
        covers = {
            str(hi) for lo, hi in hasse_diagram(t) if lo.partition == mp
        }
        assert covers == {str(l) for l in next_to_minimal(t)}


def test_weighted_diagram_classical():
    assert weighted_diagram("A2", Partition((2, 1))).marks == (1, 1)
    assert weighted_diagram("A1", Partition((2,))).marks == (2,)
    assert weighted_diagram("A2", Partition((3,))).marks == (2, 2)
    assert weighted_diagram("C2", Partition((2, 2))).marks == (0, 2)
    assert weighted_diagram("C2", Partition((2, 1, 1))).marks == (1, 0)
    assert weighted_diagram("B3", Partition((3, 1, 1, 1, 1))).marks == (2, 0, 0)
    assert weighted_diagram("D4", Partition((2, 2, 2, 2))).marks in (
        (0, 0, 0, 2), (0, 0, 2, 0))


def test_exceptional_minimal_marks_are_theta_pairings():
    # the minimal orbit diagram pairs to 1 exactly on the adjoint node
    assert minimal_orbit("G2").diagram.marks == (0, 1)
    assert minimal_orbit("F4").diagram.marks == (1, 0, 0, 0)
    assert minimal_orbit("E6").diagram.marks == (0, 1, 0, 0, 0, 0)
    assert minimal_orbit("E7").diagram.marks == (1, 0, 0, 0, 0, 0, 0)
    assert minimal_orbit("E8").diagram.marks == (0, 0, 0, 0, 0, 0, 0, 1)


def test_exceptional_ntm_marks():
    assert next_to_minimal("G2")[0].diagram.marks == (1, 0)
    assert next_to_minimal("F4")[0].diagram.marks == (0, 0, 0, 1)
    assert next_to_minimal("E6")[0].diagram.marks == (1, 0, 0, 0, 0, 1)
    assert next_to_minimal("E7")[0].diagram.marks == (0, 0, 0, 0, 0, 1, 0)
    assert next_to_minimal("E8")[0].diagram.marks == (1, 0, 0, 0, 0, 0, 0, 0)


def test_expected_dims_exceptional():
    # dim O_min = 2(h_vee - 1); next-to-minimal dims from the grading
    data = {
        "G2": (6, 8), "F4": (16, 22), "E6": (22, 32), "E7": (34, 52), "E8": (58, 92),
    }
    for t, (dmin, dntm) in data.items():
        rs = build_root_system(t)
        assert expected_orbit_dimension(rs, minimal_orbit(t).diagram) == dmin
        assert expected_orbit_dimension(rs, next_to_minimal(t)[0].diagram) == dntm
        assert orbit_dimension(t, minimal_orbit(t)) == dmin
        assert orbit_dimension(t, next_to_minimal(t)[0]) == dntm


def test_dimension_formula_agrees_with_grading():
    # dual-partition centralizer formula vs the sl2-grading count of the
    # weighted diagram: two independent routes to the orbit dimension, on every
    # classical label through rank 6, so the sweep also checks the diagram recipe
    for t in (t for t in CLASSICAL_TYPES if int(t[1:]) <= 6):
        rs = build_root_system(t)
        for lab in valid_partitions(t):
            w = weighted_diagram(t, lab)
            assert orbit_dimension(t, lab) == expected_orbit_dimension(rs, w), (
                t, str(lab))


def test_representative_A1():
    a = build_algebra("A1")
    x = representative(a, weighted_diagram("A1", Partition((2,)))).x
    assert a.centralizer_dim(x) == 1


def test_representative_A2_minimal():
    a = build_algebra("A2")
    x = representative(a, weighted_diagram("A2", Partition((2, 1)))).x
    assert a.dim - a.centralizer_dim(x) == 4


def test_representative_nilpotent():
    a = build_algebra("C3")
    w = weighted_diagram("C3", Partition((2, 2, 1, 1)))
    x = representative(a, w).x
    # ad(X), from ad_rows: row j is [b_j, X.num] = -den(X) * column j
    assert x.den == 1
    rows = a.ad_rows(x.num)
    v = [[-rows[j][i] for j in range(a.dim)] for i in range(a.dim)]
    # ad(X)^k vanishes for k = 2 * longest part
    cur = v
    for _ in range(3):  # 2 * 2 - 1 more products
        cur = [
            [sum(cur[i][k] * v[k][j] for k in range(a.dim)) for j in range(a.dim)]
            for i in range(a.dim)
        ]
    assert all(c == 0 for row in cur for c in row)


def test_representative_scaling_invariance():
    a = build_algebra("B3")
    x = representative(a, weighted_diagram("B3", Partition((3, 1, 1, 1, 1)))).x
    assert a.centralizer_dim(x.scale(4)) == a.centralizer_dim(x)


@pytest.mark.parametrize("tname", [t for t in TABLE1_TYPES if t != "E8"])
def test_representative_accepted_mod_p_has_the_exact_orbit_dimension(tname):
    a = build_algebra(tname)
    for label in next_to_minimal(tname):
        w = weighted_diagram(tname, label)
        x = representative(a, w).x
        assert a.centralizer_dim(x) == a.dim - expected_orbit_dimension(a.rs, w)


def test_min_orbit_representative_is_highest_root_vector():
    a = build_algebra("F4")
    x = min_orbit_representative(a)
    assert a.dim - a.centralizer_dim(x) == 16


def test_minimal_marks_bounded_by_theta_pairing():
    # marks of the minimal diagram are <alpha_i, theta^vee> in {0,1,2}
    for t in ("A3", "B3", "C3", "D4", "G2", "F4", "E6"):
        rs = build_root_system(t)
        w = minimal_orbit(t)
        marks = (
            w.diagram.marks
            if w.diagram is not None
            else weighted_diagram(t, w).marks
        )
        theta_vee = rs.coroot_coords(rs.highest_root)
        pair = tuple(
            sum(c * rs.pairings[rs.root_index[tuple(int(j == i) for j in range(rs.rank))]][k]
                for k, c in enumerate(theta_vee))
            for i in range(rs.rank)
        )
        assert marks == pair


def test_representative_rejects_a_non_diagram():
    # (2, 0) is not the weighted Dynkin diagram of any nilpotent orbit of G2
    a = build_algebra("G2")
    with pytest.raises(ValueError, match="diagram 20"):
        representative(a, WeightedDynkinDiagram((2, 0)))


# marks whose degree-2 piece holds points x with rank ad(x) equal to
# `expected_orbit_dimension`, although no orbit has them as its diagram
# (A2 (2, 0): x is a sum of two commuting root vectors, in the minimal orbit 11)
RANK_ONLY_MARKS = [
    ("A2", (2, 0)), ("A2", (0, 2)), ("A3", (2, 0, 0)), ("A3", (1, 1, 2)),
    ("B2", (1, 1)), ("B2", (0, 2)), ("C3", (2, 0, 0)), ("B3", (2, 0, 1)),
    ("D4", (1, 1, 1, 0)), ("D4", (2, 0, 0, 2)),
]


@pytest.mark.parametrize("tname, marks", RANK_ONLY_MARKS)
def test_representative_rejects_marks_that_only_match_the_rank(tname, marks):
    assert marks not in {weighted_diagram(tname, l).marks for l in valid_partitions(tname)}
    a = build_algebra(tname)
    with pytest.raises(ValueError, match="not a weighted Dynkin diagram"):
        representative(a, WeightedDynkinDiagram(marks))


@pytest.mark.parametrize(
    "tname", ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4", "G2", "F4"]
)
def test_representative_completes_a_triple_with_the_exact_orbit_dimension(tname):
    a = build_algebra(tname)
    if a.rs.cartan_type.family in "ABCD":
        ws = [weighted_diagram(tname, l) for l in valid_partitions(tname)]
    else:
        ws = [l.diagram for l in [minimal_orbit(tname)] + next_to_minimal(tname)]
    for w in ws:
        if not any(w.marks):
            continue  # the zero orbit has no representative
        t = representative(a, w)
        assert t.marks == w.marks
        assert a.bracket(t.x, t.y) == t.h
        assert a.bracket(t.h, t.x) == t.x.scale(2)
        assert a.bracket(t.h, t.y) == t.y.scale(-2)
        assert a.dim - a.centralizer_dim(t.x) == expected_orbit_dimension(a.rs, w), str(w)


CLASSICAL_TYPES = [
    f"{fam}{n}"
    for fam, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3))
    for n in range(lo, 11)
]
# sha256 of the minimal and next-to-minimal labels of CLASSICAL_TYPES and of
# the ordered Hasse edges through rank 7, recorded from the per-family
# partition formulas and the triple-loop cover test that preceded the
# backward cover scan
MIN_NTM_SHA256 = "1e84b2ee2747e5ef0b07fe1d01c189b0ad5b5a051913423283de3dd0a5718c1b"
HASSE_SHA256 = "5c4b14d86bee2f5ad7041d7267460fa6e136dc2096a5a9055695e3a5bd665a50"


def test_classical_min_ntm_and_hasse_match_the_pinned_hash():
    lines = [
        f"{t} {minimal_orbit(t)} {[(str(l), l.very_even) for l in next_to_minimal(t)]}"
        for t in CLASSICAL_TYPES
    ]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert (len(lines), digest) == (36, MIN_NTM_SHA256)
    hasse_types = [t for t in CLASSICAL_TYPES if int(t[1:]) <= 7]
    edges = [hasse_diagram(t) for t in hasse_types]
    lines = [f"{t} {[f'{lo} < {hi}' for lo, hi in e]}" for t, e in zip(hasse_types, edges)]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert (len(lines), sum(map(len, edges)), digest) == (24, 622, HASSE_SHA256)
