import hashlib
import itertools

import pytest

from orbitatlas.chevalley import build_algebra
from orbitatlas.cohom import SampleConfig, cohom_adjoints, trivial_lower_bound
from orbitatlas.flags import (
    PaintedDiagram,
    classify_ss_low_cohom,
    flag_cohom,
    flag_point,
    isotropy_roots,
    kostant_summands,
    nodes_up_to_automorphism,
    painted,
    prove_long_diagrams_excluded,
    scan_ss_cohom,
    scan_types,
)
from orbitatlas.roots import build_root_system, parse_cartan_type


def test_all_crossed_gives_all_roots():
    rs = build_root_system("B2")
    pd = painted("B2", [0, 1])
    assert set(isotropy_roots(rs, pd)) == set(rs.all_roots)


def test_A2_isotropy_roots():
    rs = build_root_system("A2")
    got = set(isotropy_roots(rs, painted("A2", [0])))
    assert got == {(1, 0), (1, 1), (-1, 0), (-1, -1)}


def test_C2_isotropy_dimension():
    rs = build_root_system("C2")
    # m = H^n + R^2 at n = 1: real dimension 6
    assert len(isotropy_roots(rs, painted("C2", [0]))) == 6


def test_flag_orbit_dim_is_the_number_of_m_roots():
    # flag_cohom passes len(isotropy_roots) as the orbit dimension; check it
    # against the exact centralizer on every diagram of length 1 and 2
    for t in scan_types(4):
        a = build_algebra(build_root_system(t))
        for size in (1, 2):
            for nodes in itertools.combinations(range(t.rank), size):
                pd = PaintedDiagram(t, frozenset(nodes))
                assert len(isotropy_roots(a.rs, pd)) == a.dim - a.centralizer_dim(flag_point(a, pd))


def test_kostant_A2_single_class():
    rs = build_root_system("A2")
    assert kostant_summands(rs, painted("A2", [0])) == 1


def test_kostant_C2_two_classes():
    rs = build_root_system("C2")
    assert kostant_summands(rs, painted("C2", [0])) == 2


def test_kostant_B2_full_flag():
    rs = build_root_system("B2")
    assert kostant_summands(rs, painted("B2", [0, 1])) >= 3


def test_painted_validation():
    with pytest.raises(ValueError):
        painted("A2", [])
    with pytest.raises(ValueError):
        painted("A2", [5])


def test_flag_cohom_projective_spaces():
    for n in (1, 2, 3):
        a = build_algebra(f"A{n}")
        assert flag_cohom(a, painted(f"A{n}", [0])).cohomogeneity == 1


def test_flag_cohom_sp_family():
    for k in (2, 3):
        a = build_algebra(f"C{k}")
        assert flag_cohom(a, painted(f"C{k}", [0])).cohomogeneity == 2


def test_flag_cohom_full_B2_flag_at_least_three():
    a = build_algebra("B2")
    assert flag_cohom(a, painted("B2", [0, 1])).cohomogeneity >= 3


def test_hermitian_rank_equals_cohom():
    # Hermitian symmetric length-1 flags: cohomogeneity = rank of the space
    for t, node, rank in [
        ("A3", 1, 2),   # Gr_2(C^4)
        ("B3", 0, 2),   # hyperquadric
        ("D4", 0, 2),
        ("A5", 2, 3),   # Gr_3(C^6)
        ("C3", 2, 3),   # Sp(3)/U(3)
    ]:
        a = build_algebra(t)
        assert flag_cohom(a, painted(t, [node])).cohomogeneity == rank


def test_lower_bound_by_summand_count():
    for t in ("A2", "B2", "C2", "A3", "B3", "C3", "G2"):
        rs = build_root_system(t)
        a = build_algebra(t)
        for r in range(1, rs.rank + 1):
            for crossed in itertools.combinations(range(rs.rank), r):
                pd = painted(t, crossed)
                s = kostant_summands(rs, pd)
                assert flag_cohom(a, pd).cohomogeneity >= s


def test_length_two_at_least_three():
    # every length-2 painted diagram over rank <= 3 types
    for t in ("A2", "B2", "C2", "G2", "A3", "B3", "C3"):
        rs = build_root_system(t)
        a = build_algebra(t)
        for crossed in itertools.combinations(range(rs.rank), 2):
            pd = painted(t, crossed)
            assert kostant_summands(rs, pd) >= 3
            assert flag_cohom(a, pd).cohomogeneity >= 3


@pytest.mark.parametrize("t", ["A1", "A4", "B4", "C3", "D4", "G2", "F4", "E6", "E8"])
def test_path_sums_are_roots(t):
    prove_long_diagrams_excluded(build_root_system(t))


def test_missing_path_root_is_an_error(monkeypatch):
    rs = build_root_system("A3")
    index = dict(rs.root_index)
    del index[(0, 1, 1)]  # alpha_2 + alpha_3, the path from node 2 to node 3
    monkeypatch.setattr(rs, "root_index", index)
    with pytest.raises(ArithmeticError, match="node 2 to node 3"):
        prove_long_diagrams_excluded(rs)
    with pytest.raises(ArithmeticError, match="A3"):
        scan_ss_cohom(3)


def test_scan_batches_give_the_one_point_reports():
    cfg = SampleConfig(seed=3, num_samples=2)
    scanned = dict(scan_ss_cohom(4, cfg))
    for t in scan_types(4):
        a = build_algebra(str(t))
        pds = [painted(t, [node]) for node in nodes_up_to_automorphism(t)]
        batch = cohom_adjoints(a, [flag_point(a, pd) for pd in pds], cfg,
                               [len(isotropy_roots(a.rs, pd)) for pd in pds])
        for pd, rep in zip(pds, batch):
            one = flag_cohom(a, pd, cfg)
            assert (rep.cohomogeneity, rep.samples) == (one.cohomogeneity, one.samples), pd
            assert scanned[pd] == one.cohomogeneity


def test_fibration_monotonicity_rank2():
    # K1 > K2 implies cohom(K1) >= cohom(K2) + (|K1| - |K2|)
    for t in ("A2", "B2", "C2", "G2"):
        a = build_algebra(t)
        cohoms = {}
        for r in range(1, 3):
            for crossed in itertools.combinations(range(2), r):
                cohoms[frozenset(crossed)] = flag_cohom(a, painted(t, crossed)).cohomogeneity
        for k1, c1 in cohoms.items():
            for k2, c2 in cohoms.items():
                if k2 < k1:
                    assert c1 >= c2 + (len(k1) - len(k2))


def test_automorphism_classes():
    assert nodes_up_to_automorphism(parse_cartan_type("A4")) == [0, 1]
    assert nodes_up_to_automorphism(parse_cartan_type("D4")) == [0, 1]
    assert nodes_up_to_automorphism(parse_cartan_type("D5")) == [0, 1, 2, 3]
    assert nodes_up_to_automorphism(parse_cartan_type("E6")) == [0, 1, 2, 3]
    assert nodes_up_to_automorphism(parse_cartan_type("F4")) == [0, 1, 2, 3]


def _automorphism_table(t):
    # the hand-written table that preceded the Cartan-matrix matcher
    fam, n = t.family, t.rank
    if fam == "A":
        return list(range((n + 1) // 2))
    if fam == "D":
        return [0, 1] if n == 4 else list(range(n - 1))
    if fam == "E" and n == 6:
        return [0, 1, 2, 3]
    return list(range(n))


def test_automorphism_classes_match_the_table():
    for t in scan_types(8):
        assert nodes_up_to_automorphism(t) == _automorphism_table(t), t


def test_scan_types_skips_D3():
    names = {str(t) for t in scan_types(4)}
    assert "D3" not in names
    assert {"A3", "B2", "C2", "D4", "G2", "F4"} <= names


def test_scan_rank3():
    got1 = {str(p) for p in classify_ss_low_cohom(3, 1)}
    assert got1 == {"A1[x1]", "A2[x1]", "A3[x1]"}
    got2 = {str(p) for p in classify_ss_low_cohom(3, 2)}
    assert got2 == {
        "A3[x2]", "B2[x1]", "B2[x2]", "B3[x1]", "C2[x1]", "C2[x2]", "C3[x1]",
    }


def test_scan_G2_target2_empty():
    a = build_algebra("G2")
    for node in (0, 1):
        assert flag_cohom(a, painted("G2", [node])).cohomogeneity >= 3


def test_trivial_lower_bound():
    a = build_algebra("A1")
    pd = painted("A1", [0])
    assert trivial_lower_bound(a.dim, len(isotropy_roots(a.rs, pd))) == 1
    assert flag_cohom(a, pd).cohomogeneity == 1  # CP^1's tangent bundle: the bound is sharp
    rs = build_root_system("G2")
    assert trivial_lower_bound(rs.dimension, len(isotropy_roots(rs, painted("G2", [0])))) == 6


def test_trivial_prune_keeps_the_low_cohomogeneity_rows():
    cfg = SampleConfig(num_samples=2)  # the claims hold for any config; 2 samples keep it quick
    full = dict(scan_ss_cohom(6, cfg))
    pruned = dict(scan_ss_cohom(6, cfg, max_cohom=2))
    assert (len(pruned), len(full)) == (33, 73)
    assert pruned == {pd: full[pd] for pd in pruned}
    for c in (1, 2):
        assert {pd for pd, v in pruned.items() if v == c} == {pd for pd, v in full.items() if v == c}
    for pd, c in full.items():
        rs = build_root_system(pd.cartan_type)
        bound = trivial_lower_bound(rs.dimension, len(isotropy_roots(rs, pd)))
        assert c >= bound, pd  # else the sampler or the bound is broken
        assert (pd in pruned) == (bound <= 2), pd
        if pd not in pruned:
            assert c >= 3, pd


# sha256 of the summand count of every painted diagram, of every length, on
# scan_types(6), recorded from the union-find over k-root steps that preceded
# the crossed-coefficient count
KOSTANT_SHA256 = "ad63e5bee4cc211c70dbb91c38af00a6da434e61ad2dc6cd810e1f2337d9f842"


def test_kostant_summands_match_the_pinned_hash():
    lines = []
    for t in scan_types(6):
        rs = build_root_system(t)
        for size in range(1, t.rank + 1):
            for nodes in itertools.combinations(range(t.rank), size):
                pd = PaintedDiagram(t, frozenset(nodes))
                lines.append(f"{pd} {kostant_summands(rs, pd)}")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert (len(lines), digest) == (548, KOSTANT_SHA256)
