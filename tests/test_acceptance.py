"""Acceptance suite: the package's exit criteria, one test per criterion.

Each test prints a single PASS line on success (run with -s or -v to see
them); every comparison is exact integer/rational equality.
"""

import itertools

from orbitatlas.branching import branch_adjoint
from orbitatlas.chevalley import build_algebra
from orbitatlas.classify import (
    expected_ss_c1,
    expected_ss_c2,
    mixed_orbit_cohom,
    product_orbit_cohom,
    reproduce_table1,
    reproduce_thm_ss_c2,
)
from orbitatlas.cohom import SampleConfig, cohom_adjoint
from orbitatlas.flags import flag_cohom, kostant_summands, painted, scan_ss_cohom
from orbitatlas.orbits import (
    Partition,
    hasse_diagram,
    min_orbit_representative,
    minimal_orbit,
    next_to_minimal,
    representative,
    valid_partitions,
    weighted_diagram,
)
from orbitatlas.roots import build_root_system, root_centralizer_subsystem
from test_chevalley import compact_gram_killing
from test_cohom import orbit_cohoms
from test_linalg import is_negative_definite


def _ok(n, msg):
    print(f"PASS criterion {n}: {msg}")


MINIMAL_TYPES = [
    "A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D4",
    "G2", "F4", "E6",
]


def test_criterion_1_minimal_orbit_cohomogeneity():
    for t in MINIMAL_TYPES:
        a = build_algebra(t)
        r = cohom_adjoint(a, min_orbit_representative(a))
        assert r.cohomogeneity == 1, (t, r)
    _ok(1, f"cohom(O_min) = 1 for {', '.join(MINIMAL_TYPES)}")


def test_criterion_2_table1_reproduction():
    table = reproduce_table1()
    assert table.all_match
    rows = {r.label: r for r in table.rows}
    # spot-check the headline values straight off the computed rows
    assert rows["A2 (3)"].computed["cohom"] == 4
    e8 = next(r for lbl, r in rows.items() if lbl.startswith("E8"))
    assert e8.computed["cohom"] == 2
    assert e8.computed["w_dim"] == 13
    assert e8.computed["k_dim"] == 78
    _ok(2, f"all {len(table.rows)} next-to-minimal rows match (cohom, dim k, dim W)")


def test_criterion_3_ss_cohom_two_scan():
    scan = scan_ss_cohom(6)
    found2 = {str(p) for p, c in scan if c == 2}
    assert found2 == expected_ss_c2(6), found2 ^ expected_ss_c2(6)
    found1 = {str(p) for p, c in scan if c == 1}
    assert found1 == expected_ss_c1(6), found1 ^ expected_ss_c1(6)
    _ok(3, f"scan(rank<=6): target 2 -> {len(found2)} diagrams (five families), "
           f"target 1 -> exactly the A_n end nodes")


def test_criterion_4_length_two_diagrams():
    count = 0
    for t in ("A2", "B2", "C2", "G2", "A3", "B3", "C3", "A4", "B4", "C4", "D4", "F4"):
        rs = build_root_system(t)
        a = build_algebra(t)
        for crossed in itertools.combinations(range(rs.rank), 2):
            pd = painted(t, crossed)
            assert kostant_summands(rs, pd) >= 3, pd
            assert flag_cohom(a, pd).cohomogeneity >= 3, pd
            count += 1
    _ok(4, f"{count} length-2 diagrams over rank <= 4 all have >= 3 summands and cohom >= 3")


def test_criterion_5_monotonicity_suites():
    # nilpotent closure covers
    pairs = 0
    for t in ("A3", "A4", "B2", "C2", "C3"):
        a = build_algebra(t)
        for lo, hi in hasse_diagram(t):
            if lo.partition.parts == (1,) * lo.partition.total:
                continue  # zero orbit has no compact-orbit geometry to compare
            c_lo, c_hi = orbit_cohoms(a, [lo, hi])
            assert c_lo < c_hi, (t, str(lo), str(hi), c_lo, c_hi)
            pairs += 1
    # semi-simple fibration inequality over rank <= 3
    flag_pairs = 0
    for t in ("A2", "B2", "C2", "G2", "A3", "B3", "C3"):
        a = build_algebra(t)
        rs = build_root_system(t)
        cohoms = {}
        for r in range(1, rs.rank + 1):
            for crossed in itertools.combinations(range(rs.rank), r):
                cohoms[frozenset(crossed)] = flag_cohom(a, painted(t, crossed)).cohomogeneity
        for k1, c1 in cohoms.items():
            for k2, c2 in cohoms.items():
                if k2 < k1:
                    assert c1 >= c2 + len(k1) - len(k2), (t, k1, k2)
                    flag_pairs += 1
    _ok(5, f"strict monotonicity on {pairs} nilpotent covers; "
           f"fibration inequality on {flag_pairs} painted pairs")


def test_criterion_6_mixed_orbit():
    assert mixed_orbit_cohom(3).cohomogeneity == 5
    assert mixed_orbit_cohom(4).cohomogeneity == 5
    _ok(6, "mixed orbit diag(l,..,l,-nl) + Jordan step has cohomogeneity 5 (n = 3, 4)")


def test_criterion_7_product_additivity():
    p1 = product_orbit_cohom([("A1", minimal_orbit("A1")), ("A1", minimal_orbit("A1"))])
    assert p1.report.cohomogeneity == sum(p1.component_cohoms) == 2
    p2 = product_orbit_cohom([("A2", painted("A2", [0])), ("A1", minimal_orbit("A1"))])
    assert p2.report.cohomogeneity == sum(p2.component_cohoms) == 2
    _ok(7, "product cohomogeneity = sum of components, direct sampler agrees")


def test_criterion_8_fig1_pipeline():
    rs = build_root_system("E8")
    marks = [1, 0, 0, 0, 0, 0, 0, 0]
    sub = root_centralizer_subsystem(rs, marks)
    a = build_algebra("E8")
    zh = a.centralizer_dim(a.coweight_vector(marks))
    subalg_dim = len(sub.roots) + (rs.rank - sub.torus_dim)
    assert subalg_dim + sub.torus_dim == zh == 92
    br = branch_adjoint(rs, sub.simple_roots)
    assert br.total_dimension == 248
    # oracle case: G2 adjoint to the long-root A2
    g2 = build_root_system("G2")
    longs = [r for r in g2.positive_roots if g2.lengths[g2.root_index[r]] == 3]
    lset = set(longs)
    simples = [
        r for r in longs
        if not any(tuple(x - y for x, y in zip(r, s)) in lset for s in longs if s != r)
    ]
    dims = sorted(c.dimension * c.multiplicity for c in branch_adjoint(g2, simples).components)
    assert dims == [3, 3, 8]
    _ok(8, "E8 centralizer bookkeeping (91 + 1 = 92), branch sum 248, G2 -> A2 = 8+3+3")


def test_criterion_9_structural_invariants():
    # Jacobi, proved on the generators (construction proves it too)
    for t in ("A1", "A2", "B2", "C2", "G2", "A3", "B3", "C3", "A4", "B4", "C4", "D4", "F4",
              "E6", "E7", "E8"):
        assert build_algebra(t).verify_jacobi()
    # Killing form negative definite on compact bases
    for t in ("A2", "B2", "C3", "G2", "F4", "D4", "E6"):
        assert is_negative_definite(compact_gram_killing(build_algebra(t)))
    # relations of the triple `representative` returns
    for t, p in [("A3", (2, 2)), ("C3", (2, 2, 1, 1)), ("B4", (2, 2, 2, 2, 1))]:
        a = build_algebra(t)
        w = weighted_diagram(t, Partition(p))
        tr = representative(a, w)
        assert a.bracket(tr.x, tr.y) == tr.h
        assert a.bracket(tr.h, tr.x) == tr.x.scale(2)
        assert a.bracket(tr.h, tr.y) == tr.y.scale(-2)
    # scaling invariance of nilpotent centralizer dimensions
    for t in ("C3", "F4"):
        a = build_algebra(t)
        x = min_orbit_representative(a)
        for lam2 in (4, 9):
            assert a.centralizer_dim(x.scale(lam2)) == a.centralizer_dim(x)
    # C2 Hasse chain
    edges = {(str(lo), str(hi)) for lo, hi in hasse_diagram("C2")}
    assert edges == {
        ("(1,1,1,1)", "(2,1,1)"), ("(2,1,1)", "(2,2)"), ("(2,2)", "(4)"),
    }
    _ok(9, "Jacobi, Killing definiteness, triple relations, scaling, C2 Hasse chain")


def test_tables_2_3_emission():
    from orbitatlas.classify import assemble_tables_2_3

    t2, t3 = assemble_tables_2_3()
    assert t2.all_match and t3.all_match
    assert all(r.provenance for r in t2.rows + t3.rows)
    _ok("tables23", "both tables emitted, rows provenance-tagged, desk-scale support checks pass")
