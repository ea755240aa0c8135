import pytest

from orbitatlas.classify import (
    assemble_tables_2_3,
    expected_ss_c1,
    expected_ss_c2,
    load_shared_orbits,
    mixed_orbit_cohom,
    product_orbit_cohom,
    reproduce_table1,
    reproduce_thm_ss_c2,
    table1_expected,
)
from orbitatlas.cohom import SampleConfig
from orbitatlas.flags import painted
from orbitatlas.orbits import minimal_orbit


def test_mixed_orbit_cohom_is_five():
    assert mixed_orbit_cohom(3).cohomogeneity == 5


def test_mixed_orbit_semisimple_part_alone():
    # sanity: the semi-simple part alone is the cohomogeneity-one T*CP(n)
    from orbitatlas.chevalley import build_algebra
    from orbitatlas.cohom import cohom_adjoint

    a = build_algebra("A3")
    assert cohom_adjoint(a, a.coweight_vector([0, 0, 4])).cohomogeneity == 1


def test_mixed_orbit_rejects_small_rank():
    with pytest.raises(ValueError):
        mixed_orbit_cohom(2)


def test_product_minimal_times_minimal():
    p = product_orbit_cohom(
        [("A1", minimal_orbit("A1")), ("A1", minimal_orbit("A1"))]
    )
    assert p.component_cohoms == (1, 1)
    assert p.report.cohomogeneity == 2
    assert p.additive


def test_product_flag_times_minimal():
    p = product_orbit_cohom(
        [("A2", painted("A2", [0])), ("A1", minimal_orbit("A1"))]
    )
    assert p.report.cohomogeneity == 2
    assert p.additive


def test_product_single_component():
    p = product_orbit_cohom([("A2", minimal_orbit("A2"))])
    assert p.report.cohomogeneity == p.component_cohoms[0] == 1


def test_table1_expected_rows():
    assert table1_expected("A2")[0]["cohom"] == 4
    assert table1_expected("G2")[0]["w_dim"] == 4
    assert table1_expected("F4")[0] == {
        "orbit": "wdd 0001", "cohom": 2, "k_dim": 15, "w_dim": 6, "k_name": "so(6)"}
    assert table1_expected("E8")[0]["k_dim"] == 78
    assert len(table1_expected("B4")) == 2
    assert len(table1_expected("B3")) == 1


def test_reproduce_table1_small():
    table = reproduce_table1(types=["A2", "A3", "C2", "B3", "G2"])
    assert table.all_match
    assert len(table.rows) == 5


@pytest.mark.parametrize("tname, via_cli", [("G2", False), ("E6", False), ("E6", True)])
def test_no_caller_solves_the_triple_of_representative_again(monkeypatch, tname, via_cli):
    """`table1_row` and `atlas decomp` read the sl2 triple `representative` certified."""
    from orbitatlas import sl2
    from orbitatlas.chevalley import build_algebra
    from orbitatlas.classify import table1_row
    from orbitatlas.cli import main
    from orbitatlas.orbits import next_to_minimal, representative, weighted_diagram

    a = build_algebra(tname)
    label = next_to_minimal(tname)[0]
    cfg = SampleConfig(num_samples=1)
    solves = []
    solve = sl2.solve_linear  # called by `complete_triple` alone
    monkeypatch.setattr(sl2, "solve_linear", lambda *args: solves.append(args) or solve(*args))
    representative(a, weighted_diagram(tname, label), seed=cfg.seed)
    alone = len(solves)
    if via_cli:
        assert main(["decomp", tname, "--label", "ntm"]) == 0  # seed 0, as cfg's
    else:
        table1_row(a, label, cfg)
    assert len(solves) == 2 * alone


def test_reproduce_table1_reports_diagnostics_on_mismatch(monkeypatch):
    import orbitatlas.classify as C

    bad = dict(C.table1_expected("A2")[0])
    bad["cohom"] = 3
    monkeypatch.setattr(C, "table1_expected", lambda t: [bad])
    table = C.reproduce_table1(types=["A2"])
    assert not table.all_match


def test_expected_scan_sets():
    e1 = expected_ss_c1(4)
    assert e1 == {"A1[x1]", "A2[x1]", "A3[x1]", "A4[x1]"}
    e2 = expected_ss_c2(4)
    assert "C3[x1]" in e2 and "D4[x1]" in e2 and "A3[x2]" in e2
    assert "D5[x4]" in expected_ss_c2(5)
    assert "E6[x1]" in expected_ss_c2(6)


def test_reproduce_thm_ss_c2_rank3():
    table = reproduce_thm_ss_c2(max_rank=3)
    assert table.all_match


def test_shared_orbit_data_loads():
    data = load_shared_orbits()
    assert len(data["pairs"]) == 7
    covers = {p["cover"] for p in data["pairs"]}
    assert {"E6", "F4", "so(7)", "G2"} <= covers


def test_tables_2_3_assembly():
    t2, t3 = assemble_tables_2_3()
    assert len(t2.rows) == 9
    assert len(t3.rows) == 7
    for row in t2.rows + t3.rows:
        assert row.provenance  # every row carries a provenance tag
    shared_rows = [r for r in t2.rows if "external data" in r.provenance]
    assert len(shared_rows) == 6
    assert all(r.computed.get("shared_pair") for r in shared_rows)


def test_every_shared_orbit_pair_is_cited_by_a_row():
    t2, t3 = assemble_tables_2_3()
    cited = {(r.computed["shared_pair"]["cover"], r.computed["shared_pair"]["algebra"])
             for r in t2.rows + t3.rows if "shared_pair" in r.computed}
    assert cited == {(p["cover"], p["algebra"]) for p in load_shared_orbits()["pairs"]}
    assert [r.computed["shared_pair"]["family"] for r in t3.rows[:2]] == ["product"] * 2


def test_tables_2_3_match_each_row_on_its_own_support_checks(monkeypatch):
    # a failed product-additivity check fails only the rows that cite it
    import dataclasses

    import orbitatlas.classify as classify

    def non_additive(components, cfg=SampleConfig()):
        r = real(components, cfg)
        return dataclasses.replace(r, component_cohoms=r.component_cohoms + (1,))

    real = classify.product_orbit_cohom
    monkeypatch.setattr(classify, "product_orbit_cohom", non_additive)
    t2, t3 = assemble_tables_2_3()
    failed = [r for r in t2.rows + t3.rows if not r.match]
    assert [r.label for r in failed] == [r.label for r in t3.rows[:2]]
    assert all(r.computed["support_checks"] == {"table1-desk": True, "product": False,
                                                "min-orbit": True} for r in failed)
    assert all(all(r.computed["support_checks"].values()) for r in t2.rows + t3.rows[2:])


def test_a_row_citing_a_missing_shared_pair_is_a_mismatch(monkeypatch, capsys):
    import orbitatlas.classify as classify
    from orbitatlas.cli import main

    def without_so7_g2():
        data = real()
        data["pairs"] = [p for p in data["pairs"] if (p["cover"], p["algebra"]) != ("so(7)", "G2")]
        return data

    real = classify.load_shared_orbits
    monkeypatch.setattr(classify, "load_shared_orbits", without_so7_g2)
    with pytest.raises(classify.ClassificationError, match=r"Gr~_4\(R\^7\) \| G2: .*so\(7\) > G2"):
        assemble_tables_2_3()
    assert main(["classify", "tables23"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("classification mismatch: ")


def test_tables_2_3_pass_the_sampler_config_to_every_cohomogeneity(monkeypatch):
    # the flag, desk-scale Table 1, product and min-orbit checks all sample orbits
    import orbitatlas.classify as classify
    import orbitatlas.flags as flags

    seen = []

    def spy(a, x0, cfg=SampleConfig(), **kw):
        seen.append(cfg)
        return real(a, x0, cfg, **kw)

    real = classify.cohom_adjoint
    monkeypatch.setattr(classify, "cohom_adjoint", spy)
    monkeypatch.setattr(flags, "cohom_adjoint", spy)
    cfg = SampleConfig(seed=5, num_samples=2, unipotent_steps=1)
    assemble_tables_2_3(cfg)
    assert len(seen) > 5
    assert all(c is cfg for c in seen)


def test_product_of_a_nilpotent_and_a_flag_orbit_adds():
    # A3 (2,2) takes `representative`'s path; the values were pinned before the
    # product point was built from the package's constructors
    from orbitatlas.orbits import OrbitLabel, Partition

    p = product_orbit_cohom(
        [("A3", OrbitLabel(partition=Partition((2, 2)))), ("A2", painted("A2", [0]))]
    )
    assert p.component_cohoms == (2, 1)
    assert p.report.cohomogeneity == 3
    assert p.report.orbit_real_dim == 24
    assert [d for _, d in p.report.samples] == [21] * 5
    assert p.additive


def test_product_of_an_exceptional_minimal_and_a_flag_orbit_adds():
    p = product_orbit_cohom([("G2", minimal_orbit("G2")), ("A1", painted("A1", [0]))])
    assert p.component_cohoms == (1, 1)
    assert p.report.cohomogeneity == 2
    assert p.report.orbit_real_dim == 16
    assert [d for _, d in p.report.samples] == [14, 14, 13, 14, 14]
    assert p.additive
