import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from orbitatlas.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_roots_json(capsys):
    code, out = run(capsys, "roots", "A2")
    data = json.loads(out)
    assert code == 0
    assert data["rank"] == 2
    assert data["num_positive_roots"] == 3
    assert data["highest_root"] == [1, 1]


def test_roots_product(capsys):
    code, out = run(capsys, "roots", "A1xA1")
    data = json.loads(out)
    assert data["dimension"] == 6


def test_orbits_list(capsys):
    code, out = run(capsys, "orbits", "list", "C2")
    data = json.loads(out)
    assert code == 0
    dims = {r["label"]: r["dimension"] for r in data["orbits"]}
    assert dims["(2,2)"] == 6
    minimal = [r for r in data["orbits"] if r["minimal"]]
    assert minimal[0]["label"] == "(2,1,1)"


def test_orbits_list_exceptional(capsys):
    code, out = run(capsys, "orbits", "list", "G2")
    data = json.loads(out)
    dims = sorted(r["dimension"] for r in data["orbits"])
    assert dims == [6, 8]


def test_hasse_dot(capsys):
    code, out = run(capsys, "orbits", "hasse", "C2", "--format", "dot")
    assert code == 0
    assert out.startswith("digraph")
    assert '"(2,2)" -> "(4)"' in out


def test_hasse_json(capsys):
    code, out = run(capsys, "orbits", "hasse", "A2")
    data = json.loads(out)
    assert ["(2,1)", "(3)"] in data["edges"]


def test_cohom_orbit(capsys):
    code, out = run(capsys, "cohom", "orbit", "A1", "--label", "2")
    data = json.loads(out)
    assert code == 0
    assert data["cohomogeneity"] == 1
    assert data["orbit_real_dim"] == 4


def test_cohom_orbit_label_forms(capsys):
    code, out = run(capsys, "cohom", "orbit", "A2", "--label", "min", "--samples", "3")
    assert json.loads(out)["cohomogeneity"] == 1
    code, out = run(capsys, "cohom", "orbit", "G2", "--label", "ntm")
    assert json.loads(out)["cohomogeneity"] == 2
    code, out = run(capsys, "cohom", "orbit", "G2", "--label", "wdd:01")
    assert json.loads(out)["cohomogeneity"] == 1


def test_cohom_flag(capsys):
    code, out = run(capsys, "cohom", "flag", "C3", "--cross", "1")
    data = json.loads(out)
    assert data["cohomogeneity"] == 2
    assert data["num_kostant_summands"] == 2


def test_decomp(capsys):
    code, out = run(capsys, "decomp", "A2", "--label", "3")
    data = json.loads(out)
    assert data["w_dim"] == 3
    assert data["k_dim"] == 0
    assert data["isotypic_multiplicities"] == {"4": 1}


def test_branch_nodes(capsys):
    code, out = run(capsys, "branch", "A2", "--sub", "nodes:1")
    data = json.loads(out)
    assert data["dimension_check"] is True
    assert sorted(c["dimension"] for c in data["components"]) == [1, 2, 2, 3]


def test_branch_marks(capsys):
    code, out = run(capsys, "branch", "F4", "--sub", "marks:1,0,0,0")
    data = json.loads(out)
    assert data["centralizer_type"] == "C3"
    assert data["parent_dimension"] == 52
    assert data["dimension_check"] is True


def test_classify_table1_subset(capsys):
    code, out = run(capsys, "classify", "table1", "--types", "A2,C2")
    data = json.loads(out)
    assert code == 0
    assert data["all_match"] is True


def test_classify_mixed(capsys):
    code, out = run(capsys, "classify", "mixed", "--n", "3")
    assert json.loads(out)["cohomogeneity"] == 5


def test_classify_ss_c2_small(capsys):
    code, out = run(capsys, "classify", "ss-c2", "--max-rank", "2")
    data = json.loads(out)
    assert code == 0
    assert data["all_match"] is True


@pytest.mark.parametrize(
    "spec",
    ["nodes:1,1", "nodes:0", "nodes:5", "nodes:", "marks:1", "marks:x,1", "foo",
     "marks:1,1"],  # a regular coweight: its centralizer has no roots
)
def test_branch_bad_sub_is_one_line_exit_2(capsys, spec):
    with pytest.raises(SystemExit) as exc:
        main(["branch", "A2", "--sub", spec])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.strip().splitlines()[-1].startswith("atlas branch: error: --sub")


@pytest.mark.parametrize("argv, prog", [
    (["roots", "E9"], "atlas roots"),
    (["cohom", "flag", "C3", "--cross", "0"], "atlas cohom flag"),
    (["orbits", "list", "A1xA1"], "atlas orbits list"),
    (["classify", "mixed", "--n", "2"], "atlas classify"),
    (["cohom", "orbit", "E7", "--label", "ntm", "--samples", "0"], "atlas cohom orbit"),
    (["cohom", "orbit", "G2", "--label", "wdd:20"], "atlas cohom orbit"),
    (["cohom", "orbit", "B4", "--label", "ntm"], "atlas cohom orbit"),
    (["cohom", "flag", "A2", "--cross", "1,1"], "atlas cohom flag"),
    (["cohom", "orbit", "A1", "--label", "ntm"], "atlas cohom orbit"),
    (["classify", "mixed", "--n", "0"], "atlas classify"),
    (["classify", "ss-c2", "--max-rank", "0"], "atlas classify"),
    (["classify", "table1", "--types", "A1"], "atlas classify"),
    (["cohom", "orbit", "A2", "--label", "wdd:20"], "atlas cohom orbit"),  # A2's diagrams: 00, 11, 22
])
def test_bad_input_is_one_line_exit_2(capsys, argv, prog):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith(f"{prog}: error: ")


@pytest.mark.parametrize("argv", [
    ["orbits", "list", "A1xA1"],
    ["orbits", "hasse", "A1xA1"],
    ["cohom", "orbit", "A1xA1", "--label", "min"],
    ["cohom", "orbit", "A1xA1", "--label", "ntm"],
    ["cohom", "orbit", "A1xA1", "--label", "2,1"],
    ["decomp", "A1xA1", "--label", "min"],
    ["classify", "table1", "--types", "A1xA1"],
], ids="-".join)
def test_orbit_labels_on_a_product_type_give_one_error_naming_it(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.endswith(": error: A1xA1 is a product type: only wdd:<marks> orbit labels "
                         "work on it")


def test_a_diagram_label_still_works_on_a_product_type(capsys):
    code, out = run(capsys, "cohom", "orbit", "A1xA1", "--label", "wdd:22")
    assert code == 0
    assert json.loads(out)["weighted_diagram"] == "22"


def test_empty_types_filter_is_an_unparsable_type(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify", "table1", "--types", ""])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "atlas classify: error: cannot parse Cartan type ''\n"


def test_unparsable_rank_names_the_type(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["roots", "Ay"])
    assert exc.value.code == 2
    assert capsys.readouterr().err == "atlas roots: error: cannot parse Cartan type 'Ay'\n"


@pytest.mark.parametrize("label, names", [
    ("wdd:20", ["diagram 20"]),  # not a weighted Dynkin diagram of G2
    ("ntm", ["wdd:2000", "wdd:0001"]),  # B4 has two next-to-minimal orbits
])
def test_label_errors_name_the_diagrams(capsys, label, names):
    t = "G2" if label == "wdd:20" else "B4"
    with pytest.raises(SystemExit):
        main(["cohom", "orbit", t, "--label", label])
    err = capsys.readouterr().err
    assert all(n in err for n in names)


def test_a_type_without_a_next_to_minimal_orbit_says_so(capsys):
    with pytest.raises(SystemExit):
        main(["cohom", "orbit", "A1", "--label", "ntm"])
    assert "A1 has no next-to-minimal orbit" in capsys.readouterr().err


def test_table1_of_a_type_without_a_next_to_minimal_orbit_says_so(capsys):
    with pytest.raises(SystemExit):
        main(["classify", "table1", "--types", "A1"])
    assert "A1 has no next-to-minimal orbit" in capsys.readouterr().err


def test_classify_ss_c2_rank_one(capsys):
    code, out = run(capsys, "classify", "ss-c2", "--max-rank", "1")
    data = json.loads(out)
    assert code == 0
    assert data["rows"][0]["computed"]["found"] == []
    assert data["rows"][1]["computed"]["found"] == ["A1[x1]"]


GOLDEN = Path(__file__).parent / "golden"


def _marks(n, i):
    return "marks:" + ",".join("1" if j == i else "0" for j in range(1, n + 1))


@pytest.mark.parametrize("name, argv", [
    ("classify_table1", ["classify", "table1", "--types", "A2,B3,C2,G2,F4", "--seed", "0"]),
    ("classify_ss_c2", ["classify", "ss-c2", "--max-rank", "3", "--seed", "0"]),
    ("branch_E6", ["branch", "E6", "--sub", "marks:0,0,0,1,0,0"]),
    ("decomp_E6_ntm", ["decomp", "E6", "--label", "ntm"]),
    ("cohom_flag_C3", ["cohom", "flag", "C3", "--cross", "1"]),
    ("classify_mixed", ["classify", "mixed", "--n", "3"]),
    ("cohom_orbit_E7_ntm", ["cohom", "orbit", "E7", "--label", "ntm", "--seed", "0"]),
    ("cohom_flag_E6", ["cohom", "flag", "E6", "--cross", "1", "--seed", "3"]),
    ("cohom_orbit_E8_ntm", ["cohom", "orbit", "E8", "--label", "ntm", "--seed", "0"]),
    ("branch_G2_nodes_2", ["branch", "G2", "--sub", "nodes:2"]),
    ("branch_E8_marks_e1", ["branch", "E8", "--sub", _marks(8, 1)]),
] + [
    # each maximal Levi of E6 and E7 (E6 node 4 is `branch_E6` above)
    (f"branch_{t}_marks_e{i}", ["branch", t, "--sub", _marks(n, i)])
    for t, n in (("E6", 6), ("E7", 7)) for i in range(1, n + 1) if (t, i) != ("E6", 4)
] + [
    # the two outputs with a D4 component, whose ordering fixes the triality convention
    ("branch_E6_nodes_2_3_4_5", ["branch", "E6", "--sub", "nodes:2,3,4,5"]),
    ("branch_D5_marks_e1", ["branch", "D5", "--sub", _marks(5, 1)]),
] + [
    # the first rank whose cohomogeneity-two set holds both D5[x4] and E6[x1]
    ("classify_ss_c2_r6_s3", ["classify", "ss-c2", "--max-rank", "6", "--seed", "3"]),
] + [
    # the closure order with very even [I/II] labels, and a classical orbit list
    ("orbits_hasse_D6", ["orbits", "hasse", "D6"]),
    ("orbits_list_B5", ["orbits", "list", "B5"]),
] + [
    # the only golden run of the product-orbit cohomogeneity
    ("classify_tables23", ["classify", "tables23"]),
] + [
    # non-simply-laced: torus charges of +-1/2, dimensions and order where d_i != 1
    (f"branch_{t}_marks_e{i}", ["branch", t, "--sub", _marks(4, i)])
    for t, i in (("F4", 4), ("F4", 1), ("C4", 1), ("B4", 4))
] + [
    # the sl2 data of the largest next-to-minimal orbits, read off `representative`'s triple
    ("decomp_E7_ntm", ["decomp", "E7", "--label", "ntm"]),
    ("decomp_E8_ntm", ["decomp", "E8", "--label", "ntm"]),
] + [
    # the exceptional rows, which carry no very_even_pair key
    ("orbits_list_E8", ["orbits", "list", "E8"]),
    # a very even [I/II] label, and two next-to-minimal flags
    ("orbits_list_D4", ["orbits", "list", "D4"]),
    # a non-default sampler config through every support check
    ("classify_tables23_s1", ["classify", "tables23", "--seed", "1", "--samples", "3"]),
    # the largest W-block that the commutant certificate meets: E8's, of dimension 13
    ("classify_table1_E8", ["classify", "table1", "--types", "E8", "--seed", "0"]),
])
def test_output_matches_golden(capsys, name, argv):
    code, out = run(capsys, *argv)
    assert code == 0
    assert out == (GOLDEN / f"{name}.json").read_text()


def test_a_closed_output_pipe_exits_1_without_a_traceback():
    # about 300 KB of JSON, more than a pipe buffer holds: the write blocks until the close
    proc = subprocess.Popen(
        [sys.executable, "-m", "orbitatlas.cli", "orbits", "list", "D16"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.stdout.read(1) == b"{"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == b""


def test_the_parser_built_once_serves_a_good_call_after_a_bad_one(capsys):
    fresh = subprocess.run(
        [sys.executable, "-m", "orbitatlas.cli", "roots", "A2xG2"], capture_output=True,
        text=True, check=True, env={**os.environ, "PYTHONPATH": str(SRC)},
    ).stdout
    with pytest.raises(SystemExit) as exc:
        main(["roots", "A2xG2", "--bogus"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["branch", "A2", "--sub", "marks:1,1"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert run(capsys, "roots", "A2xG2") == (0, fresh)


def test_failed_exactness_check_still_propagates(monkeypatch):
    from orbitatlas import cli

    def broken(_):
        raise ArithmeticError("exactness check failed")

    monkeypatch.setattr(cli, "build_root_system", broken)
    with pytest.raises(ArithmeticError):
        main(["roots", "A2"])


@pytest.mark.parametrize("argv, forms", [
    (["cohom", "orbit", "E6", "--label", "foo"], ["min", "ntm", "wdd:", "3,1,1"]),
    (["cohom", "orbit", "A3", "--label", "2,x"], ["min", "ntm", "wdd:", "3,1,1"]),
    (["cohom", "orbit", "A3", "--label", "wdd:1x1"], ["min", "ntm", "wdd:", "3,1,1"]),
    (["decomp", "A2", "--label", "q"], ["min", "ntm", "wdd:", "3,1,1"]),
    (["cohom", "flag", "A3", "--cross", "x"], ["comma-separated 1-based nodes"]),
    (["cohom", "flag", "A3", "--cross", "1,"], ["comma-separated 1-based nodes"]),
])
def test_unparseable_labels_and_nodes_name_the_accepted_forms(capsys, argv, forms):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert "invalid literal" not in err
    assert all(f in err for f in forms)


def test_cohom_orbit_passes_steps_and_samples_to_the_sampler(capsys, monkeypatch):
    from dataclasses import asdict

    from orbitatlas import cli
    from orbitatlas.chevalley import build_algebra
    from orbitatlas.cohom import SampleConfig
    from orbitatlas.orbits import (
        WeightedDynkinDiagram,
        expected_orbit_dimension,
        minimal_orbit,
        representative,
    )

    seen = []

    def spy(a, x0, cfg, **kw):
        seen.append(cfg)
        return real(a, x0, cfg, **kw)

    real = cli.cohom_adjoint
    monkeypatch.setattr(cli, "cohom_adjoint", spy)
    code, out = run(capsys, "cohom", "orbit", "A2", "--label", "min", "--steps", "0",
                    "--samples", "2")
    assert code == 0
    cfg = SampleConfig(num_samples=2, unipotent_steps=0)
    assert seen == [cfg]
    a = build_algebra("A2")
    w = WeightedDynkinDiagram((1, 1))
    assert str(minimal_orbit("A2")) == "(2,1)"
    rep = real(a, representative(a, w).x, cfg, orbit_dim=expected_orbit_dimension(a.rs, w))
    expected = {"type": "A2", "label": "(2,1)", "weighted_diagram": "11", **asdict(rep)}
    assert json.loads(out) == json.loads(json.dumps(expected))
