"""Workloads of the orbitatlas benchmark.

A workload is a fixed list of `atlas` invocations (one *pass*) plus the Cartan
types whose algebras or root systems a user's process builds before the first
invocation (its *set-up*).  Each pass is checked against a reference that keeps
only the mathematical columns of the JSON output, so that legitimate changes to
per-sample dimensions or to the certification wording do not count as failures.

Sizes are chosen so that one pass takes a few seconds on a 2-CPU machine and a
run of the benchmark holds several passes.  The cost of a table1 or ss_scan call
depends on its `--seed` by up to 10%, so their passes make several calls, on
seeds derived from the benchmark's seed, and a run's figure depends less on
which seed the run was given.  The shares quoted in the rationales
are self-time shares of one traced pass, measured at the commit that introduced
the benchmark (Python 3.11.7, numpy 2.4.6, numpy mod-p backend, 2 CPUs).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# The heaviest Table-1 row that fits a run; the E8 row alone takes about 45 s.
TABLE1_TYPES = ("E7",)
TABLE1_SEEDS_PER_PASS = 2
# Types that `classify ss-c2 --max-rank 4` scans (flags.scan_types(4)).
SS_MAX_RANK = 4
SS_SEEDS_PER_PASS = 2
SS_TYPES = ("A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D4", "G2", "F4")
BRANCH_TYPES = (("E6", 6), ("E7", 7))

# Why each workload exists; the shares are one traced pass with seed 0.
TABLE1_RATIONALE = (
    "The multi-prime certified rank does most of the work: 20 rank_int_rows calls "
    "on the 63x133 and 70x133 real-orbit matrices use 2049 primes (102 per rank), "
    "76% of the pass (sl2.w_isotypic_action 6%, Bareiss ranks 6%, linalg.solve 4%).  "
    "It is the only "
    "workload that runs sl2, orbits.representative and the commutant.  Every call "
    "is distinct, so a cache buys nothing here."
)
SS_RATIONALE = (
    "Bareiss does the work: 1408 exact ranks take 77% of the pass "
    "(sample_orbit_point 13%, real_orbit_dim rows 9%), with no mod-p prime.  It "
    "builds 13 algebras, so it weighs most on setup_s, and each call evaluates "
    "flag_cohom 64 times for 32 distinct painted diagrams: a dedupe or cache shows "
    "here and nowhere else."
)
BRANCH_RATIONALE = (
    "The control: Freudenthal weight_multiplicities take 83% of the pass in "
    "Fraction arithmetic (branch_adjoint 13%) and ranks take 0.01%, so a rank "
    "optimisation should show no change here.  It is the only workload that "
    "measures branching and the roots subsystem code.  It ignores the seed."
)


@dataclass(frozen=True)
class Workload:
    name: str
    input_size: str
    rationale: str
    setup_algebras: tuple  # types passed to build_algebra
    setup_root_systems: tuple  # types passed to build_root_system only
    calls: Callable[[int], list]  # seed -> list of atlas argv
    extract: Callable[[dict], object]  # one call's JSON -> checked columns
    host_kernels: tuple = ("python",)  # hostspeed.KERNELS like the pass's work


def _pass_seeds(seed: int, k: int) -> range:
    """The `k` call seeds of one pass, distinct for distinct benchmark seeds."""
    return range(k * seed, k * seed + k)


def _table1_calls(seed: int) -> list:
    return [
        ["classify", "table1", "--types", ",".join(TABLE1_TYPES), "--seed", str(s)]
        for s in _pass_seeds(seed, TABLE1_SEEDS_PER_PASS)
    ]


_TABLE1_COLUMNS = ("orbit_dim", "cohom", "k_dim", "w_dim", "w_blocks", "w_commutants")


def _table1_extract(out: dict):
    return [
        {"label": r["label"], **{k: r["computed"][k] for k in _TABLE1_COLUMNS}}
        for r in out["rows"]
    ]


def _ss_calls(seed: int) -> list:
    return [
        ["classify", "ss-c2", "--max-rank", str(SS_MAX_RANK), "--seed", str(s)]
        for s in _pass_seeds(seed, SS_SEEDS_PER_PASS)
    ]


def _ss_extract(out: dict):
    return {r["label"]: sorted(r["computed"]["found"]) for r in out["rows"]}


def _branch_calls(seed: int) -> list:
    calls = []
    for t, n in BRANCH_TYPES:
        for i in range(n):
            marks = ",".join("1" if j == i else "0" for j in range(n))
            calls.append(["branch", t, "--sub", f"marks:{marks}"])
    return calls


_BRANCH_COLUMNS = ("subsystem", "highest_weight", "torus_charge", "multiplicity", "dimension")


def _branch_extract(out: dict):
    return {
        "components": [{k: c[k] for k in _BRANCH_COLUMNS} for c in out["components"]],
        "dimension_check": out["dimension_check"],
    }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="table1",
            input_size="2 calls of atlas classify table1 --types E7: one row, 5 samples each",
            rationale=TABLE1_RATIONALE,
            setup_algebras=TABLE1_TYPES,
            setup_root_systems=(),
            calls=_table1_calls,
            extract=_table1_extract,
            host_kernels=("python", "numpy"),  # mod-p ranks run in numpy
        ),
        Workload(
            name="ss_scan",
            input_size="2 calls of atlas classify ss-c2 --max-rank 4: 13 types, 2 targets each",
            rationale=SS_RATIONALE,
            setup_algebras=SS_TYPES,
            setup_root_systems=(),
            calls=_ss_calls,
            extract=_ss_extract,
        ),
        Workload(
            name="branch_levi",
            input_size="13 atlas branch calls, one per node of E6 and E7",
            rationale=BRANCH_RATIONALE,
            setup_algebras=(),
            setup_root_systems=tuple(t for t, _ in BRANCH_TYPES),
            calls=_branch_calls,
            extract=_branch_extract,
        ),
    )
}


def reference_path(name: str) -> Path:
    return REFERENCE_DIR / f"{name}.json"


def load_reference(name: str):
    with reference_path(name).open() as fh:
        return json.load(fh)


def check_pass(results: list, reference) -> str | None:
    """None if every call exited 0 and matches the reference, else a reason."""
    if len(results) != len(reference):
        return f"{len(results)} calls vs {len(reference)} in the reference"
    for i, ((rc, got), want) in enumerate(zip(results, reference)):
        if rc != 0:
            return f"call {i}: exit code {rc}"
        if [rc, got] != want:
            return f"call {i}: output differs from the reference"
    return None
