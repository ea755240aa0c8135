import random
from fractions import Fraction
from math import factorial

import pytest

import numpy as np

from orbitatlas import cohom
from orbitatlas.chevalley import AlgebraElement, build_algebra
from orbitatlas._modp import P, rank_mod_p, residues
from orbitatlas.cohom import (
    COEFFICIENT_RANGE,
    STACK_CELLS,
    SampleConfig,
    cohom_adjoint,
    cohom_adjoints,
    derived_seed,
    real_orbit_dim,
    sample_orbit_point,
)
from orbitatlas.flags import scan_types
from orbitatlas.linalg import rank_int_rows
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


def test_zero_steps_returns_x0():
    a = build_algebra("A2")
    x0 = a.root_vector(a.rs.highest_root)
    cfg = SampleConfig(seed=5, unipotent_steps=0)
    assert sample_orbit_point(a, [x0], cfg).tolist() == [[[v % P for v in x0.num]] * cfg.num_samples]


def test_single_step_sl2():
    # exp(ad e) h = h + [e, h] = h - 2e
    a = build_algebra("A1")
    h = a.coweight_vector([2])
    e = a.root_vector((1,))
    moved = a.bracket(e, h)
    assert moved == e.scale(-2)


def test_sampling_preserves_centralizer_dim():
    a = build_algebra("C2")
    x0 = min_orbit_representative(a)
    orbit_dim = a.dim - a.centralizer_dim(x0)
    points = sample_orbit_point(a, [x0], SampleConfig(seed=11, num_samples=4))[0]
    stack = np.stack([residues(a.ad_rows(x.tolist()), a.dim) for x in points])
    assert rank_mod_p(stack) == [orbit_dim] * len(points)


def test_real_orbit_dims_A1():
    a = build_algebra("A1")
    xs = np.array([[0] * a.dim, a.root_vector((1,)).num, a.coweight_vector([2]).num]) % P
    assert real_orbit_dim(a, xs) == [0, 3, 2]


def _exact_orbit_point(a, x0, cfg, index):
    """The exact image that `sample_orbit_point` reduces: the same draws, flowed in AlgebraElements."""
    rng = random.Random(derived_seed(cfg, index))
    roots = a.rs.all_roots
    params = [c for c in range(-COEFFICIENT_RANGE, COEFFICIENT_RANGE + 1) if c]
    x = x0
    for _ in range(cfg.steps_for(a)):
        e = a.root_vector(roots[rng.randrange(len(roots))])
        t = rng.choice(params)
        image, term, k = x, a.bracket(e, x), 1
        while any(term.num):
            image = image + term.scale(Fraction(t ** k, factorial(k)))
            term, k = a.bracket(e, term), k + 1
        x = image
    return x


def _exact_real_orbit_dim(a, y):
    """The real orbit dimension at the exact point y: Bareiss ranks of its compact-form rows."""
    rows = a.ad_rows(list(y.num))
    r, npos = a.rank, a.rs.num_positive
    pairs = list(zip(rows[r:r + npos], rows[r + npos:]))
    real_rows = [[p - q for p, q in zip(ve, vf)] for ve, vf in pairs]
    imag_rows = rows[:r] + [[p + q for p, q in zip(ve, vf)] for ve, vf in pairs]
    return rank_int_rows(real_rows, a.dim) + rank_int_rows(imag_rows, a.dim)


@pytest.mark.parametrize("name", ["G2", "B3", "F4", "E6"])
def test_sampled_rank_mod_p_equals_exact_rank(name):
    a = build_algebra(name)
    # x0 / 2 is on the same nilpotent orbit, and its denominator must show in the residues
    x0 = representative(a, weighted_diagram(name, next_to_minimal(name)[0])).x.scale(Fraction(1, 2))
    cfg = SampleConfig(seed=0)
    points = sample_orbit_point(a, [x0], cfg)[0]
    assert len(points) == cfg.num_samples
    exact = []
    for i, x in enumerate(points):
        y = _exact_orbit_point(a, x0, cfg, index=i)
        unit = x0.den * pow(y.den, -1, P)
        assert x.tolist() == [v * unit % P for v in y.num]
        exact.append(_exact_real_orbit_dim(a, y))
    assert real_orbit_dim(a, points) == exact


@pytest.mark.parametrize("name", ["A2", "G2", "F4"])
def test_sample_rows_do_not_depend_on_the_batch(name):
    a = build_algebra(name)
    x0 = representative(a, weighted_diagram(name, next_to_minimal(name)[0])).x
    batches = [sample_orbit_point(a, [x0], SampleConfig(seed=4, num_samples=n))[0]
               for n in range(1, 6)]
    for i in range(5):
        rows = [b[i].tolist() for b in batches[i:]]
        assert rows == [rows[0]] * len(rows)
    # row (d, s) does not depend on the points that flow beside it either
    others = [min_orbit_representative(a), x0.scale(3), x0]
    cfg = SampleConfig(seed=4, num_samples=5)
    together = sample_orbit_point(a, others, cfg)
    for d, x in enumerate(others):
        assert together[d].tolist() == sample_orbit_point(a, [x], cfg)[0].tolist()


def _flow_by_powers(a, x0s, cfg):
    """`sample_orbit_point` the long way, the oracle for its residues: the same draws, and each
    step applies ad(e_gamma) `max_ad_power` times over `_ad`, one gather and scatter-add per power."""
    roots = a.rs.all_roots
    params = [c for c in range(-COEFFICIENT_RANGE, COEFFICIENT_RANGE + 1) if c]
    n, steps = cfg.num_samples, cfg.steps_for(a)
    draws = []
    for s in range(n):
        rng = random.Random(derived_seed(cfg, s))
        for _ in range(steps):
            draws += (a.root_vector_index(roots[rng.randrange(len(roots))]), rng.choice(params) % P)
    gammas, t = np.tile(np.array(draws, dtype=np.int64).reshape(n, steps, 2), (len(x0s), 1, 1)).T
    coef = [t]  # coef[k - 1][step, row] = t^k / k! mod P
    for k in range(2, a.max_ad_power + 1):
        coef.append(coef[-1] * t % P * pow(k, -1, P) % P)
    x = np.array([[v % P for v in x0.num] for x0 in x0s for _ in range(n)], dtype=np.int64)
    rows = np.arange(len(x))[:, None]
    for step, g in enumerate(gammas):
        term = x
        for ck in coef:
            i, k, c = a._ad[g].transpose(1, 0, 2)
            out = np.zeros(x.size, dtype=np.int64)
            np.add.at(out, k + a.dim * rows, c * term[rows, i])
            term = out.reshape(-1, a.dim) % P  # ad(e_gamma)^k x mod P
            x = (x + ck[step, :, None] * term) % P
    return x.reshape(len(x0s), n, a.dim)


@pytest.mark.parametrize("name", [str(t) for t in scan_types(6)] + ["E7", "A2xG2"])
def test_flow_table_equals_the_flow_by_powers(name):
    a = build_algebra(name)
    rng = random.Random(name)
    # dense points over a denominator, with entries past P and negative ones
    x0s = [AlgebraElement([rng.randint(-1 << 40, 1 << 40) for _ in range(a.dim)], den)
           for den in (1, 6)]
    for seed in (0, 3):
        for steps in (0, 1, None):
            cfg = SampleConfig(seed=seed, num_samples=2, unipotent_steps=steps)
            got = sample_orbit_point(a, x0s, cfg)
            assert got.dtype == np.int64 and got.shape == (2, 2, a.dim)
            assert np.array_equal(got, _flow_by_powers(a, x0s, cfg))


@pytest.mark.parametrize("name", ["G2", "A2xG2", "E6"])
@pytest.mark.parametrize("per", [1, 5])
def test_flow_in_blocks_of_steps_equals_the_flow_by_powers(name, per, monkeypatch):
    # a block of steps holds `per` of them: one, or five, so that a boundary falls mid-flow
    a = build_algebra(name)
    x0s = [a.root_vector(a.rs.all_roots[-1]), AlgebraElement(list(range(-3, a.dim - 3)), 6)]
    monkeypatch.setattr(cohom, "STACK_CELLS", per * 2 * 3 * sum(a.ad_power_widths))  # 2 x 3 rows
    for steps in (0, 1, None):
        cfg = SampleConfig(seed=1, num_samples=3, unipotent_steps=steps)
        got = sample_orbit_point(a, x0s, cfg)
        assert np.array_equal(got, _flow_by_powers(a, x0s, cfg))


def test_sampled_dimension_above_orbit_dimension_raises(monkeypatch):
    a = build_algebra("A2")
    x0 = a.root_vector(a.rs.highest_root)
    orbit_real = 2 * (a.dim - a.centralizer_dim(x0))
    monkeypatch.setattr(cohom, "real_orbit_dim", lambda a, xs: [orbit_real + 1] * len(xs))
    with pytest.raises(ArithmeticError, match="exceeds"):
        cohom_adjoint(a, x0)


def test_cohom_rejects_zero():
    a = build_algebra("A1")
    with pytest.raises(ValueError):
        cohom_adjoint(a, AlgebraElement([0] * a.dim))


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "C2", "G2"])
def test_minimal_orbit_cohom_one_small(name):
    a = build_algebra(name)
    r = cohom_adjoint(a, min_orbit_representative(a))
    assert r.cohomogeneity == 1
    assert all(d <= r.orbit_real_dim for _, d in r.samples)


def test_A2_regular_cohom_four():
    from orbitatlas.orbits import representative, weighted_diagram

    a = build_algebra("A2")
    x = representative(a, weighted_diagram("A2", Partition((3,)))).x
    assert cohom_adjoint(a, x).cohomogeneity == 4


def test_nilpotent_cohom_at_least_one():
    a = build_algebra("B2")
    for lab in valid_partitions("B2"):
        if lab.partition.parts == (1,) * 5:
            continue
        from orbitatlas.orbits import representative, weighted_diagram

        x = representative(a, weighted_diagram("B2", lab)).x
        assert cohom_adjoint(a, x).cohomogeneity >= 1


def test_scaling_invariance():
    a = build_algebra("C2")
    x0 = min_orbit_representative(a)
    r1 = cohom_adjoint(a, x0)
    r2 = cohom_adjoint(a, x0.scale(4))
    assert r1.cohomogeneity == r2.cohomogeneity


def test_monotone_refinement_under_pooling():
    a = build_algebra("C2")
    x0 = min_orbit_representative(a)
    base = max(d for _, d in cohom_adjoint(a, x0, SampleConfig(seed=0)).samples)
    pooled = base
    for seed in (1, 2, 3):
        r = cohom_adjoint(a, x0, SampleConfig(seed=seed))
        pooled = max(pooled, *(d for _, d in r.samples))
    assert pooled >= base


def orbit_cohoms(a, labels):
    """The cohomogeneity of each labelled orbit, through `representative` and `cohom_adjoint`."""
    t = a.rs.cartan_type
    return [cohom_adjoint(a, representative(a, weighted_diagram(t, lab)).x).cohomogeneity
            for lab in labels]


def test_monotonicity_C2_chain():
    a = build_algebra("C2")
    chain = [
        lab for lab in valid_partitions("C2") if lab.partition.parts != (1, 1, 1, 1)
    ]
    from orbitatlas.orbits import orbit_dimension

    chain.sort(key=lambda l: orbit_dimension("C2", l))
    cohoms = orbit_cohoms(a, chain)
    assert all(lo < hi for lo, hi in zip(cohoms, cohoms[1:]))


def test_single_orbit_trivially_monotone():
    a = build_algebra("A2")
    assert orbit_cohoms(a, [minimal_orbit("A2")]) == [1]


def test_A3_min_vs_ntm():
    a = build_algebra("A3")
    assert orbit_cohoms(a, [minimal_orbit("A3")] + next_to_minimal("A3")) == [1, 2]


@pytest.mark.parametrize("tname", ["G2", "B3", "E6"])
def test_certified_orbit_dim_gives_the_same_report(tname):
    from orbitatlas.orbits import expected_orbit_dimension

    a = build_algebra(tname)
    w = weighted_diagram(tname, next_to_minimal(tname)[0])
    x = representative(a, w).x
    cfg = SampleConfig(num_samples=2)
    given = cohom_adjoint(a, x, cfg, orbit_dim=expected_orbit_dimension(a.rs, w))
    assert given == cohom_adjoint(a, x, cfg)


def test_points_over_several_stacks_rank_as_one_point_at_a_time():
    a = build_algebra("E6")
    x0 = representative(a, weighted_diagram("E6", next_to_minimal("E6")[0])).x
    cfg = SampleConfig(seed=2, num_samples=12)
    per_stack = STACK_CELLS // (2 * (a.rank + a.rs.num_positive) * a.dim)
    assert 1 <= per_stack < cfg.num_samples  # the points take at least two stacks
    points = sample_orbit_point(a, [x0, min_orbit_representative(a)], cfg).reshape(-1, a.dim)
    assert real_orbit_dim(a, points) == [real_orbit_dim(a, x[None])[0] for x in points]


def test_cohom_adjoints_is_the_one_point_report_per_point():
    a = build_algebra("B3")
    xs = [min_orbit_representative(a)]
    xs += [representative(a, weighted_diagram("B3", lab)).x for lab in next_to_minimal("B3")]
    cfg = SampleConfig(seed=7, num_samples=3)
    assert cohom_adjoints(a, xs, cfg) == [cohom_adjoint(a, x, cfg) for x in xs]
    with pytest.raises(ValueError):
        cohom_adjoints(a, xs + [AlgebraElement([0] * a.dim)], cfg)
