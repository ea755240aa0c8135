"""Cohomogeneity of adjoint orbits under the compact real form.

A point of the complexified orbit is moved around by unipotent flows
exp(t ad e_gamma) (polynomials, since ad e_gamma is nilpotent), so sampled
points stay on the orbit.  A sampled point only feeds a rank mod the prime
P = 2**31 - 1, so the flows run on residues mod P: the 1/k! of each flow
(k <= 4) is an inverse mod P, and the point is den(x0) times the exact image
of x0, reduced mod P.  At each sample the dimension of the compact group's
orbit through it is a matrix rank taken mod P (`linalg.rank_lower_bound`).
That rank never exceeds the exact rank at the point (den(x0) != 0 only
rescales it), which never exceeds the generic rank, so the reported value,
the orbit's real dimension minus the largest sampled rank, is a certified
upper bound on the cohomogeneity.  It is the cohomogeneity itself when some
sample is generic and the prime divides none of its relevant minors; pinned
expected values in the test suite surface any run where it is not.

Samples are independent (one derived seed per index) and merged by max, so a
report is deterministic for a given (seed, num_samples) regardless of
evaluation order, and sampling may run in parallel.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ._modp import P
from .chevalley import AlgebraElement, ChevalleyAlgebra
from .linalg import rank_lower_bound
from .orbits import OrbitLabel, representative, weighted_diagram


# flow parameters are drawn from -3..3 without 0, linear-rep points from -4..4
COEFFICIENT_RANGE = 3


@dataclass(frozen=True)
class SampleConfig:
    seed: int = 0
    num_samples: int = 5
    unipotent_steps: int | None = None  # default: 2 x number of positive roots

    def __post_init__(self):
        if self.num_samples < 1:
            raise ValueError("num_samples must be positive")
        if self.unipotent_steps is not None and self.unipotent_steps < 0:
            raise ValueError("unipotent_steps must be non-negative")

    def steps_for(self, a: ChevalleyAlgebra) -> int:
        if self.unipotent_steps is not None:
            return self.unipotent_steps
        return 2 * a.rs.num_positive


@dataclass(frozen=True)
class CohomReport:
    cohomogeneity: int
    orbit_real_dim: int
    samples: tuple[tuple[int, int], ...]  # (sample seed, real orbit dimension)
    certification: str

    def as_dict(self):
        return {
            "cohomogeneity": self.cohomogeneity,
            "orbit_real_dim": self.orbit_real_dim,
            "samples": [list(s) for s in self.samples],
            "certification": self.certification,
        }


_CERT = (
    "upper bound: orbit real dimension minus the largest sampled orbit dimension; "
    "each sampled dimension is a rank mod 2**31-1, never above the generic rank"
)


def derived_seed(cfg: SampleConfig, index: int) -> int:
    return (cfg.seed * 1_000_003) ^ (index * 7_919)


def sample_orbit_point(
    a: ChevalleyAlgebra, x0: AlgebraElement, cfg: SampleConfig, index: int = 0
) -> list[int]:
    """den(x0) times the image of x0 under a random product of root-unipotent flows, mod P.

    Each flow exp(t ad e_gamma) = sum_k t^k (k!)^-1 ad(e_gamma)^k is applied to
    the residue vector with inverses mod P, and the result is reduced once per
    step.  P divides no k! that occurs (k <= 4), so the residues are the
    reduction of the exact point den(x0) * image.
    """
    rng = random.Random(derived_seed(cfg, index))
    roots = a.rs.all_roots
    params = [c for c in range(-COEFFICIENT_RANGE, COEFFICIENT_RANGE + 1) if c]
    x = [v % P for v in x0.num]
    for _ in range(cfg.steps_for(a)):
        gamma = roots[rng.randrange(len(roots))]
        t = rng.choice(params)
        e = a.basis_vector(a.root_vector_index(gamma))
        new = list(x)
        term, c, k = a.bracket_vec(e, x), 1, 1  # term = ad(e)^k x, c = t^k / k! mod P
        while any(term):
            c = c * t * pow(k, -1, P) % P
            for j, v in enumerate(term):
                if v:
                    new[j] += c * v
            term, k = a.bracket_vec(e, term), k + 1
        x = [v % P for v in new]
    return x


def real_orbit_dim(a: ChevalleyAlgebra, x: list[int]) -> int:
    """dim_R of span{[u, x] : u in the compact form basis}, or a lower bound on it.

    x is an integer coordinate vector (the residues of `sample_orbit_point`
    will do).  The rank is taken mod 2**31 - 1, which can only lower it.

    For real x the compact-form rows are read off `ad_rows(x)`: the rows
    i[h_j, x] are imaginary, and for each positive root beta (`all_roots` puts
    -beta at the same offset among the negative roots) the row
    [e_beta - e_-beta, x] is real and i[e_beta + e_-beta, x] imaginary.  So the
    realified rank splits into two N-column ranks.
    """
    rows = a.ad_rows(x)
    r, npos = a.rank, a.rs.num_positive
    pairs = list(zip(rows[r:r + npos], rows[r + npos:]))
    real_rows = [[p - q for p, q in zip(ve, vf)] for ve, vf in pairs]
    imag_rows = rows[:r] + [[p + q for p, q in zip(ve, vf)] for ve, vf in pairs]
    return rank_lower_bound(real_rows, a.dim) + rank_lower_bound(imag_rows, a.dim)


def cohom_adjoint(
    a: ChevalleyAlgebra, x0: AlgebraElement, cfg: SampleConfig = SampleConfig(),
    orbit_dim: int | None = None,
) -> CohomReport:
    """Cohomogeneity of the G^C-orbit of x0 under the compact real form.

    The value is a certified upper bound; see the module docstring.  A caller
    that has already certified the orbit's complex dimension (as
    `orbits.representative` does) passes it as `orbit_dim`; otherwise it is
    computed exactly from the centralizer of x0.
    """
    if orbit_dim is None:
        orbit_dim = a.dim - a.centralizer_dim(x0)
    orbit_real = 2 * orbit_dim
    if orbit_real == 0:
        raise ValueError("x0 must be nonzero")
    samples = []
    best = 0
    for i in range(cfg.num_samples):
        x = sample_orbit_point(a, x0, cfg, index=i)
        d = real_orbit_dim(a, x)
        if d > orbit_real:
            raise ArithmeticError(
                f"sampled orbit dimension {d} exceeds the orbit's real dimension {orbit_real}"
            )
        samples.append((derived_seed(cfg, i), d))
        best = max(best, d)
    return CohomReport(orbit_real - best, orbit_real, tuple(samples), _CERT)


def cohom_linear_rep(
    action_matrices: list[list[list[int]]], rep_dim: int, cfg: SampleConfig = SampleConfig()
) -> CohomReport:
    """Cohomogeneity of a linear action given a basis of integer action matrices."""
    best = 0
    samples = []
    for i in range(cfg.num_samples):
        rng = random.Random(derived_seed(cfg, i))
        v = [rng.randint(-COEFFICIENT_RANGE - 1, COEFFICIENT_RANGE + 1) for _ in range(rep_dim)]
        rows = [[sum(m[r][c] * v[c] for c in range(rep_dim)) for r in range(rep_dim)]
                for m in action_matrices]
        d = rank_lower_bound(rows, rep_dim)
        samples.append((derived_seed(cfg, i), d))
        best = max(best, d)
    return CohomReport(rep_dim - best, rep_dim, tuple(samples), _CERT)


@dataclass(frozen=True)
class MonotonicityReport:
    labels: tuple[str, ...]
    cohomogeneities: tuple[int, ...]
    strictly_increasing: bool


def check_monotonicity(
    a: ChevalleyAlgebra, labels: list[OrbitLabel], cfg: SampleConfig = SampleConfig()
) -> MonotonicityReport:
    """Cohomogeneities along a closure-order chain (low to high orbit)."""
    t = a.rs.cartan_type
    cohoms = []
    for lab in labels:
        x = representative(a, weighted_diagram(t, lab), seed=cfg.seed)
        cohoms.append(cohom_adjoint(a, x, cfg).cohomogeneity)
    ok = all(cohoms[i] < cohoms[i + 1] for i in range(len(cohoms) - 1))
    return MonotonicityReport(
        tuple(str(l) for l in labels), tuple(cohoms), ok
    )
