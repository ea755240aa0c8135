"""Cohomogeneity of adjoint orbits under the compact real form.

A point of the complexified orbit is moved around by unipotent flows
exp(t ad e_gamma) (polynomials, since ad e_gamma is nilpotent), so sampled
points stay on the orbit.  A sampled point only feeds a rank mod the prime
P = 2**31 - 1, so the flows run on residues mod P: the 1/k! of each flow
(k <= 3) is an inverse mod P, and the point is den(x0) times the exact image
of x0, reduced mod P.  At each sample the dimension of the compact group's
orbit through it is a matrix rank taken mod P of rows read off ad(x) mod P
(`ChevalleyAlgebra.ad_residues`).  That rank never exceeds the exact rank at
the point (den(x0) != 0 only rescales it), which never exceeds the generic
rank, so the reported value,
the orbit's real dimension minus the largest sampled rank, is a certified
upper bound on the cohomogeneity.  It is the cohomogeneity itself when some
sample is generic and the prime divides none of its relevant minors; pinned
expected values in the test suite surface any run where it is not.

Sample s draws its flows from its own derived seed, and the samples are
merged by max, so a report is deterministic for a given (seed, num_samples),
and row s of a batch does not depend on how many rows flow beside it.  All
samples flow together as one (num_samples, dim) int64 array: each step is a
gather and a scatter over the algebra's index array, one per power of
ad(e_gamma), with every row's own gamma.

int64 headroom: every residue lies in [0, P), P < 2**31.  A scatter adds at
most fan_in table terms c * residue into one entry, and the flow adds
t^k / k! mod P times a residue to a residue, below (P - 1)**2 + P < 2**63.
`ChevalleyAlgebra` checks max|c| * (P - 1) * fan_in < 2**63 (|c| <= 6 and
fan_in <= rank) and the flow bound when it is built, and raises
`ArithmeticError` if either fails; no numpy product can wrap.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from ._modp import P, rank_mod_p
from .chevalley import AlgebraElement, ChevalleyAlgebra


# flow parameters are drawn from -3..3 without 0
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


def sample_orbit_point(a: ChevalleyAlgebra, x0: AlgebraElement, cfg: SampleConfig) -> np.ndarray:
    """Row s is den(x0) times the image of x0 under sample s's random flows, mod P.

    Sample s draws each step's root gamma and parameter t from its own
    `derived_seed(cfg, s)` generator.  All `cfg.num_samples` rows flow
    together: a step applies exp(t ad e_gamma) = sum_k t^k (k!)^-1
    ad(e_gamma)^k, k <= `a.max_ad_power` (at most 3), to each row, each power
    being one `bracket_residues` call over every row's own gamma.  P divides
    no such k!, so each row is the reduction of the exact point den(x0) * image.
    """
    roots = a.rs.all_roots
    params = [c for c in range(-COEFFICIENT_RANGE, COEFFICIENT_RANGE + 1) if c]
    n, steps = cfg.num_samples, cfg.steps_for(a)
    draws = []
    for s in range(n):
        rng = random.Random(derived_seed(cfg, s))
        for _ in range(steps):
            draws += (a.root_vector_index(roots[rng.randrange(len(roots))]), rng.choice(params) % P)
    gammas, t = np.array(draws, dtype=np.int64).reshape(n, steps, 2).transpose(2, 1, 0)
    coef = [t]  # coef[k - 1][step, s] = t^k / k! mod P
    for k in range(2, a.max_ad_power + 1):
        coef.append(coef[-1] * t % P * pow(k, -1, P) % P)
    x = np.array([[v % P for v in x0.num]] * n, dtype=np.int64)
    for step, g in enumerate(gammas):
        term = x
        for ck in coef:
            term = a.bracket_residues(g, term)  # ad(e_gamma)^k x mod P
            x = (x + ck[step, :, None] * term) % P
    return x


def real_orbit_dim(a: ChevalleyAlgebra, x) -> int:
    """dim_R of span{[u, x] : u in the compact form basis}, or a lower bound on it.

    x is an integer coordinate vector (a row of `sample_orbit_point` will
    do).  The rank is taken mod 2**31 - 1, which can only lower it.

    For real x the compact-form rows are read off ad(x) mod P
    (`ad_residues`): the rows i[h_j, x] are imaginary, and for each positive
    root beta (`all_roots` puts -beta at the same offset among the negative
    roots) the row [e_beta - e_-beta, x] is real and i[e_beta + e_-beta, x]
    imaginary.  So the realified rank splits into two N-column ranks.
    """
    rows = a.ad_residues(x)
    r, npos = a.rank, a.rs.num_positive
    e, f = rows[r:r + npos], rows[r + npos:]
    imag = np.concatenate([rows[:r], (e + f) % P])
    return rank_mod_p((e - f) % P) + rank_mod_p(imag)


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
    for i, x in enumerate(sample_orbit_point(a, x0, cfg)):
        d = real_orbit_dim(a, x)
        if d > orbit_real:
            raise ArithmeticError(
                f"sampled orbit dimension {d} exceeds the orbit's real dimension {orbit_real}"
            )
        samples.append((derived_seed(cfg, i), d))
        best = max(best, d)
    return CohomReport(orbit_real - best, orbit_real, tuple(samples), _CERT)
