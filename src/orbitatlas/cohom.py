"""Cohomogeneity of adjoint orbits under the compact real form.

A point of the complexified orbit is moved around by unipotent flows
exp(t ad e_gamma) (polynomials, since ad e_gamma is nilpotent), so sampled
points stay on the orbit.  A sampled point only feeds a rank mod the prime
P = 2**31 - 1, so the flows run on residues mod P: the 1/k! of each flow
(k <= 3) is an inverse mod P, and the point is den(x0) times the exact image
of x0, reduced mod P.  At each sample the dimension of the compact group's
orbit through it is a matrix rank taken mod P of rows read off ad(x) mod P.
That rank never exceeds the exact rank at the point (den(x0) != 0 only
rescales it), which never exceeds the generic rank, so the reported value,
the orbit's real dimension minus the largest sampled rank, is a certified
upper bound on the cohomogeneity.  It is the cohomogeneity itself when some
sample is generic and the prime divides none of its relevant minors; pinned
expected values in the test suite surface any run where it is not.

Sample s draws its flows from its own derived seed, whatever the point, and
the samples are merged by max, so a report is deterministic for a given
(seed, num_samples) and no row depends on the rows beside it.  All samples
of all points of one call flow together as one int64 array, each step one
gather and one scatter-add over the algebra's table of the powers of
ad(e_gamma) (`ChevalleyAlgebra.ad_powers`), read once per block of steps of
at most STACK_CELLS slots (steps x rows x table width, at least one step).
Their compact-form matrices are ranked as stacks, one `_modp.rank_mod_p` call
each; a stack holds at most STACK_CELLS entries (or one point), a bound set by
the matrix shape alone that keeps, say, `--samples 1000` on E8 from
allocating half a gigabyte at once.

int64 headroom: residues lie in [0, P), P < 2**31, and `ChevalleyAlgebra`
checks when it is built that (P - 1)**2, (P - 1) (1 + max|c| width) (`ad_powers`'s
width and path coefficients c) and 2 (P - 1) headroom (`ad_ints`'s) stay below
2**63, raising `ArithmeticError`.  They bound a product of two residues, a slot's
coefficient c t^p / p! before its reduction, a step's scatter onto one entry (a
residue plus at most width residues, below (P - 1) (1 + width)), and a sum e +- f
of two entries of ad(x) in `real_orbit_dim`, which `rank_mod_p` reduces.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from ._modp import P, rank_mod_p, residues
from .chevalley import AlgebraElement, ChevalleyAlgebra


# flow parameters are drawn from -3..3 without 0
COEFFICIENT_RANGE = 3
# entries of one rank_mod_p stack: E7 ranks 3 points at a time, E8 one
STACK_CELLS = 1 << 16


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


_CERT = (
    "upper bound: orbit real dimension minus the largest sampled orbit dimension; "
    "each sampled dimension is a rank mod 2**31-1, never above the generic rank"
)


def trivial_lower_bound(g_dim: int, orbit_dim: int) -> int:
    """2 orbit_dim - g_dim, an exact lower bound on the cohomogeneity of an orbit.

    The compact group K has real dimension dim_C g, so no K-orbit in the
    orbit O (real dimension 2 dim_C O) is larger; the cohomogeneity, the
    codimension of a generic K-orbit, is >= 2 dim_C O - dim_C g.
    """
    return 2 * orbit_dim - g_dim


def derived_seed(cfg: SampleConfig, index: int) -> int:
    return (cfg.seed * 1_000_003) ^ (index * 7_919)


def sample_orbit_point(
    a: ChevalleyAlgebra, x0s: list[AlgebraElement], cfg: SampleConfig
) -> np.ndarray:
    """Row (d, s) is den(x0) times x0 = x0s[d] moved by sample s's random flows, mod P.

    Sample s draws each step's root gamma and parameter t once, from the words of
    `random.Random(derived_seed(cfg, s)).getrandbits`: gamma's index in `all_roots` is
    the first k-bit word below their number (k its bit length), and t's index among
    -3..3 without 0 the first 3-bit word below 6, the draws `randrange` and `choice`
    make.  A step applies exp(t ad e_gamma) = sum_k t^k (k!)^-1 ad(e_gamma)^k, k <=
    `a.max_ad_power` (at most 3), to all rows at once.  A block of steps gathers its
    slots of `a.ad_powers` once, offsets them to each row and folds each slot's t^k / k!
    and path coefficient into one residue; a step then gathers the rows' entries at the
    slots, multiplies, and scatter-adds.  P divides no such k!, so each row is the
    reduction of the exact point den(x0) * image.
    """
    params = [c % P for c in range(-COEFFICIENT_RANGE, COEFFICIENT_RANGE + 1) if c]
    nroots, nparams = len(a.rs.all_roots), len(params)
    kr, kp = nroots.bit_length(), nparams.bit_length()
    n, steps = cfg.num_samples, cfg.steps_for(a)
    draws = []
    for s in range(n):
        word = random.Random(derived_seed(cfg, s)).getrandbits
        for _ in range(steps):
            g = word(kr)
            while g >= nroots:
                g = word(kr)
            p = word(kp)
            while p >= nparams:
                p = word(kp)
            draws += (g, p)
    # row d * n + s flows under sample s's draws
    gammas, picks = np.tile(np.array(draws, dtype=np.int64).reshape(n, steps, 2), (len(x0s), 1, 1)).T
    coef = [np.array(params, dtype=np.int64)[picks]]  # coef[p - 1][step, row] = t^p / p! mod P
    for p in range(2, a.max_ad_power + 1):
        coef.append(coef[-1] * coef[0] % P * pow(p, -1, P) % P)
    cols = np.cumsum((0,) + a.ad_power_widths).tolist()  # power p's slots: cols[p - 1]:cols[p]
    x = np.repeat(residues([x0.num for x0 in x0s], a.dim), n, axis=0)
    flat, at = x.reshape(-1), a.dim * np.arange(len(x))[:, None]
    per = max(1, STACK_CELLS // max(1, len(x) * cols[-1]))  # steps per block
    for b in range(0, steps, per):
        # slot (i, k, c) of row r at a step: x_k += c t^p / p! x_i, p the slot's power
        i, k, c = a.ad_powers[gammas[b:b + per]].transpose(2, 0, 1, 3)
        i += at
        k += at
        for cp, lo, hi in zip(coef, cols, cols[1:]):
            c[..., lo:hi] *= cp[b:b + per, :, None]
        c %= P
        for ib, kb, cb in zip(i, k, c):
            v = flat[ib]
            v *= cb
            v %= P
            np.add.at(flat, kb, v)
            x %= P
    return x.reshape(len(x0s), n, a.dim)


def real_orbit_dim(a: ChevalleyAlgebra, xs: np.ndarray) -> list[int]:
    """dim_R of span{[u, x] : u in the compact form basis}, or a lower bound, per row x of xs.

    A row x holds residues mod P (as `sample_orbit_point` gives them); the
    rank is taken mod 2**31 - 1, which can only lower it.  Of the rows of
    ad(x), exact in int64, i[h_j, x] is imaginary, and for each positive root beta
    (`all_roots` puts -beta at the same offset among the negative roots)
    [e_beta - e_-beta, x] is real and i[e_beta + e_-beta, x] imaginary.  So
    the realified rank is the sum of the ranks of a real half (zero-padded
    to r + npos rows) and an imaginary half, two matrices of one stack.
    """
    n, r, npos = a.dim, a.rank, a.rs.num_positive
    per = max(1, STACK_CELLS // (2 * (r + npos) * n))  # points per stack
    dims = []
    for c in range(0, len(xs), per):
        h, e, f = np.split(a.ad_ints(xs[c:c + per]), [r, r + npos], axis=1)
        stack = np.zeros((len(h), 2, r + npos, n), dtype=np.int64)
        np.subtract(e, f, out=stack[:, 0, :npos])
        stack[:, 1, :r] = h
        np.add(e, f, out=stack[:, 1, r:])
        del h, e, f  # free ad(x) before the elimination
        ranks = rank_mod_p(stack.reshape(-1, r + npos, n))
        dims += [p + q for p, q in zip(ranks[::2], ranks[1::2])]
    return dims


def cohom_adjoints(
    a: ChevalleyAlgebra, x0s: list[AlgebraElement], cfg: SampleConfig = SampleConfig(),
    orbit_dims: list[int] | None = None,
) -> list[CohomReport]:
    """Cohomogeneity of the G^C-orbit of each x0 in x0s under the compact real form.

    Each value is a certified upper bound (see the module docstring), and
    report d is the one-point report of x0s[d].  Orbit complex dimensions
    already certified (as for `orbits.representative(...).x`) come as `orbit_dims`;
    otherwise they are computed exactly from the centralizers.
    """
    if orbit_dims is None:
        orbit_dims = [a.dim - a.centralizer_dim(x0) for x0 in x0s]
    if 0 in orbit_dims:
        raise ValueError("x0 must be nonzero")
    n = cfg.num_samples
    dims = real_orbit_dim(a, sample_orbit_point(a, x0s, cfg).reshape(-1, a.dim))
    seeds = [derived_seed(cfg, s) for s in range(n)]
    reports = []
    for d, orbit_dim in enumerate(orbit_dims):
        ds, real = dims[d * n:(d + 1) * n], 2 * orbit_dim
        if max(ds) > real:
            raise ArithmeticError(f"sampled orbit dimension {max(ds)} exceeds the orbit's "
                                  f"real dimension {real}")
        reports.append(CohomReport(real - max(ds), real, tuple(zip(seeds, ds)), _CERT))
    return reports


def cohom_adjoint(a: ChevalleyAlgebra, x0: AlgebraElement, cfg: SampleConfig = SampleConfig(),
                  orbit_dim: int | None = None) -> CohomReport:
    """`cohom_adjoints` of the one point x0 (and its certified `orbit_dim`, if given)."""
    return cohom_adjoints(a, [x0], cfg, None if orbit_dim is None else [orbit_dim])[0]
