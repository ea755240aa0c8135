"""Weight multiplicities and branching of the adjoint representation.

Weights live in fundamental-weight coordinates, roots in simple-root
coordinates, and every weight quantity is read off `RootSystem`'s tables.
The invariant form is the normalised one, short roots of squared length 2:
(omega_i, alpha_j) = delta_ij d_i, so (w, beta) = sum_i w_i beta_i d_i for
the symmetrizers d_i, and (beta, beta) = 2 d(beta) from `lengths`.  Every
such pairing is an integer.

Multiplicities come from Freudenthal's recursion in these integers.  A
weight mu = hw - sum_i k_i alpha_i is kept with its simple-root depth k, so
with kappa = hw - mu the recursion's denominator is
|hw + rho|^2 - |mu + rho|^2 = (kappa, hw + mu + 2 rho) = sum_i k_i d_i (hw + mu + 2)_i
and the walk's ball test |mu|^2 <= |hw|^2 reads sum_i k_i d_i (hw + mu)_i >= 0.
The Weyl dimension is prod_{beta > 0} <hw + rho, beta^vee> / <rho, beta^vee>
over `coroots`.  Centralizer subsystems are reductive, so each branching
component carries a rational torus-charge vector alongside its semi-simple
highest weight.

Branching the adjoint representation under a subsystem with simple roots
beta_j needs no multiplicities; it reads the highest-weight vectors off the
root vectors (Humphreys, Introduction to Lie Algebras and Representation
Theory, sections 6 and 20-24):

* (restrict, charge) is injective on the weight lattice: a weight orthogonal
  to every beta_j lies in the span of the torus functionals, and pairs to 0
  with them only if it is 0.  So every nonzero weight space of g is one root
  space, and the zero weight space is h.
* In a Chevalley basis [e_alpha, e_beta] != 0 exactly when alpha + beta is a
  root or 0.  So the vectors killed by every e_{beta_j} are the e_beta with no
  beta + beta_j a root or 0, plus the common kernel of the beta_j on h, of
  dimension rank - #beta_j because `restriction_matrix` checks that the
  beta_j are independent.
* By complete reducibility each highest-weight line spans one irreducible
  summand, of Weyl dimension.  The conservation check (sum of multiplicity
  times dimension equals dim g) raises ArithmeticError if they do not exhaust g.
  Components are listed by decreasing <w, 2 rho^vee>, twice the height of w.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction as Q

from .linalg import kernel_basis_int, rank_int_rows
from .roots import RootSystem, build_root_system, identify_subsystem


def _dot(x, y) -> int:
    return sum(a * b for a, b in zip(x, y))


def _reflect(rs: RootSystem, w, j):
    """s_j(w) = w - w_j alpha_j; alpha_j's fundamental coordinates are column j of C."""
    return tuple(x - w[j] * row[j] for x, row in zip(w, rs.cartan_matrix))


def _dominant(rs: RootSystem, w):
    while (j := next((j for j, x in enumerate(w) if x < 0), None)) is not None:
        w = _reflect(rs, w, j)
    return w


def _weyl_orbit(rs: RootSystem, w):
    seen, stack = {w}, [w]
    while stack:
        u = stack.pop()
        for j in range(rs.rank):
            if u[j] and (v := _reflect(rs, u, j)) not in seen:
                seen.add(v)
                stack.append(v)
    return seen


def weyl_dimension(rs: RootSystem, hw) -> int:
    """prod over beta > 0 of <hw + rho, beta^vee> / <rho, beta^vee>."""
    num = den = 1
    for co in rs.coroots[:rs.num_positive]:
        num *= sum((h + 1) * c for h, c in zip(hw, co))
        den *= sum(co)
    dim, rem = divmod(num, den)
    if rem:
        raise ArithmeticError(f"Weyl dimension of {hw} is not an integer")
    return dim


@dataclass(frozen=True)
class WeightMultiplicityTable:
    highest_weight: tuple
    entries: dict  # weight tuple -> multiplicity
    dimension: int


def weight_multiplicities(rs: RootSystem, hw) -> WeightMultiplicityTable:
    """Exact weight multiplicities of the irreducible module V(hw)."""
    try:
        hw = tuple(map(operator.index, hw))
    except TypeError:
        raise ValueError(f"highest weight {hw!r} is not integral") from None
    if len(hw) != rs.rank:
        raise ValueError("highest weight length != rank")
    if any(h < 0 for h in hw):
        raise ValueError("highest weight must be dominant")
    n, sym = rs.rank, rs.symmetrizers
    cols = [tuple(row[j] for row in rs.cartan_matrix) for j in range(n)]

    def gap(mu, k, shift=0):
        # |hw + shift rho|^2 - |mu + shift rho|^2 = sum_i k_i d_i (hw + mu + 2 shift)_i
        return sum(c * d * (h + m + 2 * shift) for c, d, h, m in zip(k, sym, hw, mu))

    # every mu = hw - sum k_i alpha_i inside the ball |mu|^2 <= |hw|^2, with its depth k
    ball, queue = {hw: (0,) * n}, [hw]
    for w in queue:
        k = ball[w]
        for j, a in enumerate(cols):
            v = tuple(x - y for x, y in zip(w, a))
            if v not in ball and gap(v, kv := k[:j] + (k[j] + 1,) + k[j + 1:]) >= 0:
                ball[v] = kv
                queue.append(v)
    # by total depth, so that every mu + t beta comes before mu
    dominants = sorted((w for w in ball if min(w) >= 0), key=lambda w: (sum(ball[w]), w))
    pos = [(p, tuple(b * d for b, d in zip(beta, sym)), 2 * d)
           for beta, p, d in zip(rs.positive_roots, rs.pairings, rs.lengths)]
    mult = {hw: 1}
    for w in dominants[1:]:
        g = gap(w, ball[w])
        rhs = 0
        for p, bd, b2 in pos:
            # along v = w + t beta: va = (v, beta), and the gap |hw|^2 - |v|^2 >= 0
            va = _dot(w, bd) + b2
            v, vgap = w, g - 2 * va + b2
            while vgap >= 0:
                v = tuple(x + y for x, y in zip(v, p))
                m = mult.get(_dominant(rs, v), 0)
                if m:
                    rhs += 2 * m * va
                vgap -= 2 * va + b2
                va += b2
        denom = gap(w, ball[w], 1)
        if denom <= 0 or rhs == 0:
            continue  # not a weight of V(hw)
        val, rem = divmod(rhs, denom)
        if rem or val <= 0:
            raise ArithmeticError(f"Freudenthal bookkeeping failure at {w}")
        mult[w] = val

    entries = {u: m for w, m in mult.items() for u in _weyl_orbit(rs, w)}
    dim = sum(entries.values())
    wd = weyl_dimension(rs, hw)
    if dim != wd:
        raise ArithmeticError(f"dimension check failed: {dim} != {wd}")
    return WeightMultiplicityTable(hw, entries, dim)


def restriction_matrix(rs: RootSystem, subsystem) -> list[tuple[int, ...]]:
    """Integer rows sending rs-weights to subsystem-weights: <w, beta_j^vee> = row_j . w.

    The rows are the coroots of the subsystem's simple roots, which must be
    independent.
    """
    rows = [rs.coroot_coords(tuple(b)) for b in subsystem]
    if not rows:
        raise ValueError("empty subsystem")
    if rank_int_rows([list(r) for r in rows], rs.rank) != len(rows):
        raise ValueError("subsystem basis is linearly dependent")
    return rows


@dataclass(frozen=True)
class BranchComponent:
    subsystem_type: str
    highest_weight: tuple
    torus_charge: tuple
    multiplicity: int
    dimension: int                 # dimension of one copy


@dataclass(frozen=True)
class BranchingResult:
    components: tuple[BranchComponent, ...]
    parent_dimension: int

    @property
    def total_dimension(self):
        return sum(c.multiplicity * c.dimension for c in self.components)


def branch_adjoint(rs: RootSystem, subsystem) -> BranchingResult:
    """Decompose the adjoint representation under a root subsystem.

    `subsystem` is a list of simple roots (simple-root coordinates in rs) of a
    regular subalgebra; the centralizer torus contributes rational charges.
    Components are read off the highest-weight root vectors (module docstring).
    """
    subsystem = [tuple(b) for b in subsystem]
    ctype, ordered = identify_subsystem(rs, subsystem)
    rows = restriction_matrix(rs, ordered)

    # torus charge functionals: kernel of h -> <beta_j, h>
    pair_rows = [rs.pairings[rs.root_index[b]] for b in ordered]
    torus, tden = kernel_basis_int(pair_rows, rs.rank)

    def charge(w):
        return tuple(Q(_dot(t, w), tden) for t in torus)

    def restrict(w):
        return tuple(_dot(row, w) for row in rows)

    sub = build_root_system(ctype)
    # 2 rho^vee, the sum of the positive coroots: <w, 2 rho^vee> is twice w's height
    two_rho = [sum(col) for col in zip(*sub.coroots[:sub.num_positive])]
    keys = []
    for beta, w in zip(rs.all_roots, rs.pairings):
        # e_beta is killed by every e_alpha iff no beta + alpha is a root or 0
        if all(
            any(s) and s not in rs.root_index
            for s in (tuple(x + y for x, y in zip(beta, a)) for a in ordered)
        ):
            keys.append((restrict(w), charge(w), 1))
    if rs.rank > len(ordered):
        # the highest-weight vectors in h: the common kernel of the beta_j
        keys.append(((0,) * len(ordered), charge((0,) * rs.rank), rs.rank - len(ordered)))
    # highest first, the component order of the stable JSON
    keys.sort(key=lambda k: (_dot(two_rho, k[0]), k[:2]), reverse=True)
    result = BranchingResult(
        tuple(BranchComponent(str(ctype), hw, ch, m, weyl_dimension(sub, hw))
              for hw, ch, m in keys),
        rs.dimension,
    )
    if result.total_dimension != rs.dimension:
        raise ArithmeticError(f"dimension conservation failed: {result.total_dimension}"
                              f" != {rs.dimension}")
    return result
