"""Weight multiplicities and branching of the adjoint representation.

Weights live in fundamental-weight coordinates.  Multiplicities come from
Freudenthal's recursion, run in integers: the invariant form is scaled by
det_cartan, and the recursion is a quotient of two sums homogeneous of
degree 1 in the form, so the scale cancels.  Centralizer subsystems are
reductive, so each branching component carries a rational torus-charge
vector alongside its semi-simple highest weight.

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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q

from .linalg import kernel_basis_int, rank_int_rows
from .roots import RootSystem, build_root_system, identify_subsystem


def _weight_form(rs: RootSystem):
    """det_cartan times the invariant form's Gram matrix in fundamental-weight
    coordinates; the entries are integers."""
    minv = rs.inv_cartan_times_det
    n = rs.rank
    return [[minv[j][i] * rs.symmetrizers[j] for j in range(n)] for i in range(n)]


def _dot(x, y) -> int:
    return sum(a * b for a, b in zip(x, y))


class _WeightGeometry:
    """Cached per-root-system data for weight computations."""

    def __init__(self, rs: RootSystem):
        self.form = _weight_form(rs)
        self.n = rs.rank
        # fundamental coordinates of the simple roots: columns of the Cartan matrix
        self.alpha_fund = [
            tuple(rs.cartan_matrix[i][j] for i in range(self.n)) for j in range(self.n)
        ]
        # (alpha, F alpha, (alpha, alpha)) per simple and per positive root alpha
        self.simple = [self._root_data(a) for a in self.alpha_fund]
        self.pos = [self._root_data(p) for p in rs.pairings[:rs.num_positive]]
        # det_cartan times the height (sum of simple-root coordinates) of a weight
        self.height_vec = [sum(col) for col in zip(*rs.inv_cartan_times_det)]

    def _root_data(self, a):
        fa = tuple(_dot(row, a) for row in self.form)
        return a, fa, _dot(a, fa)

    def ip(self, x, y) -> int:
        """det_cartan times the invariant form (x, y)."""
        return sum(a * _dot(row, y) for a, row in zip(x, self.form) if a)

    def height(self, w) -> int:
        return _dot(self.height_vec, w)

    def dominant_conjugate(self, w):
        w = list(w)
        while True:
            j = next((k for k in range(self.n) if w[k] < 0), None)
            if j is None:
                return tuple(w)
            c = w[j]
            a = self.alpha_fund[j]
            for k in range(self.n):
                w[k] -= c * a[k]

    def weyl_orbit(self, w):
        seen = {tuple(w)}
        stack = [tuple(w)]
        while stack:
            u = stack.pop()
            for j in range(self.n):
                if u[j]:
                    a = self.alpha_fund[j]
                    v = tuple(u[k] - u[j] * a[k] for k in range(self.n))
                    if v not in seen:
                        seen.add(v)
                        stack.append(v)
        return seen

    def weyl_dimension(self, hw) -> int:
        # prod (hw + rho, alpha) / (rho, alpha); the det_cartan scale cancels
        num = den = 1
        lr = tuple(h + 1 for h in hw)
        for _, fa, _ in self.pos:
            num *= _dot(lr, fa)
            den *= sum(fa)
        dim, rem = divmod(num, den)
        if rem:
            raise ArithmeticError(f"Weyl dimension of {hw} is not an integer")
        return dim


_GEO: dict[str, _WeightGeometry] = {}


def _geometry(rs: RootSystem) -> _WeightGeometry:
    key = str(rs.cartan_type)
    if key not in _GEO:
        _GEO[key] = _WeightGeometry(rs)
    return _GEO[key]


@dataclass(frozen=True)
class WeightMultiplicityTable:
    highest_weight: tuple
    entries: dict  # weight tuple -> multiplicity
    dimension: int


def weight_multiplicities(rs: RootSystem, hw) -> WeightMultiplicityTable:
    """Exact weight multiplicities of the irreducible module V(hw)."""
    hw = tuple(int(h) for h in hw)
    if len(hw) != rs.rank:
        raise ValueError("highest weight length != rank")
    if any(h < 0 for h in hw):
        raise ValueError("highest weight must be dominant")
    geo = _geometry(rs)
    lam_norm = geo.ip(hw, hw)
    # all lattice points hw - sum k_i alpha_i inside the length ball, with their
    # norms: |w - alpha|^2 = |w|^2 - 2(w, alpha) + (alpha, alpha)
    ball = {hw: lam_norm}
    frontier = [hw]
    while frontier:
        new = []
        for w in frontier:
            w2 = ball[w]
            for a, fa, a2 in geo.simple:
                v2 = w2 - 2 * _dot(w, fa) + a2
                if v2 <= lam_norm:
                    v = tuple(x - y for x, y in zip(w, a))
                    if v not in ball:
                        ball[v] = v2
                        new.append(v)
        frontier = new
    dominants = [w for w in ball if all(c >= 0 for c in w)]
    lr = tuple(h + 1 for h in hw)
    lr2 = geo.ip(lr, lr)
    # by depth of hw - w in the root lattice, i.e. by decreasing height of w
    dominants.sort(key=lambda w: (-geo.height(w), w))
    mult: dict[tuple, int] = {}
    for w in dominants:
        if w == hw:
            mult[w] = 1
            continue
        w2 = ball[w]
        rhs = 0
        for a, fa, a2 in geo.pos:
            # along v = w + k alpha: |v|^2 = |w|^2 + 2k(w, alpha) + k^2 (alpha, alpha)
            wa = _dot(w, fa)
            v, va, v2 = w, wa + a2, w2 + 2 * wa + a2
            while v2 <= lam_norm:
                v = tuple(x + y for x, y in zip(v, a))
                m = mult.get(geo.dominant_conjugate(v), 0)
                if m:
                    rhs += 2 * m * va
                v2 += 2 * va + a2
                va += a2
        wr = tuple(c + 1 for c in w)
        denom = lr2 - geo.ip(wr, wr)
        if denom <= 0 or rhs == 0:
            continue  # not a weight of V(hw)
        val, rem = divmod(rhs, denom)
        if rem or val <= 0:
            raise ArithmeticError(f"Freudenthal bookkeeping failure at {w}")
        mult[w] = val

    entries: dict[tuple, int] = {}
    for w, m in mult.items():
        for u in geo.weyl_orbit(w):
            entries[u] = m
    dim = sum(entries.values())
    wd = geo.weyl_dimension(hw)
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

    sub_geo = _geometry(build_root_system(ctype))
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
    keys.sort(key=lambda k: (sub_geo.height(k[0]), k[:2]), reverse=True)
    result = BranchingResult(
        tuple(BranchComponent(str(ctype), hw, ch, m, sub_geo.weyl_dimension(hw))
              for hw, ch, m in keys),
        rs.dimension,
    )
    if result.total_dimension != rs.dimension:
        raise ArithmeticError(f"dimension conservation failed: {result.total_dimension}"
                              f" != {rs.dimension}")
    return result
