"""Painted Dynkin diagrams: isotropy representations of semi-simple orbits.

A painted diagram crosses a subset of the simple roots; the corresponding
flag manifold G/K has isotropy module m spanned by the root spaces with a
nonzero coefficient on a crossed node.  The irreducible K-summands of m are
its t-roots: two positive m-roots span root spaces of one summand iff they
have the same coefficients on the crossed nodes (Alekseevsky and Perelomov,
Funct. Anal. Appl. 20, 1986).  The cohomogeneity of the semi-simple orbit
T(G/K) is computed by sampling the orbit of the coweight element dual to the
crossed set.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chevalley import AlgebraElement, ChevalleyAlgebra, build_algebra
from .cohom import CohomReport, SampleConfig, cohom_adjoint, cohom_adjoints, trivial_lower_bound
from .roots import (
    CartanType,
    RootSystem,
    build_root_system,
    cartan_matches,
    parse_cartan_type,
    simple,
)


@dataclass(frozen=True)
class PaintedDiagram:
    cartan_type: CartanType
    crossed: frozenset[int]  # 0-based node indices

    def __post_init__(self):
        if not self.crossed:
            raise ValueError("a flag needs at least one crossed node")
        if any(i < 0 or i >= self.cartan_type.rank for i in self.crossed):
            raise ValueError("crossed node out of range")

    def __str__(self):
        nodes = ",".join(str(i + 1) for i in sorted(self.crossed))
        return f"{self.cartan_type}[x{nodes}]"


def painted(t, crossed) -> PaintedDiagram:
    t = parse_cartan_type(t) if isinstance(t, str) else t
    return PaintedDiagram(t, frozenset(crossed))


def isotropy_roots(rs: RootSystem, pd: PaintedDiagram) -> list[tuple[int, ...]]:
    """Roots of m: nonzero coefficient on some crossed simple root."""
    return [g for g in rs.all_roots if any(g[i] for i in pd.crossed)]


def kostant_summands(rs: RootSystem, pd: PaintedDiagram) -> int:
    """Number of irreducible K-summands of m (its t-roots; see the module docstring)."""
    crossed = sorted(pd.crossed)
    return len({tuple(g[i] for i in crossed) for g in rs.positive_roots} - {(0,) * len(crossed)})


def flag_point(a: ChevalleyAlgebra, pd: PaintedDiagram) -> AlgebraElement:
    """det(C) h, for h the coweight with mark 1 on each crossed node and 0 elsewhere.

    The scale makes the coordinates integers; rescaling h rescales its orbit
    and leaves the cohomogeneity unchanged.
    """
    marks = [1 if i in pd.crossed else 0 for i in range(a.rank)]
    return a.coweight_vector(marks).scale(a.rs.det_cartan)


def flag_cohom(a, pd: PaintedDiagram, cfg: SampleConfig = SampleConfig()) -> CohomReport:
    """Cohomogeneity of the semi-simple orbit of the crossed-set coweight.

    The orbit's complex dimension is the number of m-roots, exactly:
    <beta, h> is the sum of beta's coefficients on the crossed nodes, and a
    root's coefficients all have one sign, so beta vanishes on h iff it is a
    k-root, and ker ad(h) is the Cartan plus the k-root spaces.
    """
    if isinstance(a, PaintedDiagram):
        raise TypeError("first argument is the Chevalley algebra")
    return cohom_adjoint(a, flag_point(a, pd), cfg, orbit_dim=len(isotropy_roots(a.rs, pd)))


def nodes_up_to_automorphism(t: CartanType) -> list[int]:
    """The least node of each diagram-automorphism orbit (0-based).

    The automorphisms are the Cartan matrix's matches onto itself
    (`roots.cartan_matches`), enumerated once per type.
    """
    c = build_root_system(t).cartan_matrix
    autos = list(cartan_matches(c, c))
    return [i for i in range(t.rank) if all(o[i] >= i for o in autos)]


def scan_types(max_rank: int) -> list[CartanType]:
    """Simple types of rank <= max_rank, one per isomorphism class.

    D3 is skipped (isomorphic to A3); B2 and C2 are both kept so the
    coincidence flags appear under either labeling.
    """
    out = []
    for fam, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 4)):
        for n in range(lo, max_rank + 1):
            out.append(simple(fam, n))
    if max_rank >= 2:
        out.append(simple("G", 2))
    if max_rank >= 4:
        out.append(simple("F", 4))
    for n in range(6, min(max_rank, 8) + 1):
        out.append(simple("E", n))
    return out


def prove_long_diagrams_excluded(rs: RootSystem) -> None:
    """Raise ArithmeticError unless each Dynkin path of rs sums to a root (see `scan_ss_cohom`)."""
    n = rs.rank
    for i in range(n):
        sums = {i: tuple(int(k == i) for k in range(n))}  # path sums from node i, breadth first
        queue = [i]
        for u in queue:
            for v in range(n):
                if rs.cartan_matrix[u][v] and v not in sums:
                    sums[v] = tuple(c + (k == v) for k, c in enumerate(sums[u]))
                    queue.append(v)
        missing = [j for j in range(n) if sums.get(j) not in rs.root_index]
        if missing:
            raise ArithmeticError(f"{rs.cartan_type}: no root sums the path from node {i + 1} "
                                  f"to node {missing[0] + 1}; length-2 diagrams are not excluded")


def scan_ss_cohom(
    max_rank: int, cfg: SampleConfig = SampleConfig(), max_cohom: int | None = None
) -> list[tuple[PaintedDiagram, int]]:
    """(diagram, flag_cohom) for every length-1 painted diagram up to max_rank.

    One node per diagram-automorphism class on `scan_types(max_rank)`, and one
    `cohom_adjoints` call per type.  Longer diagrams are left out by a lemma
    that `prove_long_diagrams_excluded` checks: if the simple roots on the
    Dynkin path from i to j sum to a root gamma, a diagram crossing i != j has
    >= 3 Kostant summands, as a summand's roots share their crossed
    coefficients, while alpha_i, alpha_j and gamma do not.  Each
    summand carries an invariant norm, so the cohomogeneity is >= 3.

    With `max_cohom` set, a diagram whose `trivial_lower_bound` exceeds it is
    decided without sampling and left out: its cohomogeneity, and so its
    sampled upper bound, is > max_cohom.  Every length-1 diagram is thus
    decided, by the bound or by sampling, and a type with no diagram left
    builds no algebra.  Samples draw from their own seeds, so the rows kept
    read as in the full scan.
    """
    out = []
    for t in scan_types(max_rank):
        rs = build_root_system(t)
        prove_long_diagrams_excluded(rs)
        pds = [PaintedDiagram(t, frozenset([node])) for node in nodes_up_to_automorphism(t)]
        dims = {pd: len(isotropy_roots(rs, pd)) for pd in pds}  # exact, see `flag_cohom`
        if max_cohom is not None:
            pds = [pd for pd in pds if trivial_lower_bound(rs.dimension, dims[pd]) <= max_cohom]
        if pds:
            a = build_algebra(rs)
            reports = cohom_adjoints(a, [flag_point(a, pd) for pd in pds], cfg,
                                     [dims[pd] for pd in pds])
            out += [(pd, rep.cohomogeneity) for pd, rep in zip(pds, reports)]
    return out


def classify_ss_low_cohom(
    max_rank: int, target: int, cfg: SampleConfig = SampleConfig()
) -> list[PaintedDiagram]:
    """Painted diagrams of `scan_ss_cohom` whose flag_cohom equals target (1 or 2)."""
    if target not in (1, 2):
        raise ValueError("target must be 1 or 2")
    return [pd for pd, c in scan_ss_cohom(max_rank, cfg, max_cohom=target) if c == target]
