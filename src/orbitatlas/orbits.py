"""Nilpotent orbit catalog: partitions, closure order, weighted diagrams.

Classical nilpotent orbits are labeled by Jordan partitions subject to the
usual parity rules, a very even D-partition stored once with a flag for its
two orbits; a type's labels are built once per process.  The closure order is
dominance on the valid partitions; the minimal orbit is the one cover of the
zero orbit, and the next-to-minimal orbits are the covers of the minimal one.
Exceptional minimal and next-to-minimal orbits are labeled by the weighted
Dynkin diagrams of explicit representatives (highest-root vector;
highest-short-root vector for G2/F4; a sum over a strongly orthogonal pair of
long roots for E6/E7/E8).  A representative is a random point of the degree-2
piece of its diagram's grading (`ChevalleyAlgebra.graded_basis`) with an exact
sl2 partner (`sl2.complete_triple`); it is returned as that certified triple.
"""

from __future__ import annotations

import random
from contextlib import suppress
from dataclasses import dataclass
from functools import cache
from itertools import accumulate

from .chevalley import AlgebraElement, ChevalleyAlgebra
from .roots import CartanType, build_root_system, parse_cartan_type
from .sl2 import Sl2Triple, _embed, complete_triple


@dataclass(frozen=True)
class Partition:
    parts: tuple[int, ...]

    def __post_init__(self):
        p = self.parts
        if any(a <= 0 for a in p) or any(p[i] < p[i + 1] for i in range(len(p) - 1)):
            raise ValueError("parts must be weakly decreasing positive integers")

    @property
    def total(self):
        return sum(self.parts)

    def dual(self) -> "Partition":
        if not self.parts:
            return Partition(())
        return Partition(
            tuple(sum(1 for a in self.parts if a > i) for i in range(self.parts[0]))
        )

    def multiplicity(self, k: int) -> int:
        return sum(1 for a in self.parts if a == k)

    def __str__(self):
        return "(" + ",".join(str(a) for a in self.parts) + ")"


@dataclass(frozen=True)
class WeightedDynkinDiagram:
    marks: tuple[int, ...]

    def __post_init__(self):
        if any(m not in (0, 1, 2) for m in self.marks):
            raise ValueError("weighted Dynkin marks must lie in {0,1,2}")

    def __str__(self):
        return "".join(str(m) for m in self.marks)


@dataclass(frozen=True)
class OrbitLabel:
    """Classical partition label (with very-even flag) or exceptional diagram."""

    partition: Partition | None = None
    diagram: WeightedDynkinDiagram | None = None
    very_even: bool = False  # the label names two orbits (I and II)
    name: str = ""

    def __str__(self):
        if self.partition is not None:
            return str(self.partition) + (" [I/II]" if self.very_even else "")
        return f"wdd {self.diagram}" + (f" ({self.name})" if self.name else "")


def _ctype(t) -> CartanType:
    """The type t names, which must be simple: every label but wdd:<marks> needs one."""
    t = parse_cartan_type(t) if isinstance(t, str) else t
    if not t.is_simple:
        raise ValueError(f"{t} is a product type: only wdd:<marks> orbit labels work on it")
    return t


def _classical_data(t: CartanType):
    fam, n = t.family, t.rank
    if fam == "A":
        return fam, n, n + 1
    if fam == "B":
        return fam, n, 2 * n + 1
    if fam in ("C", "D"):
        return fam, n, 2 * n
    raise ValueError(f"{t} is not a classical type")


def _partitions_of(n: int):
    def rec(n, maxpart):
        if n == 0:
            yield ()
            return
        for k in range(min(n, maxpart), 0, -1):
            for rest in rec(n - k, k):
                yield (k,) + rest

    return rec(n, n)


def partition_valid(t, p: Partition) -> bool:
    fam, n, size = _classical_data(_ctype(t))
    if p.total != size:
        return False
    if fam == "A":
        return True
    if fam in ("B", "D"):
        return all(p.multiplicity(k) % 2 == 0 for k in set(p.parts) if k % 2 == 0)
    return all(p.multiplicity(k) % 2 == 0 for k in set(p.parts) if k % 2 == 1)


def valid_partitions(t) -> list[OrbitLabel]:
    """All nilpotent orbit labels of a classical type (very even flagged once)."""
    return list(_labels(_ctype(t)))


@cache
def _labels(t: CartanType) -> tuple[OrbitLabel, ...]:
    """`valid_partitions` of t, built once per type and process."""
    fam, n, size = _classical_data(t)
    out = []
    for parts in _partitions_of(size):
        p = Partition(parts)
        if partition_valid(t, p):
            very = fam == "D" and all(a % 2 == 0 for a in parts)
            out.append(OrbitLabel(partition=p, very_even=very))
    return tuple(out)


def orbit_dimension(t, p: Partition | OrbitLabel) -> int:
    """Complex orbit dimension: a diagram label's `expected_orbit_dimension`, and
    for a partition the dual-partition centralizer formula."""
    if isinstance(p, OrbitLabel):
        if p.diagram is not None:
            return expected_orbit_dimension(build_root_system(t), p.diagram)
        p = p.partition
    t = _ctype(t)
    fam, n, size = _classical_data(t)
    if not partition_valid(t, p):
        raise ValueError(f"invalid partition {p} for {t}")
    s2 = sum(d * d for d in p.dual().parts)
    odd = sum(1 for a in p.parts if a % 2 == 1)
    if fam == "A":
        return size * size - s2
    if fam == "C":
        z = (s2 + odd) // 2
        return size * (size + 1) // 2 - z
    z = (s2 - odd) // 2
    return size * (size - 1) // 2 - z


def dominates(p: Partition, q: Partition) -> bool:
    """Dominance order: every partial sum of p is >= that of q (equal totals n).

    Only the first min(len p, len q) partial sums are compared.  Past the end of the
    shorter partition its partial sum is n, and no partial sum exceeds n: if p is the
    shorter, the later comparisons hold; if q is, p's partial sum at q's last part is
    below n (positive parts of p follow), so the comparison there already fails.
    """
    if p.total != q.total:
        raise ValueError("dominance needs equal totals")
    return all(a >= b for a, b in zip(accumulate(p.parts), accumulate(q.parts)))


def _covers(labels: tuple[OrbitLabel, ...], lo: OrbitLabel) -> list[OrbitLabel]:
    """The labels covering `lo` in dominance order, in `labels` order.

    `labels` is in decreasing lexicographic order, which extends dominance,
    so a backward scan from `lo` meets each label above it after every label
    between the two.  A label hi above `lo` covers it iff no cover
    already found lies below hi: if hi covers `lo`, no label lies strictly
    between them; if not, a minimal label strictly between covers `lo` and
    lies below hi, so the scan met it first and kept it.
    """
    found: list[OrbitLabel] = []
    for hi in reversed(labels[: labels.index(lo)]):
        if dominates(hi.partition, lo.partition) and not any(
            dominates(hi.partition, c.partition) for c in found
        ):
            found.append(hi)
    return found[::-1]


def hasse_diagram(t) -> list[tuple[OrbitLabel, OrbitLabel]]:
    """Covering relations (lower, upper) of the valid-partition closure order."""
    labels = _labels(_ctype(t))
    return [(lo, hi) for lo in labels for hi in _covers(labels, lo)]


# ---------------------------------------------------------------------------
# weighted Dynkin diagrams

def _jordan_eigenvalues(p: Partition) -> list[int]:
    out = []
    for a in p.parts:
        out.extend(range(a - 1, -a, -2))
    return out


def weighted_diagram(t, label: OrbitLabel | Partition) -> WeightedDynkinDiagram:
    """Weighted Dynkin diagram of a nilpotent orbit.

    Classical types use the standard recipe: merge the per-block h-eigenvalue
    strings, take the dominant rearrangement in epsilon-coordinates, and read
    off the simple-root values.
    """
    if isinstance(label, Partition):
        label = OrbitLabel(partition=label)
    if label.diagram is not None:
        return label.diagram
    t = _ctype(t)
    fam, n, size = _classical_data(t)
    p = label.partition
    if not partition_valid(t, p):
        raise ValueError(f"invalid partition {p} for {t}")
    ev = sorted(_jordan_eigenvalues(p), reverse=True)
    if fam == "A":
        h = ev
        marks = [h[i] - h[i + 1] for i in range(n)]
    else:
        h = ev[:n]
        marks = [h[i] - h[i + 1] for i in range(n - 1)]
        if fam == "B":
            marks.append(h[n - 1])
        elif fam == "C":
            marks.append(2 * h[n - 1])
        else:
            marks.append(h[n - 2] + h[n - 1])
    return WeightedDynkinDiagram(tuple(marks))


# ---------------------------------------------------------------------------
# minimal and next-to-minimal orbits

def minimal_orbit(t) -> OrbitLabel:
    """Label of the minimal nonzero nilpotent orbit."""
    t = _ctype(t)
    if t.family in "ABCD":
        labels = _labels(t)
        (label,) = _covers(labels, labels[-1])  # the one cover of the zero orbit
        return label
    rs = build_root_system(t)
    marks = rs.coroot_marks(rs.highest_root)
    return OrbitLabel(diagram=WeightedDynkinDiagram(marks), name="minimal")


def next_to_minimal(t) -> list[OrbitLabel]:
    """Labels of the orbits covering the minimal one in the closure order."""
    t = _ctype(t)
    fam = t.family
    if fam in "ABCD":
        return _covers(_labels(t), minimal_orbit(t))
    # exceptional: construct the representative's semi-simple element directly
    rs = build_root_system(t)
    if fam in ("G", "F"):
        marks = rs.coroot_marks(rs.highest_short_root)
    else:
        # theta the highest root and beta the first positive root with <beta, theta^vee> = 0
        tm = rs.coroot_marks(rs.highest_root)
        beta = next(b for b, v in zip(rs.positive_roots, rs.root_pairings(tm)) if v == 0)
        marks = [p + q for p, q in zip(tm, rs.coroot_marks(beta))]
    marks = rs.dominant_marks(marks)
    return [OrbitLabel(diagram=WeightedDynkinDiagram(marks), name="next-to-minimal")]


# ---------------------------------------------------------------------------
# representatives

def expected_orbit_dimension(rs, w: WeightedDynkinDiagram) -> int:
    """dim g - dim g_0(h) - dim g_1(h) for h the diagram's Cartan element.

    That is dim g - rank - 2 #{beta > 0 : <beta, h> = 0} - #{beta > 0 : <beta, h> = 1}:
    g_0 is the Cartan plus the root spaces of +-beta with <beta, h> = 0, and
    the marks are >= 0, so g_1 holds positive roots only.
    """
    pos = rs.root_pairings(w.marks)[: rs.num_positive]
    return rs.dimension - rs.rank - 2 * pos.count(0) - pos.count(1)


def representative(
    a: ChevalleyAlgebra, w: WeightedDynkinDiagram, seed: int = 0
) -> Sl2Triple:
    """Nilpotent representative: the sl2 triple of a random small-integer x in g_2(h).

    x is accepted iff `sl2.complete_triple` finds an exact sl2 partner Y with
    [X, Y] = H, H the Cartan element of the marks, and that triple is returned
    (x is its `.x`), so no caller solves it again.  The marks are >= 0, so the
    triple proves that w is x's weighted Dynkin diagram (Kostant).  g is a sum
    of irreducible sl2-modules; ad X kills exactly the highest vector of each,
    and each has exactly one vector of H-eigenvalue 0 or 1, so
    dim ker ad X = dim g_0 + dim g_1: `expected_orbit_dimension` is x's
    certified orbit dimension.  On failure it retries with fresh coefficients,
    widening the range after every third.
    """
    g2 = a.graded_basis(w.marks).get(2)
    if not g2:
        raise ValueError(f"diagram {w} has empty degree-2 piece")
    rng = random.Random(seed)
    crange = 3
    for attempt in range(30):
        coeffs = [rng.randint(-crange, crange) for _ in g2]
        if not any(coeffs):
            continue
        with suppress(ValueError):  # no sl2 partner for this H: draw again
            return complete_triple(a, _embed(a, g2, coeffs), w.marks)
        if attempt % 3 == 2:
            crange *= 2
    raise ValueError(
        f"no representative found for diagram {w} in 30 tries: "
        f"it is likely not a weighted Dynkin diagram of {a.rs.cartan_type}"
    )


def min_orbit_representative(a: ChevalleyAlgebra) -> AlgebraElement:
    """Highest-root vector: canonical representative of the minimal orbit."""
    return a.root_vector(a.rs.highest_root)
