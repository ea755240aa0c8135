"""Integer-exact root systems for simple and semi-simple Cartan types.

Conventions, fixed for the whole package:

* Bourbaki node numbering.  A/B/C/D are chains numbered left to right with the
  short (B) or long (C) root last and the D-fork at the tail; E_n is the chain
  1-3-4-5-...-n with node 2 attached to node 4; F4 has nodes 1,2 long and 3,4
  short; G2 has node 1 short and node 2 long.
* ``cartan_matrix[i][j] = <alpha_j, alpha_i^vee>``.
* Roots are integer coordinate tuples in the simple-root basis; pairings are
  computed through the Cartan matrix, so no irrational geometry appears.
* `RootSystem` tabulates each root's numbers once, in `all_roots` order: its
  pairings <beta, alpha_i^vee>, coroot coordinates and half squared length.
  Every other module reads these tables and computes none of them; the
  weight layer (`branching`) reads them, `symmetrizers` and `cartan_matrix`,
  and inverts no matrix.
* Symmetrizers ``d_i = (alpha_i, alpha_i)/2`` are normalized so short roots
  have squared length 2 (d in {1,2,3}).

`_simple_cartan_matrix` is the only Dynkin-diagram data: the symmetrizers are
read off it (`_symmetrizers`), `identify_subsystem` names a diagram by the
orders of its nodes that turn its Cartan matrix into a standard one
(`cartan_matches`), and a type's diagram automorphisms are its Cartan matrix's
matches onto itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .linalg import kernel_basis_int

_RANK_MIN = {"A": 1, "B": 2, "C": 2, "D": 3, "E": 6, "F": 4, "G": 2}
_RANK_MAX = {"E": 8, "F": 4, "G": 2}


@dataclass(frozen=True)
class SimpleType:
    family: str
    rank: int

    def __post_init__(self):
        if self.family not in _RANK_MIN:
            raise ValueError(f"unknown family {self.family!r}")
        if self.rank < _RANK_MIN[self.family] or self.rank > _RANK_MAX.get(self.family, 10**9):
            raise ValueError(f"invalid rank {self.rank} for family {self.family}")

    def __str__(self):
        return f"{self.family}{self.rank}"


@dataclass(frozen=True)
class CartanType:
    """A simple type or a product of simple types."""

    components: tuple[SimpleType, ...]

    def __post_init__(self):
        if not self.components:
            raise ValueError("product type needs at least one component")

    @property
    def is_simple(self):
        return len(self.components) == 1

    @property
    def rank(self):
        return sum(c.rank for c in self.components)

    @property
    def family(self):
        if not self.is_simple:
            raise ValueError("family of a product type")
        return self.components[0].family

    def __str__(self):
        return "x".join(str(c) for c in self.components)


def simple(family: str, rank: int) -> CartanType:
    return CartanType((SimpleType(family, rank),))


def parse_cartan_type(s: str) -> CartanType:
    """Parse strings like ``"A2"``, ``"E8"`` or ``"A1xA1"``/``"A2+G2"``."""
    comps = []
    for tok in s.replace("+", "x").split("x"):
        tok = tok.strip()
        if len(tok) < 2 or tok[0].upper() not in _RANK_MIN or not tok[1:].isdecimal():
            raise ValueError(f"cannot parse Cartan type {s!r}")
        comps.append(SimpleType(tok[0].upper(), int(tok[1:])))
    return CartanType(tuple(comps))


def _simple_cartan_matrix(family: str, n: int) -> list[list[int]]:
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def chain(pairs):
        for i, j in pairs:
            a[i][j] = a[j][i] = -1

    if family == "A":
        chain((i, i + 1) for i in range(n - 1))
    elif family == "B":
        chain((i, i + 1) for i in range(n - 1))
        a[n - 1][n - 2] = -2  # <alpha_{n-1}, alpha_n^vee>, alpha_n short
    elif family == "C":
        chain((i, i + 1) for i in range(n - 1))
        a[n - 2][n - 1] = -2  # <alpha_n, alpha_{n-1}^vee>, alpha_n long
    elif family == "D":
        chain((i, i + 1) for i in range(n - 2))
        a[n - 3][n - 1] = a[n - 1][n - 3] = -1
    elif family == "E":
        spine = [0] + list(range(2, n))
        chain((spine[k], spine[k + 1]) for k in range(len(spine) - 1))
        a[1][3] = a[3][1] = -1
    elif family == "F":
        chain(((0, 1), (2, 3)))
        a[1][2] = -1
        a[2][1] = -2
    elif family == "G":
        a[0][1] = -3
        a[1][0] = -1
    return a


def _symmetrizers(cartan: list[list[int]]) -> list[int]:
    """d_i = (alpha_i, alpha_i)/2 on a connected diagram: d_i C[i][j] = d_j C[j][i] along
    its edges, reached from node 0, as coprime integers, so that the least d is 1."""
    d, queue = [1] + [0] * (len(cartan) - 1), [0]
    for i in queue:
        for j, c in enumerate(cartan[i]):
            if c and not d[j]:
                if d[i] * c % cartan[j][i]:  # scale every d so that d_j is an integer
                    d = [-v * cartan[j][i] for v in d]
                d[j] = d[i] * c // cartan[j][i]
                queue.append(j)
    g = gcd(*d)
    return [v // g for v in d]


def _positive_roots(cartan: list[list[int]]) -> list[tuple[int, ...]]:
    """All positive roots, raised from the simple roots by simple reflections.

    A root b with c = <b, alpha_i^vee> < 0 is not alpha_i, which pairs to 2,
    so s_i(b) = b - c alpha_i is again positive (Humphreys, Lemma 10.2B).
    Every positive beta that is not simple pairs positively with some alpha_i,
    as (beta, beta) > 0, and s_i(beta) is then a lower positive root pairing
    negatively with alpha_i, whose reflection is beta; by induction on height
    every positive root is reached.  Sorted by (height, coordinates).
    """
    n = len(cartan)
    queue = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    found = set(queue)
    for b in queue:
        for i, row in enumerate(cartan):
            c = sum(a * x for a, x in zip(row, b))
            if c < 0:
                r = b[:i] + (b[i] - c,) + b[i + 1:]
                if r not in found:
                    found.add(r)
                    queue.append(r)
    return sorted(found, key=lambda r: (sum(r), r))


def _det_and_scaled_inverse(a: list[list[int]]):
    """(det a, det(a) * a^{-1}) in integers, for a with positive determinant.

    The kernel of [a | -I] has one vector per column k of the identity; it
    reads the last Bareiss pivot, |det a|, there and 0 on the other identity
    columns, so its first half is column k of det(a) * a^{-1}.
    """
    n = len(a)
    rows = [list(a[i]) + [-int(i == k) for k in range(n)] for i in range(n)]
    basis, det = kernel_basis_int(rows, 2 * n)
    inv = [[v[i] for v in basis] for i in range(n)]
    if any(
        sum(a[i][k] * inv[k][j] for k in range(n)) != det * (i == j)
        for i in range(n) for j in range(n)
    ):
        raise ArithmeticError("C * (det(C) * C^-1) != det(C) * I")
    return det, inv


class RootSystem:
    """Immutable root data for a (semi-)simple Cartan type."""

    def __init__(self, cartan_type: CartanType):
        self.cartan_type = cartan_type
        self.rank = cartan_type.rank
        offset = 0
        cm = [[0] * self.rank for _ in range(self.rank)]
        sym: list[int] = []
        for comp in cartan_type.components:
            sub = _simple_cartan_matrix(comp.family, comp.rank)
            for i, row in enumerate(sub):
                cm[offset + i][offset:offset + comp.rank] = row
            sym.extend(_symmetrizers(sub))
            offset += comp.rank
        self.cartan_matrix = tuple(tuple(row) for row in cm)
        self.symmetrizers = tuple(sym)
        self.positive_roots = tuple(_positive_roots(cm))
        self.det_cartan, inv = _det_and_scaled_inverse(cm)
        self.inv_cartan_times_det = tuple(tuple(row) for row in inv)
        self.all_roots = self.positive_roots + tuple(
            tuple(-c for c in r) for r in self.positive_roots
        )
        self.root_index = {r: k for k, r in enumerate(self.all_roots)}
        self.num_positive = len(self.positive_roots)
        self.dimension = 2 * self.num_positive + self.rank
        # per root beta, in `all_roots` order: its pairings <beta, alpha_i^vee>, half its
        # squared length d = (beta, beta)/2 = sum_i beta_i d_i <beta, alpha_i^vee> / 2, and
        # its coroot beta^vee = sum_i (beta_i d_i / d) alpha_i^vee
        tables = []
        for beta in self.all_roots:
            p = tuple(sum(c * b for c, b in zip(row, beta)) for row in cm)
            d, odd = divmod(sum(b * s * v for b, s, v in zip(beta, sym, p)), 2)
            if odd:
                raise ArithmeticError(f"odd squared length {2 * d + 1} of {beta}")
            if any(b * s % d for b, s in zip(beta, sym)):
                raise ArithmeticError(f"coroot of {beta} is not integral")
            tables.append((p, d, tuple(b * s // d for b, s in zip(beta, sym))))
        self.pairings, self.lengths, self.coroots = zip(*tables)

    # -- pairings ----------------------------------------------------------

    def coroot_coords(self, beta) -> tuple[int, ...]:
        """Coordinates of beta^vee over the simple coroots (always integers)."""
        return self.coroots[self.root_index[beta]]

    def coroot_marks(self, beta) -> tuple[int, ...]:
        """Marks <alpha_j, beta^vee> of the coroot of beta."""
        c = self.coroot_coords(beta)
        return tuple(sum(x * y for x, y in zip(c, col)) for col in zip(*self.cartan_matrix))

    def root_pairings(self, marks) -> list[int]:
        """<beta, h> = sum_j beta_j marks_j for every root beta, in `all_roots` order.

        A Cartan element h is its integer marks <alpha_j, h>.
        """
        if len(marks) != self.rank:
            raise ValueError("marks length != rank")
        pos = [sum(b * m for b, m in zip(beta, marks)) for beta in self.positive_roots]
        return pos + [-v for v in pos]

    # -- distinguished roots -------------------------------------------------

    @property
    def highest_root(self) -> tuple[int, ...]:
        if not self.cartan_type.is_simple:
            raise ValueError("highest root of a product type")
        return self.positive_roots[-1]

    @property
    def highest_short_root(self) -> tuple[int, ...]:
        if not self.cartan_type.is_simple:
            raise ValueError("highest short root of a product type")
        # positive_roots ascend by (height, coordinates): the last short one is highest
        dmin = min(self.lengths)
        return [r for r, d in zip(self.positive_roots, self.lengths) if d == dmin][-1]

    def dominant_marks(self, marks) -> tuple[int, ...]:
        """Marks of the Weyl-dominant conjugate of the Cartan element with these marks."""
        m = list(marks)
        while True:
            j = next((j for j in range(self.rank) if m[j] < 0), None)
            if j is None:
                return tuple(m)
            # s_j(h) = h - <alpha_j, h> alpha_j^vee, and <alpha_k, alpha_j^vee> = C[j][k]
            mj = m[j]
            for k in range(self.rank):
                m[k] -= mj * self.cartan_matrix[j][k]

    def __repr__(self):
        return f"RootSystem({self.cartan_type})"


_CACHE: dict[str, RootSystem] = {}


def build_root_system(t: CartanType | str) -> RootSystem:
    """Construct (and cache) the root system of a valid Cartan type."""
    if isinstance(t, str):
        t = parse_cartan_type(t)
    key = str(t)
    if key not in _CACHE:
        _CACHE[key] = RootSystem(t)
    return _CACHE[key]


# ---------------------------------------------------------------------------
# root-centralizer subsystems and type identification

@dataclass(frozen=True)
class Subsystem:
    """A root subsystem: all roots vanishing on h, with identified type."""

    roots: tuple[tuple[int, ...], ...]
    simple_roots: tuple[tuple[int, ...], ...]
    cartan_type: CartanType | None  # None for the empty subsystem
    torus_dim: int


def root_centralizer_subsystem(rs: RootSystem, marks) -> Subsystem:
    """Roots alpha with <alpha, h> = 0, for h with these marks, and the type of their span."""
    zero = [r for r, v in zip(rs.all_roots, rs.root_pairings(marks)) if v == 0]
    pos = [r for r in zero if r > tuple([0] * rs.rank)]
    pos_set = set(pos)
    simples = [
        r for r in pos
        if not any(
            tuple(a - b for a, b in zip(r, s)) in pos_set for s in pos if s != r
        )
    ]
    simples.sort(key=lambda r: (sum(r), r))
    if not simples:
        return Subsystem((), (), None, rs.rank)
    ctype, ordered = identify_subsystem(rs, simples)
    return Subsystem(tuple(zero), tuple(ordered), ctype, rs.rank - len(simples))


def cartan_matches(m, std):
    """Every tuple o of distinct indices of m with m[o[p]][o[q]] == std[p][q] for all p, q.

    A depth-first search that places std's nodes in turn, trying m's indices
    in ascending order, so the matches come out lexicographically.  With
    m == std the matches are the diagram automorphisms.
    """
    o: list[int] = []

    def place():
        p = len(o)
        if p == len(std):
            yield tuple(o)
            return
        for v in range(len(m)):
            if v not in o and m[v][v] == std[p][p] and all(
                m[o[q]][v] == std[q][p] and m[v][o[q]] == std[p][q] for q in range(p)
            ):
                o.append(v)
                yield from place()
                o.pop()

    yield from place()


def identify_subsystem(rs: RootSystem, simples) -> tuple[CartanType, tuple]:
    """Cartan type of a set of simple roots, with roots reordered to match it.

    The returned ordering makes the pairing matrix of the roots equal to the
    standard Cartan matrix of the named type (per component, components sorted
    by family/rank then concatenated).  Each connected component, its roots in
    the order a search from its lowest index reaches them, takes the first
    family A to G that `cartan_matches` it, else raises ValueError; so does a non-root.
    """
    n = len(simples)
    for b in simples:
        if tuple(b) not in rs.root_index:
            raise ValueError(f"{tuple(b)} is not a root of {rs.cartan_type}")
    ts = [rs.root_index[tuple(b)] for b in simples]
    # pair[i][j] = <b_j, b_i^vee> = sum_k (b_i^vee)_k <b_j, alpha_k^vee>
    pair = [[sum(c * p for c, p in zip(rs.coroots[s], rs.pairings[t])) for t in ts] for s in ts]
    identified = []
    seen: set[int] = set()
    for s in range(n):
        if s in seen:
            continue
        comp, stack = [s], [s]  # the connected component of s, in the order reached
        seen.add(s)
        while stack:
            u = stack.pop()
            new = [v for v in range(n) if v not in seen and pair[u][v]]
            seen.update(new)
            comp += new
            stack += new
        k = len(comp)
        m = [[pair[a][b] for b in comp] for a in comp]
        rows = sorted(map(sorted, m))
        for fam in "ABCDEFG":
            if not _RANK_MIN[fam] <= k <= _RANK_MAX.get(fam, k):
                continue
            std = _simple_cartan_matrix(fam, k)
            # equal sorted rows are necessary for a match and cheap to compare
            if sorted(map(sorted, std)) == rows:
                order = next(cartan_matches(m, std), None)
                if order is not None:
                    break
        else:
            raise ValueError("not a Dynkin diagram")
        if (fam, k) in (("D", 4), ("E", 6)):
            # the matches differ by triality or E6's flip; the package's convention
            # fills nodes 3 and 4 (D4), or node 3 (E6), with the earliest reached roots
            order = min(cartan_matches(m, std), key=lambda o: (o[2], o[3]))
        identified.append((fam, k, [comp[i] for i in order]))
    identified.sort(key=lambda t: t[:2])
    ctype = CartanType(tuple(SimpleType(fam, k) for fam, k, _ in identified))
    idxs = [i for _, _, order in identified for i in order]
    # hard check: pairing matrix of the ordered roots equals the standard one
    std = build_root_system(ctype).cartan_matrix
    if tuple(tuple(pair[i][j] for j in idxs) for i in idxs) != std:
        raise ArithmeticError("subsystem identification failed")
    return ctype, tuple(simples[i] for i in idxs)

