"""sl2-triples through nilpotent representatives and isotypic bookkeeping.

Given a nilpotent X in the degree-2 piece of its weighted-diagram grading,
the triple is completed by an exact linear solve for Y in the degree -2
piece.  The centralizer k of the triple is the kernel of ad(X) on the
degree-0 piece; the isotypic multiplicities A_k come from the eigenvalue
dimensions n_k of ad(H): A_k = n_k - n_{k+2} (minus the triple's own adjoint
copy at k = 2), and the bundle fibre W = sum_{k>=2} A_k S^{k-2} has
dimension sum A_k (k-1).
"""

from __future__ import annotations

from dataclasses import dataclass

from ._modp import rank_mod_p, residues
from .chevalley import AlgebraElement, ChevalleyAlgebra
from .linalg import kernel_basis_int, rank_int_rows, solve_linear


@dataclass(frozen=True)
class Sl2Triple:
    x: AlgebraElement
    y: AlgebraElement
    h: AlgebraElement
    marks: tuple[int, ...]  # <alpha_i, h>: h is the Cartan element with these marks
    grading: dict  # ad(h) eigenvalue -> basis indices of that eigenspace, ascending


def _embed(a: ChevalleyAlgebra, idx: list[int], v, den: int = 1) -> AlgebraElement:
    """The element with coordinates v / den on the basis indices idx, zero elsewhere."""
    co = [0] * a.dim
    for b, c in zip(idx, v):
        co[b] = c
    return AlgebraElement(co, den)


def _restricted_map_rows(a, x, src: list[int], dst: list[int]) -> list[list[int]]:
    """Rows (indexed by dst) of ad(x) restricted to the span of src; x is an int vector."""
    rows = [[0] * len(src) for _ in dst]
    dpos = {b: i for i, b in enumerate(dst)}
    for cj, j in enumerate(src):
        # [b_j, x] = -[x, b_j]
        for b, v in enumerate(a.bracket_vec(a.basis_vector(j), x)):
            if v:
                if b not in dpos:
                    raise ArithmeticError("image leaves the expected graded piece")
                rows[dpos[b]][cj] = -v
    return rows


def complete_triple(a: ChevalleyAlgebra, x: AlgebraElement, marks) -> Sl2Triple:
    """Solve [X, Y] = H inside the (-2)-eigenspace of ad(H); verify exactly.

    H is the Cartan element with the given integer marks <alpha_i, H>.
    """
    marks = tuple(marks)
    h = a.coweight_vector(marks)
    if a.bracket(h, x) != x.scale(2):
        raise ValueError("[H, X] != 2X: X is not in the degree-2 piece")
    graded = a.graded_basis(marks)
    gm2 = graded.get(-2, [])
    g0 = graded[0]
    if not gm2:
        raise ValueError("empty degree -2 piece")
    # [den(X) X, num] = den * den(H) H on g_0, from the -2 piece
    m = _restricted_map_rows(a, x.num, gm2, g0)
    sol = solve_linear(m, len(gm2), [h.num[b] for b in g0])
    if sol is None:
        raise ValueError("no sl2 partner: X is not generic in its grade")
    num, den = sol
    y = _embed(a, gm2, [c * x.den for c in num], den * h.den)
    if a.bracket(x, y) != h:
        raise ArithmeticError("triple relation [X, Y] = H failed")
    if a.bracket(h, y) != y.scale(-2):
        raise ArithmeticError("triple relation [H, Y] = -2Y failed")
    return Sl2Triple(x, y, h, marks, graded)


def triple_centralizer(a: ChevalleyAlgebra, t: Sl2Triple):
    """Basis and dimension of the joint centralizer k of the triple."""
    g0 = t.grading[0]
    g2 = t.grading.get(2, [])
    rows = _restricted_map_rows(a, t.x.num, g0, g2)
    basis = []
    vecs, den = kernel_basis_int(rows, len(g0))
    for v in vecs:
        u = _embed(a, g0, v, den)
        if any(a.bracket(u, t.y).num):
            raise ArithmeticError("centralizer misses Y")
        basis.append(u)
    if len(basis) != len(g0) - len(g2):
        raise ArithmeticError("spectral count mismatch")
    return basis, len(basis)


@dataclass(frozen=True)
class IsotypicDecomposition:
    k_dim: int
    multiplicities: dict  # k -> dim A_k  (k >= 1, nonzero entries only)
    w_dim: int
    graded_dims: dict


def isotypic_decomposition(a: ChevalleyAlgebra, t: Sl2Triple) -> IsotypicDecomposition:
    """Decompose g = su(2) + k + sum [A_k S^k] from the ad(H) grading."""
    n = {k: len(v) for k, v in t.grading.items()}
    kmax = max(n)
    mult = {}
    for k in range(1, kmax + 1):
        ak = n.get(k, 0) - n.get(k + 2, 0)
        if k == 2:
            ak -= 1  # the triple itself spans one adjoint copy of S^2
        if ak < 0:
            raise RuntimeError("negative isotypic multiplicity")
        if ak:
            mult[k] = ak
    k_dim = n.get(0, 0) - n.get(2, 0)
    total = 3 + k_dim + sum(ak * (k + 1) for k, ak in mult.items())
    if total != a.dim:
        raise ArithmeticError(f"isotypic bookkeeping failed: {total} != {a.dim}")
    if any(n.get(k, 0) != n.get(-k, 0) for k in n):
        raise ArithmeticError("asymmetric ad(H) spectrum")
    w_dim = sum(ak * (k - 1) for k, ak in mult.items() if k >= 2)
    return IsotypicDecomposition(k_dim, mult, w_dim, n)


# ---------------------------------------------------------------------------
# commutants and the W-module realization

def _commutator_rows(mats, d: int) -> list[list[int]]:
    """Nonzero rows of B -> [M, B] for each integer d x d matrix M, on B flattened."""
    rows = []
    for m in mats:
        # constraint on B: sum_k M[i][k] B[k][j] - B[i][k] M[k][j] = 0
        for i in range(d):
            for j in range(d):
                row = [0] * (d * d)
                for k in range(d):
                    row[k * d + j] += m[i][k]
                    row[i * d + k] -= m[k][j]
                if any(row):
                    rows.append(row)
    return rows


def commutant_dim(action_matrices: list[list[list[int]]]) -> int:
    """Dimension of the space of matrices commuting with all integer action matrices.

    Exact.  The commutant of two fixed integer combinations A, B of the
    matrices is ranked mod 2**31 - 1 first.  A and B lie in the span of the
    matrices, so their commutant contains the one sought; reducing mod p can
    only lower a rank, so only raise a nullity; and the identity always
    commutes.  A reading of 1 is therefore the exact
    answer.  Any other reading falls back to the exact rank of all the
    stacked constraints.
    """
    if not action_matrices:
        raise ValueError("need at least one matrix")
    mats = action_matrices
    d = len(mats[0])
    if any(len(m) != d or any(len(row) != d for row in m) for m in mats):
        raise ValueError("matrices must act on a common space")
    combos = (range(1, len(mats) + 1), [(-1) ** i * (i * i % 7 + 1) for i in range(len(mats))])
    pair = [
        [[sum(c * m[i][j] for c, m in zip(cs, mats)) for j in range(d)] for i in range(d)]
        for cs in combos
    ]
    if d * d - rank_mod_p(residues(_commutator_rows(pair, d), d * d)[None])[0] == 1:
        return 1
    return d * d - rank_int_rows(_commutator_rows(mats, d), d * d)


def w_isotypic_action(a: ChevalleyAlgebra, t: Sl2Triple, kbasis):
    """Integer action matrices of k on each W-block (k >= 2 isotypic multiplicity space).

    Realized on highest-vector slices: ker(ad X) in the degree-k piece; the
    k = 2 slice drops the Killing-orthogonal line through X itself.  The
    slice basis is integer and reads one common value s on its own unit
    coordinate of the piece and 0 on the others' (the free columns of
    `kernel_basis_int`), so the coordinates of an image are read off those
    positions with no solve, and the image is then checked, in integers, to
    equal that combination of the slice basis.  The matrix of u is
    s * den(u) times the matrix of u's action; each scale is a nonzero
    integer, which leaves the commutant unchanged.
    """
    graded = t.grading
    blocks = []
    for k, ak in isotypic_decomposition(a, t).multiplicities.items():
        if k < 2:
            continue
        gk = graded[k]
        rows = _restricted_map_rows(a, t.x.num, gk, graded.get(k + 2, []))
        vecs, s = kernel_basis_int(rows, len(gk))  # slice vectors over gk, reading s
        if k == 2:
            kappa = [a.killing(_embed(a, gk, v).num, t.y.num) for v in vecs]  # against den(Y) Y
            vecs, f = _hyperplane_basis(vecs, kappa)
            s *= f
        if len(vecs) != ak:
            raise ArithmeticError(f"W-block dimension mismatch at k={k}: {len(vecs)} != {ak}")
        at = [[v[r] for v in vecs] for r in range(len(gk))]
        unit = [at.index([s * (i == j) for j in range(ak)]) for i in range(ak)]
        elems = [_embed(a, gk, v).num for v in vecs]
        inside = set(gk)
        mats = []
        for u in kbasis:
            cols = []
            for e in elems:
                img = a.bracket_vec(u.num, e)  # den(u) [u, v]
                if any(c for b, c in enumerate(img) if b not in inside):
                    raise ArithmeticError("bracket left the graded piece")
                coords = [img[gk[r]] for r in unit]
                for r, b in enumerate(gk):
                    if img[b] * s != sum(c * w[r] for c, w in zip(coords, vecs)):
                        raise ArithmeticError("k-action leaves the W slice")
                cols.append(coords)
            mats.append([list(r) for r in zip(*cols)])
        blocks.append((k, mats, len(vecs)))
    return blocks


def _hyperplane_basis(vecs, kappa):
    """Integer basis of the kernel of the functional kappa on span(vecs), and its scale.

    For the first p with kappa[p] != 0, each other vecs[i] becomes
    kappa[p] vecs[i] - kappa[i] vecs[p].  It still reads 0 on the other kept
    vectors' unit coordinates, and kappa[p] times its old value on its own;
    kappa[p] is the scale returned (1 when kappa vanishes and vecs is kept).
    """
    piv = next((i for i, c in enumerate(kappa) if c != 0), None)
    if piv is None:
        return vecs, 1
    kp, vp = kappa[piv], vecs[piv]
    out = [
        [kp * x - c * y for x, y in zip(v, vp)]
        for i, (v, c) in enumerate(zip(vecs, kappa)) if i != piv
    ]
    return out, kp
