"""sl2-triples through nilpotent representatives and isotypic bookkeeping.

Given a nilpotent X in the degree-2 piece of its weighted-diagram grading,
the triple is completed by an exact linear solve for Y in the degree -2
piece.  The centralizer k of the triple is the kernel of ad(X) on the
degree-0 piece; the isotypic multiplicities A_k come from the eigenvalue
dimensions n_k of ad(H): A_k = n_k - n_{k+2} (minus the triple's own adjoint
copy at k = 2), and the bundle fibre W = sum_{k>=2} A_k S^{k-2} has
dimension sum A_k (k-1).  Every map is exact integer arithmetic on blocks of
ad(x) from `ChevalleyAlgebra.ad_ints` and int64 products through `_dot`,
each of which checks its headroom and raises ArithmeticError past it.
k acts irreducibly on a W-block when `commutant_dim` reads 1, certified mod P
by a combination A of k's matrices that is non-derogatory, so its centralizer
is Q[A]; only a failed certificate ranks the d^2-column system exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._modp import P, rank_mod_p
from .chevalley import AlgebraElement, ChevalleyAlgebra, int64_array
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


def _dot(x, y) -> np.ndarray:
    """x @ y for integer arrays or rows, exactly in int64: each entry sums len(y) products,
    so it needs max|x| * max|y| * len(y) < 2**63, or ArithmeticError."""
    y, top = int64_array(y)
    return int64_array(x, top * len(y))[0] @ y


def _restricted_map_rows(a, x, src: list[int], dst: list[int]) -> list[list[int]]:
    """Rows (indexed by dst) of ad(x) restricted to the span of src; x is an int vector."""
    m = a.ad_ints([x], src)[0]  # row j is [b_j, x] = -[x, b_j]
    if np.delete(m, dst, axis=1).any():
        raise ArithmeticError("image leaves the expected graded piece")
    return (-m[:, dst]).T.tolist()


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
    vecs, den = kernel_basis_int(rows, len(g0))
    # D [u, Y] = sum_j v_j [b_j, Y] for u = v / D: the rows g0 of ad(Y), nonzero columns
    ad_y = a.ad_ints([t.y.num], g0)[0]
    if vecs and _dot(vecs, ad_y[:, ad_y.any(axis=0)]).any():
        raise ArithmeticError("centralizer misses Y")
    basis = [_embed(a, g0, v, den) for v in vecs]
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
            raise ArithmeticError(f"negative isotypic multiplicity A_{k} = {ak}")
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

def commutant_dim(action_matrices: list[list[list[int]]]) -> int:
    """Dimension of the space of matrices commuting with all integer action matrices.

    Exact.  Two fixed integer combinations A, B of the matrices lie in their
    span, so the commutant of the pair {A, B} contains the one sought, and
    both contain the identity.  One stack is ranked mod P: the d powers
    vec(A^k) and the d commutators vec([A^k, B]), k < d, with ranks r_pow and
    r_comm.  Reducing mod P never raises a rank, so r_pow = d means
    I, A, ..., A^(d-1) are independent over Q: A's minimal polynomial has
    degree d, A is non-derogatory and its centralizer is Q[A].  The pair's
    commutant is then {p(A) : [p(A), B] = 0}, of dimension
    d - rank_Q [A^k, B] <= d - r_comm.  A reading d - r_comm = 1 is therefore
    exact, for O(d^4) work where the pair's d^2-column commutator system
    took O(d^6).  Any other reading (a derogatory A, or a larger
    commutant) falls back to the exact rank of all the stacked constraints.
    """
    if not action_matrices:
        raise ValueError("need at least one matrix")
    d = len(action_matrices[0])
    if any(len(m) != d or any(len(row) != d for row in m) for m in action_matrices):
        raise ValueError("matrices must act on a common space")
    mats = int64_array(action_matrices)[0].reshape(-1, d, d)
    cs = [range(1, len(mats) + 1), [(-1) ** i * (i * i % 7 + 1) for i in range(len(mats))]]
    a, b = _dot(cs, mats.reshape(len(mats), d * d)).reshape(2, d, d)
    pows = [np.eye(d, dtype=np.int64)]
    for _ in range(1, d):
        pows.append(_dot(pows[-1], a) % P)
    pows = np.stack(pows)  # A^k mod P, k < d; _dot(b, pows) sums len(pows) = d products
    comm = _dot(pows, b) % P - _dot(b, pows) % P
    r_pow, r_comm = rank_mod_p(np.stack([pows, comm]).reshape(2, d, d * d))
    if r_pow == d and d - r_comm == 1:
        return 1
    # vec([M, X]) = (M (x) I - I (x) M^T) vec(X), on X flattened, for each matrix M
    eye = np.eye(d, dtype=np.int64)
    rows = np.concatenate([
        _dot(np.stack([np.kron(m, eye), np.kron(eye, m.T)], axis=-1), [1, -1]) for m in mats
    ])
    return d * d - rank_int_rows(rows[rows.any(axis=1)].tolist(), d * d)


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
    g0 = graded[0]
    us = int64_array([[u.num[b] for b in g0] for u in kbasis])[0].reshape(len(kbasis), len(g0))
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
        vs, cols = int64_array(vecs)[0], []
        for v in vecs:
            ad_v = a.ad_ints([_embed(a, gk, v).num], g0)[0]  # row j is [b_j, v]
            if np.delete(ad_v, gk, axis=1).any():
                raise ArithmeticError("bracket left the graded piece")
            img = _dot(us, ad_v[:, gk])  # row u is den(u) [u, v] = sum_j u.num_j [b_j, v]
            coords = img[:, unit]
            # img is s^-1 coords . vecs if it lies in the slice: an exact division, no product
            lhs = _dot(coords, vs)
            if (lhs % s).any() or (lhs // s != img).any():
                raise ArithmeticError("k-action leaves the W slice")
            cols.append(coords)
        mats = np.stack(cols, axis=-1).tolist()  # column c of u's matrix is u's coords of vecs[c]
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
