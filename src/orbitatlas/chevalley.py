"""Chevalley-basis realization of the complex semi-simple Lie algebras.

Basis order: coroots h_1..h_r, then e_beta for beta running through the
positive roots (height order) followed by the negative roots.  Only this
module maps a root to its basis position (`root_vector_index`) and reads the
ad(h) gradings off that order (`graded_basis`).  Structure constant signs are
fixed by the extraspecial-pair convention: for each non-simple positive root
gamma the extraspecial pair (a, b), a + b = gamma with a minimal in the
height-lex order, gets N_{a,b} = p + 1 > 0.  Carter's loop forces N on the other
positive pairs from these, and every other N follows by the zero-sum-triple
rule: N_{a,b} / d(c) is the same for each rotation of a + b + c = 0, and
N_{-a,-b} = -N_{a,b}.  Constants are deterministic, reproducible across runs.

Each algebra builds its structure-constant table once, as one int64 index
array built from arrays of terms: shape (dim, 3, width), row j listing each
[b_j, b_i] = c b_k as (i, k, c), padded with c = 0.  Every bracket is
derived from it: blocks of ad(x) by gathers and scatters over the array, exactly
in int64 (`ad_ints`, its headroom checked on each call; `_modp.rank_mod_p`
reduces them mod P = 2**31 - 1), and brackets of elements of any size exactly
by `ChevalleyAlgebra.bracket_vec`, which walks the array's rows as Python ints:
the array is the table's only copy.  Construction also derives from it, once, the
powers ad(e_gamma)^p of every root vector, one slot per path of terms
(`ad_powers`), on which `cohom` runs its unipotent flows.  Root data comes from
`RootSystem`'s tables.
An element is an integer vector over one positive denominator
(`AlgebraElement`).  The Killing form is one integer formula over the coroot
Gram matrix G (`killing`).  Construction proves the table a Lie algebra
(`verify_jacobi`), on every algebra.  Algebras are immutable after
construction.
"""

from __future__ import annotations

from fractions import Fraction as Q
from math import gcd, lcm

import numpy as np

from ._modp import P
from .linalg import rank_int_rows
from .roots import CartanType, RootSystem, build_root_system


class AlgebraElement:
    """Element of g^C with rational coordinates over the Chevalley basis.

    Coordinate i is num[i] / den: `num` is a tuple of ints and `den` a
    positive int, normalised so that gcd(*num, den) == 1.  Equal elements
    therefore have equal (num, den).
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        if not den:
            raise ZeroDivisionError("AlgebraElement with denominator 0")
        num = tuple(num)
        if den < 0:
            num, den = tuple(-a for a in num), -den
        g = gcd(den, *num)
        if g > 1:
            num, den = tuple(a // g for a in num), den // g
        self.num, self.den = num, den

    def __add__(self, other):
        den = lcm(self.den, other.den)
        p, q = den // self.den, den // other.den
        return AlgebraElement([p * a + q * b for a, b in zip(self.num, other.num)], den)

    def scale(self, c):
        c = Q(c)
        return AlgebraElement([c.numerator * a for a in self.num], c.denominator * self.den)

    def __eq__(self, other):
        return (
            isinstance(other, AlgebraElement)
            and self.den == other.den
            and self.num == other.num
        )

    def __repr__(self):
        nnz = sum(1 for a in self.num if a)
        return f"AlgebraElement(nnz={nnz}, den={self.den})"


def int64_array(rows, scale: int = 1) -> tuple[np.ndarray, int]:
    """Integer rows, or an int64 array, as int64, and their largest |entry| m as an int.

    ArithmeticError unless m and m * scale are below 2**63, compared as Python ints: no wrap.
    """
    a = rows if getattr(rows, "dtype", None) == np.int64 else np.array(rows, dtype=object)
    top = max(int(a.max(initial=0)), -int(a.min(initial=0)))
    if max(top, top * scale) >= 1 << 63:
        raise ArithmeticError(f"int64 headroom fails: max|entry| = {top}, scale {scale}")
    return a.astype(np.int64, copy=False), top


class ChevalleyAlgebra:
    """Structure-constant realization of g^C."""

    def __init__(self, rs: RootSystem):
        self.rs = rs
        self.rank = rs.rank
        self.dim = rs.dimension
        npos = rs.num_positive
        roots = np.array(rs.all_roots, dtype=np.int64)
        pair = np.array(rs.pairings, dtype=np.int64)  # <beta, alpha_i^vee>
        co = np.array(rs.coroots, dtype=np.int64)
        self._build_index(self._build_constants(roots, pair, co, rs.lengths))
        # G[i][j] = K(h_i, h_j) = 2 sum_{gamma > 0} <gamma, alpha_i^vee><gamma, alpha_j^vee>
        self._gram = (2 * pair[:npos].T @ pair[:npos]).tolist()
        # m[gamma, beta] = <gamma, beta^vee> for gamma > 0: c_beta^T G c_beta / 2 sums its
        # squares over gamma.  ad(e_g)^k b != 0 needs b, [e_g, b], ... nonzero, of weights
        # wt(b) + m g: k <= 2 through -g, k <= 1 through 0, and through another root a
        # g-string whose bottom beta has 1 - <beta, g^vee> roots (|<., .>| is sign-blind)
        m = pair[:npos] @ co.T
        self._killing = (m[:, :npos] ** 2).sum(axis=0).tolist()
        self.max_ad_power = max(2, int(abs(m).max()))
        self.verify_jacobi()
        self._build_ad_powers()

    # -- construction --------------------------------------------------------

    def _down_string(self, beta, alpha) -> int:
        """Largest p with beta - p*alpha a root."""
        p = 0
        while tuple(b - (p + 1) * a for b, a in zip(beta, alpha)) in self.rs.root_index:
            p += 1
        return p

    def _build_constants(self, roots, pair, co, d):
        """The terms (j, i, k, c) of every bracket [b_j, b_i] = c b_k, from the roots, their
        pairings <beta, alpha_i^vee>, coroots and half squared lengths d, all in
        `all_roots` order; a root is its index there, and t + npos (mod 2 npos) is -t."""
        rs, r, npos = self.rs, self.rank, self.rs.num_positive
        rts, m = rs.all_roots, len(rs.all_roots)
        opp = list(range(npos, m)) + list(range(npos))
        # key(v) = sum_i v_i base^i is linear, and injective on sums of two roots: shifted by
        # 2M (M the largest |root coordinate|), their digits lie in [0, 4M] < base; so
        # x + y = rho iff key(x) + key(y) = key(rho).  Python ints once base**rank outgrows int64
        base = 4 * int(abs(roots).max()) + 1
        dt = np.int64 if base ** r < 1 << 63 else object
        key = roots.astype(dt) @ np.array([base ** i for i in range(r)], dtype=dt)
        by = np.argsort(key, kind="stable")
        x, y = np.triu_indices(m, 1)
        sums = key[x] + key[y]
        at = np.minimum(np.searchsorted(key[by], sums), m - 1)
        hit = key[by][at] == sums
        x, y, z = x[hit], y[hit], by[at[hit]]
        add = [[-1] * m for _ in range(m)]  # add[p][q] = p + q, or -1 if that is no root
        for p, q, t in zip(x.tolist(), y.tolist(), z.tolist()):
            add[p][q] = add[q][p] = t
        N = [[0] * npos for _ in range(npos)]  # N_{p,q} on positive pairs, both orders

        def exact(num, den):
            # root-length ratios times integer constants must divide exactly
            q, rem = divmod(num, den)
            if rem:
                raise ArithmeticError(f"inexact structure constant {num}/{den}")
            return q

        def n(p, q):
            # N_{p,q} from the triple (p, q, -(p+q)), negated (N_{-a,-b} = -N_{a,b}) unless two
            # of its roots are positive, then rotated to (a, b, c) with c < 0: N_{a,b} / d(c)
            # is the same for every rotation (Carter, Simple Groups of Lie Type, ch. 4).  So c is
            # the root whose sign differs from the other two; a root u is +-(u % npos) > 0
            t = (p, q, opp[add[p][q]])
            neg = [u >= npos for u in t]
            k = neg.index(sum(neg) == 1)
            v = exact(d[t[2]] * N[t[k - 2] % npos][t[k - 1] % npos], d[t[k]])
            return v if neg[k] else -v

        # Carter's loop over the positive pairs (a, b), a < b, by sum g, then a: the first
        # pair of each g is extraspecial, N = p + 1; every other one is forced by it
        g1 = -1
        for g, a, b in sorted(zip(*(col[y < npos].tolist() for col in (z, x, y)))):
            if g != g1:
                g1, a1, b1 = g, a, b
                v = self._down_string(rts[b], rts[a]) + 1
            else:
                t = 0
                if add[b1][opp[a]] >= 0:  # b1 - a a root
                    t += n(b1, opp[a]) * n(add[b1][opp[a]], a1)
                if add[a1][opp[a]] >= 0:  # a1 - a a root
                    t += n(opp[a], a1) * n(add[a1][opp[a]], b1)
                v = exact(d[g] * t, d[b] * N[a1][b1])
                if abs(v) != self._down_string(rts[b], rts[a]) + 1:
                    raise ArithmeticError(
                        f"structure constant N{(rts[a], rts[b])} = {v} violates root strings"
                    )
            N[a][b], N[b][a] = v, -v

        # the terms (j, i, k, c) of [b_j, b_i] = c b_k: [h_i, e_beta] and [e_beta, h_i],
        # [e_beta, e_-beta] = h_beta, and [e_x, e_y] = N_{x,y} e_{x+y} with [e_y, e_x] = -it
        b, h = np.nonzero(pair)
        terms = [(h, b + r, b + r, pair[b, h]), (b + r, h, b + r, -pair[b, h])]
        b, t = np.nonzero(co)
        terms.append((b + r, (b + npos) % m + r, t, co[b, t]))
        c = np.array([n(p, q) for p, q in zip(x.tolist(), y.tolist())], np.int64)
        terms += [(x + r, y + r, z + r, c), (y + r, x + r, z + r, -c)]
        return np.concatenate([np.array(part, dtype=np.int64) for part in terms], axis=1)

    def _build_index(self, terms):
        """Pack the terms (j, i, k, c) into `_ad`, row j listing (i, k, c) per term of
        [b_j, b_i] = sum c b_k, sorted by (i, k) and padded with c = 0; and `ad_ints`'s
        int64 headroom (fan_in: most terms of one row on one b_k)."""
        n = self.dim
        j, i, k, c = terms[:, np.argsort((terms[0] * n + terms[1]) * n + terms[2], kind="stable")]
        slot = np.arange(len(j)) - np.searchsorted(j, j)
        self._ad = np.zeros((n, 3, slot.max() + 1), dtype=np.int64)
        self._ad[j, :, slot] = np.stack([i, k, c], axis=1)
        fan_in = int(np.bincount(j * n + k).max())
        self._headroom = int(abs(c).max()) * fan_in  # an entry of ad(x) is below max|x| times this

    def _build_ad_powers(self):
        """Tabulate ad(e_gamma)^p for each root gamma (row gamma, `all_roots` order) and each
        p <= `max_ad_power` as `ad_powers` and `ad_power_widths`.

        A power-p term is one path of p terms of row gamma of `_ad`, b_i -> ... -> c b_k
        (c the product of their coefficients); it gets its own slot (i, k, c), so equal
        (i, k) are never merged and ad(e_gamma)^p b_i sums its slots.  Columns hold power 1,
        then 2, ..., each power padded with c = 0 to width `ad_power_widths[p - 1]`.  Paths
        grow one term at a time: a path ending at b_k continues along every term of row
        gamma with source k (`_ad` rows are sorted by source, so those terms are one run).
        Two checks, raising ArithmeticError: no path is longer than `max_ad_power`, so the
        table is all of exp(t ad e_gamma); and the int64 headroom of `cohom`: a product of two
        residues, (P - 1)**2, a flow's scatter onto one entry, (P - 1) (1 + max|c| width), as
        the table's width bounds the slots of one row on one b_k, and a sum of two entries of
        ad(x) for x in [0, P), 2 (P - 1) `_headroom`, stay below 2**63.  The table is
        allocated once, when its widths are known, and filled one field of one power at a
        time, which keeps the build's peak memory low.
        """
        n, ad = self.dim, self._ad[self.rank:]
        live = ad[:, 2] != 0
        g = np.nonzero(live)[0]
        i, k, c = ad[:, 0][live], ad[:, 1][live], ad[:, 2][live]
        key = g * n + i  # ascending
        paths = [(g, i, k, c)]  # paths[p - 1]: (gamma, i, k, c) of each power-p path
        for _ in range(self.max_ad_power):
            pg, pi, pk, pc = paths[-1]
            at = pg * n + pk
            lo = np.searchsorted(key, at)
            run = np.searchsorted(key, at, side="right") - lo
            pick = np.repeat(np.arange(len(pg)), run)
            step = np.arange(len(pick)) + np.repeat(lo - np.cumsum(run) + run, run)
            paths.append((pg[pick], pi[pick], k[step], pc[pick] * c[step]))
        if len(paths.pop()[0]):
            raise ArithmeticError(f"ad(e_gamma) is not nilpotent of order {self.max_ad_power}")
        slots = [np.arange(len(pg)) - np.searchsorted(pg, pg) for pg, *_ in paths]
        self.ad_power_widths = tuple(int(slot.max()) + 1 for slot in slots)
        width, cmax = sum(self.ad_power_widths), max(int(abs(pc).max()) for *_, pc in paths)
        if max((P - 1) ** 2, (P - 1) * max(1 + cmax * width, 2 * self._headroom)) >= 1 << 63:
            raise ArithmeticError(f"int64 headroom fails: |c| <= {cmax}, row width {width}")
        self.ad_powers = np.zeros((len(ad), 3, width), dtype=np.int64)
        for (pg, *terms), slot, col in zip(paths, slots, np.cumsum((0,) + self.ad_power_widths)):
            for row, v in enumerate(terms):
                self.ad_powers[pg, row, col + slot] = v

    def root_vector_index(self, beta) -> int:
        return self.rank + self.rs.root_index[beta]

    def graded_basis(self, marks) -> dict:
        """Basis indices of each ad(h) eigenspace, ascending, keyed by eigenvalue, for h = marks."""
        out: dict[int, list[int]] = {0: list(range(self.rank))}
        for k, v in enumerate(self.rs.root_pairings(marks)):
            out.setdefault(v, []).append(self.rank + k)
        return out

    # -- element construction ----------------------------------------------------

    def basis_vector(self, i: int) -> list[int]:
        """Integer coordinate vector of the basis element b_i."""
        v = [0] * self.dim
        v[i] = 1
        return v

    def root_vector(self, beta) -> AlgebraElement:
        return AlgebraElement(self.basis_vector(self.root_vector_index(beta)))

    def coweight_vector(self, marks) -> AlgebraElement:
        """The Cartan element h with <alpha_i, h> = marks_i, over the coroots.

        Its coroot coordinates are C^-T marks = (det(C) C^-1)^T marks / det(C).
        """
        if len(marks) != self.rank:
            raise ValueError("marks length != rank")
        inv = self.rs.inv_cartan_times_det
        co = [sum(inv[j][i] * m for j, m in enumerate(marks)) for i in range(self.rank)]
        return AlgebraElement(co + [0] * (self.dim - self.rank), self.rs.det_cartan)

    # -- bracket / adjoint -----------------------------------------------------

    def bracket_vec(self, x, y) -> list[int]:
        """[x, y] for integer coordinate vectors x and y.

        It walks the index array's rows of x's nonzeros as Python ints (padding adds
        c = 0), so it is exact at any size, and cheapest when x is sparse.
        """
        out = [0] * self.dim
        for i, a in enumerate(x):
            if a:
                for j, k, c in zip(*self._ad[i].tolist()):
                    b = y[j]
                    if b:
                        out[k] += a * b * c
        return out

    def bracket(self, x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
        return AlgebraElement(self.bracket_vec(x.num, y.num), x.den * y.den)

    def ad_rows(self, x: list[int]) -> list[list[int]]:
        """Row j is [b_j, x] = -(column j of ad(x)), for an integer vector x."""
        return [self.bracket_vec(self.basis_vector(j), x) for j in range(self.dim)]

    def ad_ints(self, xs, js=None) -> np.ndarray:
        """Rows js (default all) of `ad_rows(x)` for each integer row x of xs, exactly, as one
        (len(xs), len(js), dim) int64 array: one gather of xs along those rows of the index
        array and one scatter-add.  An entry sums at most fan_in terms c x_i, so it needs
        max|x| * max|c| * fan_in < 2**63, or ArithmeticError."""
        xs = int64_array(xs, self._headroom)[0]
        i, k, c = (self._ad if js is None else self._ad[js]).transpose(1, 0, 2)
        n, m = self.dim, len(i)
        out, v = np.zeros(len(xs) * m * n, dtype=np.int64), xs[:, i]
        v *= c
        np.add.at(out, k + n * np.arange(len(xs) * m).reshape(-1, m, 1), v)
        return out.reshape(-1, m, n)

    def centralizer_dim(self, x: AlgebraElement) -> int:
        """Complex dimension of ker ad(x), exactly (rank(ad) = rank(ad^T))."""
        return self.dim - rank_int_rows(self.ad_rows(x.num), self.dim)

    # -- Killing form ------------------------------------------------------------

    def killing(self, x, y) -> int:
        """K(x, y) = tr(ad x ad y) for integer coordinate vectors x and y.

        K(x, y) = x_h^T G y_h + sum_{beta > 0} (x_beta y_-beta + x_-beta y_beta) K_beta,
        with K_beta = c_beta^T G c_beta / 2 (`_killing`), c_beta the coroot of beta.  Proof:
        - ad h kills the Cartan and scales e_gamma by gamma(h), so K(h_i, h_j) = G[i][j];
        - h_beta = [e_beta, e_-beta] = sum_i c_beta,i h_i, and by invariance
          K(h_beta, h_beta) = K(e_beta, [e_-beta, h_beta]) = 2 K(e_beta, e_-beta);
        - K pairs no other two basis vectors: ad b ad b' shifts weights by
          wt(b) + wt(b'), so its trace is 0 unless that sum is 0.
        """
        r, npos, g = self.rank, self.rs.num_positive, self._gram
        total = sum(x[i] * g[i][j] * y[j] for i in range(r) if x[i] for j in range(r))
        for k, kb in enumerate(self._killing):
            total += (x[r + k] * y[r + npos + k] + x[r + npos + k] * y[r + k]) * kb
        return total

    # -- verification ---------------------------------------------------------------

    def verify_jacobi(self):
        """Prove the Jacobi identity J(x, y, z) = 0 on the index array; raise ArithmeticError.

        Two array checks over the live terms (j, i, k, c) of `_ad`, none looping per triple:
        - antisymmetry: sorted by (j n + i) n + k and by (i n + j) n + k, the terms
          carry the same keys and opposite c, so [b_j, b_i] = -[b_i, b_j] and J alternates;
        - for each generator g = e_{+-alpha_i}, D = ad g, read off row g, is a derivation:
          J(g, b_y, b_z) = D[b_y, b_z] - [D b_y, b_z] + [D b_z, b_y] = 0 for every y, z
          (the last term is -[b_y, D b_z], by antisymmetry).  The three sets of terms are
          keyed (y n + z) n + k, sorted, each run summed by `np.add.reduceat`, and every
          sum must be 0.
        That proves J = 0 on the whole algebra:
        - J(x, ., .) = 0 says ad x is a derivation, so ad[x, y] = [ad x, ad y];
          the x whose ad x is a derivation thus form a subalgebra;
        - the e_{+-alpha_i} generate the algebra: h_i = [e_i, f_i], and each
          N_{alpha,beta} with alpha + beta a root is +-(p + 1) != 0, which
          `_build_constants` checks on positive pairs (N_{-a,-b} = -N_{a,b}).
        int64 headroom: keys stay below n^3 (248^3 for E8), and each summand is a product
        of two table coefficients, |c| <= 6 in a Chevalley basis, so below 36 in size;
        no key or run sum comes near 2**63.
        """
        n, ad = self.dim, self._ad
        live = ad[:, 2] != 0
        j = np.nonzero(live)[0]  # the terms [b_j, b_i] = c b_k
        i, k, c = ad[:, 0][live], ad[:, 1][live], ad[:, 2][live]
        fwd, rev = (j * n + i) * n + k, (i * n + j) * n + k
        o1, o2 = np.argsort(fwd, kind="stable"), np.argsort(rev, kind="stable")
        bad = np.flatnonzero((fwd[o1] != rev[o2]) | (c[o1] != -c[o2]))
        if bad.size:
            t = o1[bad[0]]
            raise ArithmeticError(f"Jacobi: table not antisymmetric at {(int(j[t]), int(i[t]))}")
        del j, i, rev, o1, o2  # freed before the per-generator arrays, to keep the peak low
        for g in (self.root_vector_index(r) for r in self.rs.all_roots if abs(sum(r)) == 1):
            src, dst, dc = ad[g][:, live[g]]  # D b_src has coefficient dc on b_dst
            by = np.argsort(src, kind="stable")
            src, dst, dc = src[by], dst[by], dc[by]
            slot = np.arange(len(src)) - np.searchsorted(src, src)
            to, coef = np.zeros((2, n, slot.max() + 1), dtype=np.int64)
            to[src, slot], coef[src, slot] = dst, dc  # D b_s = sum_t coef[s, t] b_to[s, t]
            ri, rk, rc = ad[dst].transpose(1, 0, 2)  # [D b_src, b_ri] = dc rc b_rk
            keys = np.concatenate([
                (fwd - k)[:, None] + to[k],                       # D[b_j, b_i]
                (src[:, None] * n + ri) * n + rk,                 # -[D b_src, b_ri]
                (ri * n + src[:, None]) * n + rk,                 # +[D b_src, b_ri] at (ri, src)
            ], axis=None)
            vals = np.concatenate([c[:, None] * coef[k], -dc[:, None] * rc, dc[:, None] * rc], axis=None)
            order = np.argsort(keys, kind="stable")
            keys = keys[order]
            vals = vals[order]
            runs = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
            bad = np.flatnonzero(np.add.reduceat(vals, runs))
            if bad.size:
                y, z = divmod(int(keys[runs[bad[0]]]) // n, n)
                raise ArithmeticError(f"Jacobi fails on basis triple {(g, y, z)}")
        return True

    def __repr__(self):
        return f"ChevalleyAlgebra({self.rs.cartan_type}, dim={self.dim})"


_ALG_CACHE: dict[str, ChevalleyAlgebra] = {}


def build_algebra(rs: RootSystem | CartanType | str) -> ChevalleyAlgebra:
    """Construct (and cache) the Chevalley algebra of a root system or Cartan type."""
    if not isinstance(rs, RootSystem):
        rs = build_root_system(rs)
    key = str(rs.cartan_type)
    if key not in _ALG_CACHE:
        _ALG_CACHE[key] = ChevalleyAlgebra(rs)
    return _ALG_CACHE[key]
