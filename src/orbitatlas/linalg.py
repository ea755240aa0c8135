"""Linear algebra over Q: exact rank, kernel and solve, plus a mod-p rank bound.

There is no floating point anywhere in the package.  The two rank functions
differ in what their number certifies:

* `rank_int_rows` is the exact rank over Q, by fraction-free (Bareiss)
  elimination over the integers, which kernel and solve share.  Exact
  centralizer dimensions, the commutant fallback and branching use it.
* `rank_lower_bound` is the rank modulo the one prime P = 2**31 - 1 (see
  `_modp`).  Reducing mod P never raises a rank, so it is a certified lower
  bound on the rank over Q.  The orbit samplers use it, and so do the checks
  where a rank only has to reach a bound proven otherwise: the commutant
  reading 1 and the acceptance of a nilpotent representative.
"""

from __future__ import annotations

from fractions import Fraction as Q
from math import lcm

from ._modp import rank_mod_p, residues


class RationalMatrix:
    """Immutable dense matrix with exact rational entries."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries):
        rows = tuple(tuple(Q(a) for a in row) for row in entries)
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged matrix")
        object.__setattr__(self, "entries", rows)
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", len(rows[0]) if rows else 0)

    def __setattr__(self, *a):
        raise AttributeError("RationalMatrix is immutable")

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __eq__(self, other):
        return isinstance(other, RationalMatrix) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"RationalMatrix({self.rows}x{self.cols})"


def _int_rows(m: RationalMatrix) -> list[list[int]]:
    """Clear denominators row by row (rank and right kernel are unchanged)."""
    out = []
    for row in m.entries:
        d = lcm(*(a.denominator for a in row)) if row else 1
        out.append([int(a * d) for a in row])
    return out


# ---------------------------------------------------------------------------
# fraction-free elimination

def _bareiss_echelon(rows: list[list], ncols: int | None = None):
    """In-place fraction-free row echelon of an integer matrix; returns pivot column list."""
    n = len(rows)
    m = ncols if ncols is not None else (len(rows[0]) if n else 0)
    prev = 1
    pivots = []
    r = 0
    for col in range(m):
        if r >= n:
            break
        piv = -1
        for i in range(r, n):
            if rows[i][col]:
                piv = i
                break
        if piv < 0:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
        prow = rows[r]
        pc = prow[col]
        for i in range(r + 1, n):
            ri = rows[i]
            ric = ri[col]
            if ric:
                for j in range(col + 1, m):
                    ri[j] = (pc * ri[j] - ric * prow[j]) // prev
                ri[col] = 0
            else:
                # standard one-step update degenerates to an exact rescale
                for j in range(col + 1, m):
                    ri[j] = (pc * ri[j]) // prev
        prev = pc
        pivots.append(col)
        r += 1
    return pivots


def rank_int_rows(rows: list[list[int]], ncols: int) -> int:
    """Exact rank over Q of an integer matrix (Bareiss; `rows` is not modified)."""
    if not rows or ncols == 0:
        return 0
    return len(_bareiss_echelon([list(row) for row in rows], ncols))


def rank_lower_bound(rows: list[list[int]], ncols: int) -> int:
    """Rank of an integer matrix mod 2**31 - 1: never above its rank over Q."""
    return rank_mod_p(residues(rows, ncols))


# ---------------------------------------------------------------------------
# public operations

def rank_rational(m: RationalMatrix) -> int:
    """Exact rank over Q."""
    return rank_int_rows(_int_rows(m), m.cols)


def kernel_basis_int(rows: list[list[int]], ncols: int) -> list[tuple[Q, ...]]:
    work = [list(row) for row in rows]
    pivots = _bareiss_echelon(work, ncols)
    rank = len(pivots)
    pivset = set(pivots)
    free = [j for j in range(ncols) if j not in pivset]
    basis = []
    for f in free:
        x = [Q(0)] * ncols
        x[f] = Q(1)
        for i in range(rank - 1, -1, -1):
            pc = pivots[i]
            s = sum((Q(work[i][j]) * x[j] for j in range(pc + 1, ncols) if x[j]), Q(0))
            x[pc] = -s / Q(work[i][pc])
        basis.append(tuple(x))
    return basis


def kernel_basis(m: RationalMatrix) -> list[tuple[Q, ...]]:
    """Basis of the right null space; empty iff rank == cols."""
    return kernel_basis_int(_int_rows(m), m.cols)


def solve_linear(m: RationalMatrix, b) -> tuple[Q, ...] | None:
    """The solution x of m x = b with x zero on the free columns, or None if inconsistent.

    It is the kernel vector of [m | -b] that reads 1 in the last column; that
    column is free exactly when b lies in the column span of m.
    """
    if len(b) != m.rows:
        raise ValueError("dimension mismatch: len(b) != rows")
    aug = RationalMatrix([list(row) + [-Q(be)] for row, be in zip(m.entries, b)])
    return next((v[:-1] for v in kernel_basis(aug) if v[-1] == 1), None)


def is_negative_definite(sym: list[list[int]]) -> bool:
    """Sign test on leading principal minors of an exact symmetric matrix."""
    n = len(sym)
    work = [list(row) for row in sym]
    prev = 1
    for k in range(n):
        pc = work[k][k]
        if pc == 0:
            return False
        # after k steps the pivot equals the (k+1)-st leading principal minor
        minor_sign = 1 if pc > 0 else -1
        if minor_sign != (1 if (k + 1) % 2 == 0 else -1):
            return False
        for i in range(k + 1, n):
            rik = work[i][k]
            for j in range(k + 1, n):
                work[i][j] = (pc * work[i][j] - rik * work[k][j]) // prev
            work[i][k] = 0
        prev = pc
    return True
