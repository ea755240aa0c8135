"""Linear algebra on integer rows: exact rank, kernel and solve.

A matrix is a list of integer rows and a column count; there is no floating
point and no rational matrix anywhere in the package.  One fraction-free
(Bareiss) elimination, `_bareiss_echelon`, backs every exact operation:

* `rank_int_rows` is the exact rank over Q.  Exact centralizer dimensions,
  the commutant fallback and branching use it.
* `kernel_basis_int` and `solve_linear` return integer vectors over one
  denominator, the last Bareiss pivot D (made positive).  By Cramer's rule
  D times a kernel vector that reads 1 on a free column is an integer
  vector, so back-substitution divides exactly; every division is checked.

The rank modulo the one prime P = 2**31 - 1, a certified lower bound on the
rank over Q, is `_modp.rank_mod_p`; one call ranks a whole stack of matrices.
"""

from __future__ import annotations


def _bareiss_echelon(rows: list[list], ncols: int):
    """In-place fraction-free row echelon of an integer matrix; returns pivot column list.

    After it, row i's pivot is the (i+1)-st leading minor on the pivot
    columns of the row-permuted matrix, so the last pivot is that whole minor.
    """
    n = len(rows)
    prev = 1
    pivots = []
    r = 0
    for col in range(ncols):
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
                for j in range(col + 1, ncols):
                    ri[j] = (pc * ri[j] - ric * prow[j]) // prev
                ri[col] = 0
            else:
                # standard one-step update degenerates to an exact rescale
                for j in range(col + 1, ncols):
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


def kernel_basis_int(rows: list[list[int]], ncols: int) -> tuple[list[tuple[int, ...]], int]:
    """Basis of the right kernel of an integer matrix, as (integer vectors, denominator).

    There is one vector per free column of the echelon form: it reads the
    denominator D > 0 on its own free column and 0 on the others, so the
    basis over Q is the vectors divided by D.  D is the absolute value of
    the last Bareiss pivot (1 when the matrix is zero).  The basis is empty
    iff the rank is `ncols`.
    """
    work = [list(row) for row in rows]
    pivots = _bareiss_echelon(work, ncols)
    den = abs(work[len(pivots) - 1][pivots[-1]]) if pivots else 1
    pivset = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivset:
            continue
        x = [0] * ncols
        x[f] = den
        for i in range(len(pivots) - 1, -1, -1):
            pc, row = pivots[i], work[i]
            s = sum(row[j] * x[j] for j in range(pc + 1, ncols) if x[j])
            q, rem = divmod(-s, row[pc])
            if rem:
                raise ArithmeticError("kernel back-substitution is not exact over the last pivot")
            x[pc] = q
        basis.append(tuple(x))
    return basis, den


def solve_linear(rows: list[list[int]], ncols: int, b) -> tuple[tuple[int, ...], int] | None:
    """The solution of rows . x = b as (num, den), x = num / den, or None if inconsistent.

    x is zero on the free columns.  It is the kernel vector of [rows | -b]
    that is nonzero in the last column; that column is free exactly when b
    lies in the column span, and the vector reads den there.
    """
    if len(b) != len(rows):
        raise ValueError("dimension mismatch: len(b) != rows")
    basis, den = kernel_basis_int([list(row) + [-be] for row, be in zip(rows, b)], ncols + 1)
    return next(((v[:-1], den) for v in basis if v[-1]), None)
