"""Ranks of integer matrices modulo the one word-size prime P = 2**31 - 1.

`rank_mod_p` ranks a (B, n, m) stack of matrices (tall ones transposed, so
n <= m) in one numpy elimination over GF(P), one Python step per row index:
at step i each matrix pivots on the first nonzero entry of its row i, if
any, and clears that column below it.  Row i never changes afterwards, so
each pivot row is zero in the earlier pivot columns: the pivot rows are
independent, every other row ends at 0, and the rank is the number of
pivots, as any other elimination over GF(P) would give.  The caller bounds
B * n * m, and so the memory (`cohom.STACK_CELLS`).

Entries may be any int64: `rank_mod_p` reduces the stack into [0, P) in
place, the one reduction on the way to each rank.  The largest come from
`cohom.real_orbit_dim`, sums of two entries of ad(x) for x in [0, P), below
2 (P - 1) headroom < 2**63, as `ChevalleyAlgebra` checks when it is built.

Delayed reduction: the elimination runs on a zero-copy uint64 view of the
reduced stack.  Row i and the multipliers are reduced into [0, P) when step i
reads them, so each product is at most (P - 1)**2 = 2**62 - 2**33 + 4.  The
rows below are folded, x -> (x & P) + (x >> 31), equal mod P as 2**31 = 1 mod P,
only once every fourth update: a folded entry, like an unread input entry,
is at most (2**31 - 1) + (2**33 - 1) < 2**33 + 2**31, and that plus four
products is at most 2**64 - 3 * 2**33 + 2**31 + 14 < 2**64.  No uint64 value
wraps, and no float is used anywhere: every operand is uint64, array or
np.uint64 scalar, as int64 mixed with uint64 would promote to float64.

One `pow` per step (Montgomery's simultaneous inversion): with a_j the product
of the nonzero pivots before matrix j, `_negated_inverses` inverts the product of
all of them once and walks back from the last, v_j**-1 = a_j (a_j v_j)**-1 and
a_j**-1 = v_j (a_j v_j)**-1.  It is exact, as nonzero residues have a nonzero
product in the field GF(P); a matrix with no pivot at the step gets multiplier 0.

Reducing mod P never raises a rank: every r x r minor that vanishes over Q
vanishes mod P.  Each result is therefore a lower bound on the rank r over
Q; it is r itself unless P divides every r x r minor.
"""

from __future__ import annotations

import numpy as np

P = (1 << 31) - 1  # a Mersenne prime
_P, _31 = np.uint64(P), np.uint64(31)


def residues(rows: list[list[int]], ncols: int) -> np.ndarray:
    """Integer matrix reduced into [0, P), as an int64 array."""
    return np.array([[a % P for a in row] for row in rows], dtype=np.int64).reshape(
        len(rows), ncols
    )


def _negated_inverses(vs: list[int]) -> list[int]:
    """P - v**-1 mod P for each residue v of vs, 0 for v = 0, from one `pow`."""
    pre, acc = [], 1  # pre[j]: the product of the nonzero vs before j
    for v in vs:
        pre.append(acc)
        if v:
            acc = acc * v % P
    inv, out = pow(acc, -1, P), [0] * len(vs)  # at j: of the product of the nonzero vs[:j + 1]
    for j in reversed(range(len(vs))):
        if vs[j]:
            out[j], inv = P - inv * pre[j] % P, inv * vs[j] % P
    return out


def rank_mod_p(a: np.ndarray) -> list[int]:
    """Ranks over GF(P) of the matrices of a (B, n, m) int64 stack; may destroy `a`."""
    np.remainder(a, P, out=a)
    if a.shape[1] > a.shape[2]:
        a = a.transpose(0, 2, 1).copy()
    a = a.view(np.uint64)
    b, n, buf = np.arange(len(a)), a.shape[1], np.empty_like(a)
    ranks, updates = [0] * len(a), 0
    for i in range(n):
        row = a[:, i]
        row %= _P
        j = (row != 0).argmax(1)
        piv = row[b, j].tolist()
        ranks = [r + (v != 0) for r, v in zip(ranks, piv)]
        if i + 1 < n and any(piv):
            g = a[b, i + 1:, j] % _P
            g *= np.array(_negated_inverses(piv), dtype=np.uint64)[:, None]
            g %= _P  # -f: row k += g[k] row i clears column j below the pivot
            rest, tmp = a[:, i + 1:], buf[:, i + 1:]
            rest += np.multiply(g[..., None], row[:, None], out=tmp)
            updates += 1
            if updates % 4 == 0:  # fold
                np.right_shift(rest, _31, out=tmp)
                rest &= _P
                rest += tmp
    return ranks
