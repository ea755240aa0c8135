"""Rank of an integer matrix modulo the one word-size prime P = 2**31 - 1.

`rank_mod_p` is a vectorized numpy elimination over GF(P).  Entries are kept
in [0, P), so every product of two residues is below 2**62 and int64
arithmetic never overflows.  Everything here is exact integer arithmetic: no
floats anywhere.

Reducing mod P never raises a rank: every r x r minor that vanishes over Q
vanishes mod P.  The result is therefore a lower bound on the rank r over Q;
it is r itself unless P divides every r x r minor.
"""

from __future__ import annotations

import numpy as np

P = (1 << 31) - 1  # a Mersenne prime


def residues(rows: list[list[int]], ncols: int) -> np.ndarray:
    """Integer matrix reduced into [0, P), as an int64 array."""
    return np.array([[a % P for a in row] for row in rows], dtype=np.int64).reshape(
        len(rows), ncols
    )


def rank_mod_p(a: np.ndarray) -> int:
    """Rank over GF(P) of an int64 array with entries in [0, P); destroys `a`."""
    n, m = a.shape
    rank = 0
    col = 0
    while col < m and rank < n:
        nz = np.nonzero(a[rank:, col])[0]
        if nz.size == 0:
            col += 1
            continue
        piv = rank + nz[0]
        if piv != rank:
            a[[rank, piv]] = a[[piv, rank]]
        inv = pow(int(a[rank, col]), -1, P)
        f = (a[rank + 1:, col] * inv) % P
        a[rank + 1:, col:] = (a[rank + 1:, col:] - f[:, None] * a[rank, col:]) % P
        rank += 1
        col += 1
    return rank
