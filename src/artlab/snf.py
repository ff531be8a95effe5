"""Integer Smith normal form with row-transform tracking.

Used to re-present a quotient of a finite abelian group in invariant-factor
coordinates, and to decide whether an endomorphism of one is invertible.
Only the row transform U (and its inverse) is needed by callers: if
U * M * V = D for the relation matrix M of a quotient Z^k / L, then y = U x
are the new coordinates and the diagonal of D gives their orders.

One pivot loop does the reduction.  At position t it moves the smallest
nonzero |entry| of the trailing block (first in row-major order, so the
chosen basis is deterministic) to (t, t) and clears its row and column.
If some trailing entry is not divisible by the pivot, that entry's column is
folded into column t and the loop re-eliminates at the same t.  An
elimination that does not clear the row and column, like the first one after
a fold, leaves a nonzero remainder below the pivot, so the pivot at t
shrinks strictly and the loop ends.
"""

from __future__ import annotations

from operator import mul


def _identity(k: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(k)] for i in range(k)]


def smith_normal_form(mat: list[list[int]]) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Return (D, U, Uinv) with U * mat * V = D for some unimodular V.

    D is rows x cols, diagonal with d1 | d2 | ... and nonnegative entries.
    U and Uinv are rows x rows unimodular with U * Uinv = I.  The column
    transform V is not tracked; no caller needs it.
    """
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    a = [list(r) for r in mat]
    u = _identity(rows)
    uinv = _identity(rows)

    def row_addmul(dst, src, c):
        # row[dst] += c * row[src]; inverse op applied to uinv columns.
        for t in range(cols):
            a[dst][t] += c * a[src][t]
        for t in range(rows):
            u[dst][t] += c * u[src][t]
        for r in uinv:
            r[src] -= c * r[dst]

    def col_addmul(dst, src, c):
        for r in a:
            r[dst] += c * r[src]

    t = 0
    while t < min(rows, cols):
        # Smallest |entry| in the trailing block, first occurrence.
        best, pi, pj = min(((abs(a[i][j]), i, j) for i in range(t, rows)
                            for j in range(t, cols) if a[i][j]), default=(0, t, t))
        if not best:
            break  # the trailing block is zero
        a[t], a[pi] = a[pi], a[t]
        u[t], u[pi] = u[pi], u[t]
        for r in uinv:
            r[t], r[pi] = r[pi], r[t]
        for r in a:
            r[t], r[pj] = r[pj], r[t]
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
            for r in uinv:
                r[t] = -r[t]
        p = a[t][t]
        for i in range(t + 1, rows):
            if a[i][t] // p:
                row_addmul(i, t, -(a[i][t] // p))
        for j in range(t + 1, cols):
            if a[t][j] // p:
                col_addmul(j, t, -(a[t][j] // p))
        if any(a[i][t] for i in range(t + 1, rows)) or any(a[t][j] for j in range(t + 1, cols)):
            continue  # a remainder below p is left: pivot again at t
        # Divisibility chain: fold the first offending column into column t.
        fold = next((j for i in range(t + 1, rows) for j in range(t + 1, cols)
                     if a[i][j] % p), None)
        if fold is None:
            t += 1
        else:
            col_addmul(t, fold, 1)
    return a, u, uinv


def mat_mul(a, b) -> list[list[int]]:
    """Exact integer product of two matrices given as sequences of rows."""
    cols = tuple(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]
