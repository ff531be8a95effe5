"""Integer Smith normal form with row-transform tracking.

Used to re-present a quotient of a finite abelian group in invariant-factor
coordinates.  Only the row transform U (and its inverse) is needed by callers:
if U * M * V = D for the relation matrix M of a quotient Z^k / L, then
y = U x are the new coordinates and the diagonal of D gives their orders.

Pivoting always picks the smallest nonzero absolute value, first occurrence,
so the reduction (and hence the chosen basis) is deterministic.
"""

from __future__ import annotations


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

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]
        for r in uinv:
            r[i], r[j] = r[j], r[i]

    def row_addmul(dst, src, c):
        # row[dst] += c * row[src]; inverse op applied to uinv columns.
        for t in range(cols):
            a[dst][t] += c * a[src][t]
        for t in range(rows):
            u[dst][t] += c * u[src][t]
        for r in uinv:
            r[src] -= c * r[dst]

    def row_negate(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]
        for r in uinv:
            r[i] = -r[i]

    def col_swap(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]

    def col_addmul(dst, src, c):
        for r in a:
            r[dst] += c * r[src]

    def col_negate(i):
        for r in a:
            r[i] = -r[i]

    n = min(rows, cols)
    for t in range(n):
        while True:
            # Smallest |entry| in the trailing block, first occurrence.
            piv = None
            best = None
            for i in range(t, rows):
                for j in range(t, cols):
                    v = abs(a[i][j])
                    if v != 0 and (best is None or v < best):
                        best, piv = v, (i, j)
            if piv is None:
                break
            pi, pj = piv
            if pi != t:
                row_swap(t, pi)
            if pj != t:
                col_swap(t, pj)
            if a[t][t] < 0:
                row_negate(t)
            dirty = False
            for i in range(t + 1, rows):
                q = a[i][t] // a[t][t]
                if q:
                    row_addmul(i, t, -q)
                if a[i][t]:
                    dirty = True
            for j in range(t + 1, cols):
                q = a[t][j] // a[t][t]
                if q:
                    col_addmul(j, t, -q)
                if a[t][j]:
                    dirty = True
            if not dirty:
                break
        # Enforce the divisibility chain: fold any offending later entry in.
        if t + 1 <= n - 1 and a[t][t] != 0:
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if a[i][j] % a[t][t] != 0:
                        col_addmul(t, j, 1)
                        # Restart elimination at this pivot position.
                        break
                else:
                    continue
                break
    # A single fold may reintroduce off-diagonal entries; iterate to fixpoint.
    if not _is_snf(a, rows, cols):
        d2, u2, u2inv = smith_normal_form(a)
        u = mat_mul(u2, u)
        uinv = mat_mul(uinv, u2inv)
        a = d2
    return a, u, uinv


def _is_snf(a, rows, cols) -> bool:
    for i in range(rows):
        for j in range(cols):
            if i != j and a[i][j] != 0:
                return False
    diag = [a[i][i] for i in range(min(rows, cols))]
    if any(d < 0 for d in diag):
        return False
    for x, y in zip(diag, diag[1:]):
        if x == 0 and y != 0:
            return False
        if x != 0 and y % x != 0:
            return False
    return True


def mat_mul(a, b) -> list[list[int]]:
    """Exact integer product of two matrices given as sequences of rows."""
    n, m, c = len(a), len(b[0]), len(b)
    return [[sum(a[i][l] * b[l][j] for l in range(c)) for j in range(m)] for i in range(n)]
