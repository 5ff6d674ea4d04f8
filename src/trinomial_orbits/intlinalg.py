"""Exact integer linear algebra: Smith normal form and kernel lattices.

Everything is plain Python ints (no overflow).  Matrices are lists of
row lists.  The Smith form drives four consumers:

* saturated kernel lattices (the torus of a trinomial hypersurface),
* the transporter's torus step, which solves prod_j mu_j^(A_ij) = r_i in
  the unit group K^* through U, D and V (orbits._solve_torus),
* the torus orbits of each stratum over F_p (coset representatives of
  the torus image in (Z/(p-1))^S, through U_inv from the same
  elimination, kept on the shape with the torus step's: torus_smith),
* saturation certificates (a primitive basis has all invariant factors 1).
"""

from __future__ import annotations


def identity(n: int):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(A, B):
    rows, inner, cols = len(A), len(B), len(B[0]) if B else 0
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        Ai = A[i]
        for k in range(inner):
            a = Ai[k]
            if a:
                Bk = B[k]
                row = out[i]
                for j in range(cols):
                    row[j] += a * Bk[j]
    return out


def mat_vec(A, v):
    return [sum(a * x for a, x in zip(row, v)) for row in A]


def _xgcd(a: int, b: int):
    """g, x, y with x*a + y*b = g = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        return -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def smith_normal_form(A):
    """U @ A @ V = D with U, V unimodular and D in Smith normal form.

    Returns (D, U, V, U_inv).  A is not modified.  Pivots are improved with
    extended-gcd 2x2 transforms, so each clearing round replaces the pivot
    by a divisor of itself and the rounds per stage are logarithmic (plain
    subtraction pivoting blows up coefficients badly on dense matrices).
    U_inv, the integer inverse of U, comes from the same elimination: each
    row step on U is mirrored as its inverse column step on U_inv.
    """
    D = [list(row) for row in A]
    m = len(D)
    n = len(D[0]) if m else 0
    U = identity(m)
    V = identity(n)
    Ui_t = identity(m)  # U_inv transposed, so its column steps are row steps

    def swap_rows(i, j):
        for M in (D, U, Ui_t):
            M[i], M[j] = M[j], M[i]

    def swap_cols(i, j):
        for row in D:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def row_transform(i1, i2, a, b, c, d):
        # (row i1, row i2) <- (a*r1 + b*r2, c*r1 + d*r2); ad - bc = +-1
        for M in (D, U):
            r1, r2 = M[i1], M[i2]
            M[i1] = [a * x + b * y for x, y in zip(r1, r2)]
            M[i2] = [c * x + d * y for x, y in zip(r1, r2)]
        # U_inv takes the inverse step on its columns: e * [[d, -b], [-c, a]],
        # the inverse of [[a, b], [c, d]] since e = ad - bc = +-1
        e = a * d - b * c
        r1, r2 = Ui_t[i1], Ui_t[i2]
        Ui_t[i1] = [e * (d * x - c * y) for x, y in zip(r1, r2)]
        Ui_t[i2] = [e * (a * y - b * x) for x, y in zip(r1, r2)]

    def col_transform(j1, j2, a, b, c, d):
        # (col j1, col j2) <- (a*c1 + b*c2, c*c1 + d*c2); ad - bc = +-1
        for M in (D, V):
            for row in M:
                x, y = row[j1], row[j2]
                row[j1] = a * x + b * y
                row[j2] = c * x + d * y

    def clear_entry_by_row(t, i):
        p, q = D[t][t], D[i][t]
        if q % p == 0:
            row_transform(t, i, 1, 0, -(q // p), 1)
        else:
            g, x, y = _xgcd(p, q)
            row_transform(t, i, x, y, -(q // g), p // g)

    def clear_entry_by_col(t, j):
        p, q = D[t][t], D[t][j]
        if q % p == 0:
            col_transform(t, j, 1, 0, -(q // p), 1)
        else:
            g, x, y = _xgcd(p, q)
            col_transform(t, j, x, y, -(q // g), p // g)

    t = 0
    while t < min(m, n):
        pivot = None
        for i in range(t, m):
            for j in range(t, n):
                if D[i][j] and (
                    pivot is None or abs(D[i][j]) < abs(D[pivot[0]][pivot[1]])
                ):
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        while True:
            # each round replaces the pivot by a proper divisor or finishes
            for i in range(t + 1, m):
                if D[i][t]:
                    clear_entry_by_row(t, i)
            for j in range(t + 1, n):
                if D[t][j]:
                    clear_entry_by_col(t, j)
            if any(D[i][t] for i in range(t + 1, m)):
                continue
            bad = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if D[i][j] % D[t][t]:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            row_transform(t, bad, 1, 1, 0, 1)  # pull the offending row in
        if D[t][t] < 0:
            D[t] = [-x for x in D[t]]
            U[t] = [-x for x in U[t]]
            Ui_t[t] = [-x for x in Ui_t[t]]
        t += 1
    return D, U, V, [list(col) for col in zip(*Ui_t)]


def kernel_basis(A):
    """Basis (list of vectors) of {x in Z^n : A x = 0}.

    The integer kernel of an integer matrix is automatically saturated:
    it equals its rational span intersected with Z^n.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    if n == 0:
        return []
    D, _, V, _ = smith_normal_form(A)
    rank = sum(1 for i in range(min(m, n)) if D[i][i])
    # columns of V beyond the rank span the kernel
    return [[V[i][j] for i in range(n)] for j in range(rank, n)]
