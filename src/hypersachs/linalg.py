"""Exact integer linear algebra: determinants and characteristic polynomials.

Everything here works over plain Python integers; divisions are exact by
construction, and an inexact one raises NormalizationFailure.
"""

from __future__ import annotations

from .errors import NormalizationFailure


def bareiss_det(matrix: list[list[int]]) -> int:
    """Determinant of a square integer matrix, fraction-free (Bareiss).

    Intermediate values stay integral; row swaps flip the sign.
    """
    n = len(matrix)
    if n == 0:
        return 1
    m = [row[:] for row in matrix]
    sign = 1
    prev = 1
    for j in range(n - 1):
        if m[j][j] == 0:
            for i in range(j + 1, n):
                if m[i][j] != 0:
                    m[j], m[i] = m[i], m[j]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(j + 1, n):
            for l in range(j + 1, n):
                num = m[i][l] * m[j][j] - m[i][j] * m[j][l]
                q, r = divmod(num, prev)
                if r:
                    raise NormalizationFailure("Bareiss division must be exact")
                m[i][l] = q
            m[i][j] = 0
        prev = m[j][j]
    return sign * m[n - 1][n - 1]


def charpoly_int(matrix: list[list[int]]) -> tuple[int, ...]:
    """Characteristic polynomial det(xI - A) of an integer matrix.

    Returns coefficients (1, c_1, ..., c_n) so the polynomial is
    x^n + c_1 x^{n-1} + ... + c_n.  Uses the Faddeev-LeVerrier recurrence;
    the division by the step index is exact for integer matrices.
    """
    n = len(matrix)
    coeffs = [1]
    work = [row[:] for row in matrix]
    for step in range(1, n + 1):
        trace = sum(work[i][i] for i in range(n))
        q, r = divmod(-trace, step)
        if r:
            raise NormalizationFailure("Faddeev-LeVerrier division must be exact")
        coeffs.append(q)
        if step == n:
            break
        for i in range(n):  # work + q I
            work[i][i] += q
        work = [[sum(matrix[i][t] * work[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
    return tuple(coeffs)
