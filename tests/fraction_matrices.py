"""Exact Fraction matrix references for tests, independent of framecert.oracle."""

from fractions import Fraction


def mat_mul(a, b):
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b)] for row in a]


def mat_vec(a, v):
    return [sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in a]


def cofactor_det(m) -> Fraction:
    """Laplace expansion along the first row: the independent reference."""
    if not m:
        return Fraction(1)
    return sum(
        (
            (-1) ** j * m[0][j] * cofactor_det([row[:j] + row[j + 1:] for row in m[1:]])
            for j in range(len(m))
        ),
        Fraction(0),
    )


def is_positive_definite(m) -> bool:
    """For symmetric m, Sylvester's criterion: every leading principal minor is > 0."""
    return all(cofactor_det([row[:k] for row in m[:k]]) > 0 for k in range(1, len(m) + 1))


def ldlt_positive_definite(m) -> bool:
    """For symmetric m, by an LDL^T factorisation in Fractions without pivoting:
    m is positive definite iff every pivot D_k > 0.  Polynomial, so usable at
    d = 8 where the cofactor expansion of is_positive_definite is not."""
    n = len(m)
    L = [[Fraction(0)] * n for _ in range(n)]
    D = []
    for k in range(n):
        dk = Fraction(m[k][k]) - sum((L[k][j] ** 2 * D[j] for j in range(k)), Fraction(0))
        if dk <= 0:
            return False
        D.append(dk)
        for i in range(k + 1, n):
            L[i][k] = (m[i][k] - sum((L[i][j] * L[k][j] * D[j] for j in range(k)), Fraction(0))) / dk
    return True
