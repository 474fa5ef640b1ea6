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
