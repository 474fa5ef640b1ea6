"""Exact rational reference answers for the benchmark's checks.

Written from the definitions, independently of ``framecert`` (in
particular of ``framecert.oracle``), so the oracle is never checked
against itself.  Everything is ``Fraction`` arithmetic: Gauss-Jordan for
solves and inverses, an LDL^T test for positive definiteness, and closed
forms for the Riesz blocks and the benign gallery frame.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Sequence

Matrix = list[list[Fraction]]


# -- exact linear algebra ------------------------------------------------


def to_matrix(rows) -> Matrix:
    return [[Fraction(q) for q in row] for row in rows]


def transpose(m: Matrix) -> Matrix:
    return [list(col) for col in zip(*m)]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = transpose(b)
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in bt] for row in a]


def mat_vec(a: Matrix, v: Sequence[Fraction]) -> list[Fraction]:
    return [sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in a]


def inverse(m: Matrix) -> Matrix:
    """Gauss-Jordan inverse; raises ValueError on a singular matrix."""
    n = len(m)
    aug = [list(m[i]) + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            raise ValueError("singular matrix")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [q * inv for q in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def is_positive_definite(m: Matrix) -> bool:
    """LDL^T without pivoting: a symmetric matrix is PD iff every pivot d_k > 0."""
    n = len(m)
    L = [[Fraction(0)] * n for _ in range(n)]
    D = [Fraction(0)] * n
    for k in range(n):
        dk = m[k][k] - sum((L[k][j] * L[k][j] * D[j] for j in range(k)), Fraction(0))
        if dk <= 0:
            return False
        D[k] = dk
        for i in range(k + 1, n):
            L[i][k] = (m[i][k] - sum((L[i][j] * L[k][j] * D[j] for j in range(k)), Fraction(0))) / dk
    return True


def shifted(S: Matrix, lam: Fraction, sign: int) -> Matrix:
    """sign * (S - lam I)."""
    n = len(S)
    return [[sign * (S[i][j] - (lam if i == j else 0)) for j in range(n)] for i in range(n)]


def eigen_brackets(S: Matrix, steps: int) -> tuple[Fraction, Fraction]:
    """(lo, hi) with 0 < lo <= lambda_min and lambda_max <= hi, by bisection.

    Used by the generators to cap the condition number; ``steps`` trades
    tightness for set-up time.
    """
    top = sum((S[i][i] for i in range(len(S))), Fraction(0)) + 1
    lo, hi = Fraction(0), top
    for _ in range(steps):
        mid = (lo + hi) / 2
        if is_positive_definite(shifted(S, mid, 1)):
            lo = mid
        else:
            hi = mid
    a_lo = lo
    lo, hi = Fraction(0), top
    for _ in range(steps):
        mid = (lo + hi) / 2
        if is_positive_definite(shifted(S, mid, -1)):
            hi = mid
        else:
            lo = mid
    return a_lo, hi


def frame_operator(vectors: Sequence[Sequence[Fraction]], d: int) -> Matrix:
    """S = sum_k f_k f_k^T for vectors in Q^d."""
    S = [[Fraction(0)] * d for _ in range(d)]
    for v in vectors:
        for i in range(d):
            if v[i]:
                for j in range(d):
                    S[i][j] += v[i] * v[j]
    return S


def frobenius_sq(m: Matrix) -> Fraction:
    return sum((q * q for row in m for q in row), Fraction(0))


# -- reference frames ----------------------------------------------------


class FiniteRef:
    """Finite frame (f_k) spanning Q^d; everything by Gauss-Jordan."""

    def __init__(self, vectors):
        self.vectors = to_matrix(vectors)
        self.d = len(self.vectors[0])
        self.S = frame_operator(self.vectors, self.d)
        self._S_inv = None
        self._dual = None

    @property
    def S_inv(self) -> Matrix:
        if self._S_inv is None:
            self._S_inv = inverse(self.S)
        return self._S_inv

    def s_inv(self, f: dict[int, Fraction]) -> dict[int, Fraction]:
        dense = [f.get(i, Fraction(0)) for i in range(self.d)]
        return _sparse(mat_vec(self.S_inv, dense))

    def dual(self) -> Matrix:
        """Canonical dual g_k = S^-1 f_k as rows."""
        if self._dual is None:
            self._dual = [mat_vec(self.S_inv, v) for v in self.vectors]
        return self._dual

    def projection(self) -> Matrix:
        """M[n][k] = <f_n, S^-1 f_k>, the projection onto the analysis range."""
        g = self.dual()
        return [[sum((a * b for a, b in zip(fn, gk)), Fraction(0)) for gk in g] for fn in self.vectors]

    def dist_sq(self, v: dict[int, Fraction], f: dict[int, Fraction]) -> Fraction:
        """||v - S^-1 f||^2."""
        return _dist_sq(v, self.s_inv(f))


class RieszRef:
    """Riesz basis T e_n with T = M on the first d coordinates, identity beyond.

    S = T T*, so S^-1 = (M^-T M^-1) (+) I; the frame coefficients of f are
    T^-1 f and the canonical dual element g_k is row k of M^-1.
    """

    def __init__(self, M, M_inv):
        self.M = to_matrix(M)
        self.M_inv = to_matrix(M_inv)
        self.d = len(self.M)
        if mat_mul(self.M, self.M_inv) != [[Fraction(int(i == j)) for j in range(self.d)] for i in range(self.d)]:
            raise ValueError("M_inv is not the inverse of M")
        self.S_inv_block = mat_mul(transpose(self.M_inv), self.M_inv)

    def kappa(self) -> Fraction:
        """B/A with the Frobenius bounds a Riesz spec certifies."""
        return max(frobenius_sq(self.M), 1) * max(frobenius_sq(self.M_inv), 1)

    def s_inv(self, f: dict[int, Fraction]) -> dict[int, Fraction]:
        d = self.d
        head = mat_vec(self.S_inv_block, [f.get(i, Fraction(0)) for i in range(d)])
        out = _sparse(head)
        out.update({i: q for i, q in f.items() if i >= d and q})
        return out

    def dual_coord(self, k: int, i: int) -> Fraction:
        if k < self.d and i < self.d:
            return self.M_inv[k][i]
        return Fraction(int(k == i and k >= self.d))

    def coefficient_geometric(self, c: Fraction, k: int) -> Fraction:
        """(T^-1 x)_k for x_i = c 4^-i."""
        if k >= self.d:
            return c / Fraction(4) ** k
        x = [c / Fraction(4) ** i for i in range(self.d)]
        return mat_vec(self.M_inv, x)[k]

    def dist_sq(self, v: dict[int, Fraction], f: dict[int, Fraction]) -> Fraction:
        return _dist_sq(v, self.s_inv(f))


class BenignRef:
    """The ex3.7 frame for a_i = 2^-i: f_0 = e_0, f_i = a_i e_0 + e_i.

    With U = I + e_0 a'^T (a' = (0, a_1, a_2, ...), ||a'||^2 = 1/3) the frame
    operator S = U U^T is a rank-two update of I, and U^-1 = I - e_0 a'^T.
    So S^-1 f = h - a' h_0 with h = U^-1 f, and the coefficients are U^-1 f.
    """

    @staticmethod
    def a(i: int) -> Fraction:
        return Fraction(1, 1 << i) if i >= 1 else Fraction(0)

    def h0(self, f: dict[int, Fraction]) -> Fraction:
        return f.get(0, Fraction(0)) - sum((self.a(i) * q for i, q in f.items()), Fraction(0))

    def s_inv_coord(self, f: dict[int, Fraction], i: int) -> Fraction:
        h0 = self.h0(f)
        if i == 0:
            return h0
        return f.get(i, Fraction(0)) - self.a(i) * h0

    def coefficient_geometric(self, c: Fraction, k: int) -> Fraction:
        # sum_{i>=1} 2^-i c 4^-i = c/7
        return c * Fraction(6, 7) if k == 0 else c / Fraction(4) ** k

    def dist_sq(self, v: dict[int, Fraction], f: dict[int, Fraction]) -> Fraction:
        """||v - S^-1 f||^2 with the geometric tail -a_i h_0 summed in closed form."""
        h0 = self.h0(f)
        N = max([i + 1 for i in v] + [i + 1 for i in f] + [1])
        head = sum(((v.get(i, Fraction(0)) - self.s_inv_coord(f, i)) ** 2 for i in range(N)), Fraction(0))
        # sum_{i>=N} (a_i h_0)^2 = h_0^2 4^-N 4/3
        return head + h0 * h0 * Fraction(4, 3) / Fraction(4) ** N


class OperatorRef:
    """Frame of the columns of an r x n matrix; S = M M^T on Q^r."""

    def __init__(self, matrix):
        self.matrix = to_matrix(matrix)
        self.rows = len(self.matrix)
        self.S_inv = inverse(mat_mul(self.matrix, transpose(self.matrix)))

    def dual_coord(self, k: int, i: int) -> Fraction:
        ncols = len(self.matrix[0])
        if k >= ncols or i >= self.rows:
            return Fraction(0)
        col = [row[k] for row in self.matrix]
        return mat_vec(self.S_inv, col)[i]


def _sparse(dense: Sequence[Fraction]) -> dict[int, Fraction]:
    return {i: q for i, q in enumerate(dense) if q != 0}


def _dist_sq(v: dict[int, Fraction], x: dict[int, Fraction]) -> Fraction:
    keys = set(v) | set(x)
    return sum(((v.get(i, Fraction(0)) - x.get(i, Fraction(0))) ** 2 for i in keys), Fraction(0))


# -- parsing and checking CLI output --------------------------------------

_VALUE = re.compile(r"(-?\d+(?:\.\d+)?) ± 2\^-(\d+)")


class CheckError(AssertionError):
    """A printed or returned value is not what the exact reference allows."""


def parse_values(text: str) -> list[tuple[Fraction, int]]:
    """Every "decimal ± 2^-p" in text, as (exact decimal, p)."""
    return [(Fraction(m.group(1)), int(m.group(2))) for m in _VALUE.finditer(text)]


def check_close(got: Fraction, want: Fraction, p: int, what: str) -> None:
    if abs(got - want) > Fraction(1, 1 << p):
        raise CheckError(f"{what}: {got} is not within 2^-{p} of {want}")


def _lines_after(out: str, header: str) -> list[str]:
    lines = out.splitlines()
    if header not in lines:
        raise CheckError(f"missing {header!r} in output")
    return lines[lines.index(header) + 1:]


def check_bounds(out: str, ref: FiniteRef) -> None:
    """A- < lambda_min <= A+ and B- <= lambda_max < B+, width <= 2^-20, by LDL^T."""
    m = re.search(r"A in \[(\S+), (\S+)\].*\nB in \[(\S+), (\S+)\]", out)
    if not m:
        raise CheckError("bounds output not recognised")
    am, ap, bm, bp = (Fraction(g) for g in m.groups())
    width = Fraction(1, 1 << 20)
    if ap - am > width or bp - bm > width:
        raise CheckError("enclosure wider than 2^-20")
    S = ref.S
    if not is_positive_definite(shifted(S, am, 1)):
        raise CheckError(f"A- = {am} is not below lambda_min")
    if is_positive_definite(shifted(S, ap, 1)):
        raise CheckError(f"A+ = {ap} is below lambda_min")
    if not is_positive_definite(shifted(S, bp, -1)):
        raise CheckError(f"B+ = {bp} is not above lambda_max")
    if is_positive_definite(shifted(S, bm, -1)):
        raise CheckError(f"B- = {bm} is above lambda_max")


def check_dual(out: str, p: int, count: int, width: int, coord) -> None:
    """Lines g_k: (...) with coordinate i within 2^-p of coord(k, i)."""
    rows = [line for line in out.splitlines() if line.lstrip().startswith("g_")]
    if len(rows) != count:
        raise CheckError(f"expected {count} dual elements, got {len(rows)}")
    for k, line in enumerate(rows):
        vals = parse_values(line)
        if len(vals) != width:
            raise CheckError(f"g_{k}: expected {width} coordinates")
        for i, (got, prec) in enumerate(vals):
            if prec != p:
                raise CheckError(f"g_{k}: printed ± 2^-{prec}, asked for 2^-{p}")
            check_close(got, coord(k, i), p, f"g_{k}[{i}]")


def check_reconstruct(out: str, p: int, f: dict[int, Fraction]) -> None:
    """Coordinates within 2^-p of f; residual bound within 2^-(p-1) of ||f - f|| = 0."""
    body = _lines_after(out, "reconstruction:")
    vals = [parse_values(line) for line in body if line.startswith("  ")]
    count = (max(f) + 1 if f else 0) + 4
    if len(vals) != count:
        raise CheckError(f"expected {count} coordinates, got {len(vals)}")
    for i, v in enumerate(vals):
        if len(v) != 1 or v[0][1] != p:
            raise CheckError(f"coordinate {i}: bad value line")
        check_close(v[0][0], f.get(i, Fraction(0)), p, f"coordinate {i}")
    m = re.search(r"residual bound: (\S+) ", out)
    if not m:
        raise CheckError("missing residual bound")
    r = Fraction(m.group(1))
    if not 0 <= r <= Fraction(2, 1 << p):
        raise CheckError(f"residual bound {r} does not enclose 0 within 2^-{p - 1}")


_SUITE_LINE = re.compile(r"\[(pass|FAIL)\] (.*): residual bound (\S+)$")


def suite_lines(out: str) -> list[tuple[bool, str, Fraction]]:
    rows = []
    for line in out.splitlines():
        m = _SUITE_LINE.search(line)
        if m:
            rows.append((m.group(1) == "pass", m.group(2), Fraction(m.group(3))))
    return rows


def check_suite(out: str, suite: str, tol: Fraction, projection: Matrix | None = None) -> None:
    """Every line passes with 0 <= residual <= tol.

    With the exact projection matrix of a finite frame (gram suite), the
    "energy equals diagonal" residual must be exactly
    |sum_k M[n][k]^2 - M[n][n]|, which is 0 for a true projection.
    """
    rows = suite_lines(out)
    if not rows:
        raise CheckError("no suite lines")
    if f"suite {suite}: pass" not in out:
        raise CheckError(f"suite {suite} did not pass")
    for ok, label, r in rows:
        if not ok or not 0 <= r <= tol:
            raise CheckError(f"{label}: residual bound {r}")
        m = re.match(r"row (\d+) energy equals diagonal", label)
        if m and projection is not None:
            n = int(m.group(1))
            want = abs(sum((q * q for q in projection[n]), Fraction(0)) - projection[n][n])
            if r != want:
                raise CheckError(f"{label}: {r} != exact {want}")


def first_failure(out: str) -> str:
    """Label of the first FAIL line, for reporting a failed request's cause."""
    for ok, label, r in suite_lines(out):
        if not ok:
            return f"[FAIL] {label} (residual bound {float(r):.3g})"
    return "no FAIL line"
