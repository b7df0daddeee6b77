"""Exact integer and rational matrix kernel.

Matrices are immutable tuples of row tuples; integer matrices hold ints,
rational ones hold Fractions. No floating point enters this module: every
value computed here can sit on a branch decision.

Program paths run on integers, with one elimination per job: spans,
kernels and ranks through the Hermite form `_hnf` (`hnf`, `hnf_rows`,
`right_kernel_int`, `saturate`, which needs a single HNF when the span is
already saturated); positive definite Grams, and with them covolumes and
`gram_det`, through the fraction-free `bareiss`; general determinants
through `rat_det`'s fraction-free elimination with row pivoting; inverses
through the fraction-free Gauss-Jordan `int_inverse`. A rational matrix is
scaled to integers once, with `scale_to_int`, where it enters: the search
kernels of `enumeration` take integer Grams only. Integer rows enter
through one check, `int_rows`.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import mul
from typing import Sequence

from .errors import DependentVectors, InternalInvariantViolation, ValidationError

IntRows = tuple[tuple[int, ...], ...]
RatRows = tuple[tuple[Fraction, ...], ...]


def rat_matrix(rows: Sequence[Sequence]) -> RatRows:
    """Validate and freeze a rational matrix; entries coerced to Fraction."""
    out = []
    width = None
    for i, row in enumerate(rows):
        r = []
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ValidationError(f"rows[{i}]", "ragged matrix")
        for j, x in enumerate(row):
            if isinstance(x, float):
                raise ValidationError(f"rows[{i}][{j}]", "float entry rejected, use Fraction")
            r.append(rational_from_str(x, f"rows[{i}][{j}]") if isinstance(x, str)
                     else Fraction(x))
        out.append(tuple(r))
    return tuple(out)


def clip(x, width: int = 40) -> str:
    """repr(x) cut to width characters, for echoing input in a message."""
    r = repr(x)
    return r if len(r) <= width else r[:width - 3] + "..."


def rational_from_str(s: str, field: str) -> Fraction:
    """'p/q' or a decimal; no exponents: Fraction("1e10000000") alone takes ~10 s.

    A run of more digits than `sys.get_int_max_str_digits()` (0: no limit)
    allows is refused with a message that names the limit.
    """
    if "e" in s.lower():
        raise ValidationError(field, f"exponent notation is not accepted, got {clip(s)}")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError):
        limit = sys.get_int_max_str_digits()
        if limit and any(len(r.replace("_", "")) > limit for r in re.findall(r"[\d_]+", s)):
            raise ValidationError(
                field, f"number over the {limit}-digit limit, got {clip(s)}") from None
        raise ValidationError(field, f"expected a rational like 'p/q', got {clip(s)}") from None


def exact_rational(x, field: str) -> Fraction:
    """x as a Fraction; only ints and Fractions are accepted.

    bool, float and str are rejected, so True, 1.9 or "x" never reach a
    computation as 1, a rounded float or an untyped error.
    """
    if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
        raise ValidationError(field, f"expected an int or Fraction, got {type(x).__name__}")
    return Fraction(x)


def exact_int(x, field: str) -> int:
    """x as an int; ints and integral Fractions are accepted (see exact_rational)."""
    q = exact_rational(x, field)
    if q.denominator != 1:
        raise ValidationError(field, f"expected an integer, got {q}")
    return q.numerator


def int_rows(rows, n: int) -> IntRows:
    """rows as a tuple of int tuples of length n, n a positive int.

    Entries must be exact integers (`exact_int`: ints and integral
    Fractions); anything else, a row of another length or rows that are
    not sequences raise ValidationError("rows", ...), and a bad n
    ValidationError("ambient", ...). Rows of ints alone cost one type scan.
    """
    if type(n) is not int or n < 1:
        raise ValidationError("ambient", f"must be a positive int, got {clip(n)}")
    try:
        out = tuple(map(tuple, rows))
    except TypeError:
        raise ValidationError("rows", "must be a sequence of integer rows") from None
    if any(len(r) != n for r in out):
        raise ValidationError("rows", f"row length must equal the dimension {n}")
    if any(type(x) is not int for r in out for x in r):
        out = tuple(tuple(exact_int(x, "rows") for x in r) for r in out)
    return out


@lru_cache(maxsize=None)
def identity(n: int) -> IntRows:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(m):
    return tuple(zip(*m)) if m else ()


def mat_mul(a, b):
    """Matrix product; works for int and Fraction entries alike."""
    bt = transpose(b)
    return tuple(tuple(sum(map(mul, row, col)) for col in bt) for row in a)


def mat_vec(m, v):
    return tuple(sum(map(mul, row, v)) for row in m)


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with a*x + b*y = g = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def hnf(m: Sequence[Sequence[int]]) -> tuple[IntRows, IntRows]:
    """Row-style Hermite normal form with transform.

    Returns (h, u) with h = u·m, u unimodular. Pivots positive, entries above
    a pivot reduced into [0, pivot), zero rows trail. u is the trailing block
    of the HNF of [m | I] eliminated on m's columns alone.
    """
    ncols = len(m[0]) if m else 0
    work = _hnf([list(r) + list(e) for r, e in zip(m, identity(len(m)))], ncols)
    return tuple(r[:ncols] for r in work), tuple(r[ncols:] for r in work)


def hnf_rows(m: Sequence[Sequence[int]]) -> IntRows:
    """The form h of `hnf` alone, for callers that never read the transform."""
    return tuple(_hnf([list(r) for r in m], len(m[0]) if m else 0))


def _hnf(work: list[list[int]], ncols: int) -> list[tuple[int, ...]]:
    """Hermite form of the rows of work on their first ncols columns; any
    later columns follow the same row operations."""
    nrows = len(work)
    row = 0
    for col in range(ncols):
        piv = None
        for i in range(row, nrows):
            if work[i][col]:
                piv = i
                break
        if piv is None:
            continue
        if piv != row:
            work[row], work[piv] = work[piv], work[row]
        for i in range(row + 1, nrows):
            if not work[i][col]:
                continue
            g, x, y = xgcd(work[row][col], work[i][col])
            a, b = work[row][col] // g, work[i][col] // g
            # [[x, y], [-b, a]] has determinant xa + yb = 1: unimodular
            work[row], work[i] = (
                [x * p + y * q for p, q in zip(work[row], work[i])],
                [-b * p + a * q for p, q in zip(work[row], work[i])],
            )
        if work[row][col] < 0:
            work[row] = [-x for x in work[row]]
        p = work[row][col]
        for i in range(row):
            q = work[i][col] // p
            if q:
                work[i] = [x - q * y for x, y in zip(work[i], work[row])]
        row += 1
        if row == nrows:
            break
    return [tuple(r) for r in work]


def hnf_rank(h: IntRows) -> int:
    """Number of nonzero rows of a matrix already in HNF."""
    return sum(1 for r in h if any(r))


def right_kernel_int(m: Sequence[Sequence[int]]) -> IntRows:
    """Basis of {x in Z^cols : m·x = 0}, rows are the kernel vectors.

    The result is saturated automatically and returned in HNF.
    """
    mt = transpose(m)
    if not mt:
        return ()
    h, u = hnf(mt)
    rank = hnf_rank(h)
    ker = u[rank:]
    if not ker:
        return ()
    hk = hnf_rows(ker)
    return hk[:hnf_rank(hk)]


def saturate(m: Sequence[Sequence[int]]) -> IntRows:
    """HNF basis of (Q-span of the rows of m) ∩ Z^cols.

    Each row is first divided by its content, which keeps the span. When
    every pivot of the rows' HNF is then 1, that HNF is the answer: a
    maximal minor is then 1, so the rows already span the saturation, and
    the HNF of a lattice is unique. Otherwise it is the kernel of the
    kernel: the integer vectors orthogonal to everything orthogonal to the
    row span.
    """
    rows = [primitive_part(r) for r in m if any(r)]
    if not rows:
        return ()
    h = hnf_rows(rows)
    h = h[:hnf_rank(h)]
    if all(next(filter(None, r)) == 1 for r in h):
        return h
    ncols = len(rows[0])
    ker = right_kernel_int(rows)
    if not ker:
        return identity(ncols)
    return right_kernel_int(ker)


def scale_to_int(m: Sequence[Sequence]) -> tuple[IntRows, int]:
    """(d·m, d) for a rational or integer matrix, d the lcm of its denominators."""
    d = lcm(*(x.denominator for row in m for x in row))
    return tuple(tuple(x.numerator * (d // x.denominator) for x in row) for row in m), d


def bareiss(g, k: int) -> int:
    """k in-place fraction-free elimination steps on a positive definite
    integer matrix g; returns the last pivot (1 when k = 0).

    Every division is exact. After step p the trailing block is D_{p+1}
    times the Schur complement of the leading block, D_i being the leading
    i×i minor. Columns below the pivots are not touched again, so after
    n steps the diagonal holds D_1..D_n and g[i][j], j < i, holds
    λ_ij = D_{j+1}·μ_ij (Cohen, Alg. 2.6.7). A pivot ≤ 0 raises
    InternalInvariantViolation.
    """
    n = len(g)
    prev = 1
    for p in range(k):
        piv = g[p][p]
        if piv <= 0:
            raise InternalInvariantViolation("Gram matrix not positive definite")
        prow = g[p]
        for i in range(p + 1, n):
            row = g[i]
            gip = row[p]
            for j in range(p + 1, n):
                row[j] = (row[j] * piv - gip * prow[j]) // prev
        prev = piv
    return prev


def gram_det(vectors: Sequence[Sequence]) -> Fraction:
    """det of the Gram matrix ⟨v_i, v_j⟩ of rational vectors.

    Equals the squared norm of the wedge v₁∧…∧v_k. Raises DependentVectors
    when the vectors are linearly dependent (determinant 0): the Gram is
    then positive semidefinite and `bareiss` meets a zero pivot.
    """
    w, d = scale_to_int(vectors)
    try:
        det = bareiss([list(r) for r in mat_mul(w, transpose(w))], len(w))
    except InternalInvariantViolation:
        raise DependentVectors("gram determinant is zero") from None
    return Fraction(det, d ** (2 * len(w)))


def rat_det(m: Sequence[Sequence]) -> Fraction:
    """det m = det(d·m)/d^n for a square matrix m of ints and Fractions.

    Fraction-free elimination (Bareiss) with row pivoting on d·m: step k
    replaces each row i > k by (p_k·row_i - a_ik·row_k)/p_{k-1}, an exact
    division, and the last pivot is the determinant up to the sign of the
    swaps. A column without a pivot means det m = 0.
    """
    w, d = scale_to_int(m)
    n = len(w)
    a = [list(r) for r in w]
    sign = prev = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        krow = a[k]
        pk = krow[k]
        for i in range(k + 1, n):
            f = a[i][k]
            a[i] = [(pk * x - f * y) // prev for x, y in zip(a[i], krow)]
        prev = pk
    return Fraction(sign * prev, d ** n)


def int_inverse(m: Sequence[Sequence[int]]) -> tuple[IntRows, int]:
    """(adj m, det m) of a square integer matrix m, so m⁻¹ = adj/det;
    ValueError if singular.

    Fraction-free Gauss-Jordan (Bareiss) on [m | I]: step k replaces every
    row i ≠ k by (p_k·row_i - a_ik·row_k)/p_{k-1}, an exact division. The
    left block ends as p·I and the right block as p·m⁻¹, with p the last
    pivot, det m up to the sign of the row swaps (Bareiss, 1968).
    """
    n = len(m)
    a = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(m)]
    sign = prev = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            raise ValueError("singular matrix")
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        krow = a[k]
        pk = krow[k]
        for i in range(n):
            if i != k:
                f = a[i][k]
                a[i] = [(pk * x - f * y) // prev for x, y in zip(a[i], krow)]
        prev = pk
    return tuple(tuple(sign * x for x in row[n:]) for row in a), sign * prev


def primitive_part(vec: Sequence[int]) -> tuple[int, ...]:
    """Divide an integer vector by the gcd of its entries (0 vector unchanged)."""
    g = 0
    for x in vec:
        g = gcd(g, x)
    if g in (0, 1):
        return tuple(vec)
    return tuple(x // g for x in vec)
