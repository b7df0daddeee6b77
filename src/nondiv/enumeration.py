"""Complete short-vector enumeration and stable-subspace search.

delta_m needs a provably exhaustive candidate family. Subspace candidates are
found by growing chains of M-stable saturated subspaces: at a chain node Z the
quotient lattice Λ/Λ_Z is enumerated up to a Minkowski bound for the remaining
dimension, each short vector (lifted, together with Z) is closed up under M by
`m_closure`'s integer worklist closure, and the chain continues from the
closure. Completeness per node: a target Y ⊋ Z with r missing
dimensions satisfies λ₁(Λ_Y/Λ_Z)² ≤ γ_r·(covol²(Y)/covol²(Z))^{1/r}, and the
primitive form of that shortest vector is one of the enumerated vectors, so
some enumerated vector leads into Y; induction on dim terminates the argument.
When r = 1 the target line Y is M-stable, and it is the closure of the
primitive quotient vector spanning Y/Z, whose norm is covol²(Y)/covol²(Z).
So wherever the node's enumeration already reaches that line bound, the
lines come from it. Only where the line bound is the largest one pending
are they searched apart, inside the common rational eigenspaces of the
generators on the quotient, which keeps heavily squashed instances cheap.

The argument uses only covol²(Y) of the target, so each target dimension k
has its own cap, and with it its own bound at every node. `delta_m`
searches dimension k under cap^k; `stable_subspaces_within` keeps one cap
for every dimension, because `protect` needs every stable superspace below
its cap, whatever its dimension. `_stable_search` runs all target
dimensions in one pass: a node's quotient is enumerated once, under the
largest bound its pending dimensions need, and each vector is handed only
to the dimensions whose own bound it meets. So every dimension sees
exactly the vectors its own search would, and the argument above holds
for each k as it stands. The line dimension joins that one enumeration
unless its bound is the largest of the node's and some generator is not
scalar.

Each quotient Λ/Λ_Z is built once per lattice and shared by `delta_m` and
every `protect` search on it, with its LLL reduction, its eigen-line spaces
and covol²(Z), which its Gram elimination yields. The search returns each
subspace with its covol²: a line's comes from the quotient Gram, so only
closures are measured.

One integer elimination serves a node: integral LLL keeps the minors D_i
and the λ_ij of the basis it reduces, and Fincke-Pohst reads them as they
are, so the reduced Gram is never formed nor eliminated again. The
enumerator takes that reduction whole, transform and state, and hands the
search primitive vectors only, in the quotient's own coordinates. A quotient
Gram is an integer matrix over `scale`, so every norm the node meets is an
integer there, and its bounds are the integer floors `_node_bound` computes.

Everything decision-bearing is exact; LLL here is only a preconditioner for
the enumeration and never changes what is found.

None of this runs when the generators span the whole block algebra
⊕ M_{d_β}(Q) (`Scenario.full_block_algebra`, true for SL4/SO(2,1)). Then
the stable subspaces are exactly the 2^b − 2 proper block sums and the
whole space, so every search measures the block sums it needs, one budget
unit each, and δ is their least covol^{1/dim} in closed form.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import exp, gcd, isqrt, lcm, log
from operator import mul

from . import ratlin as rl
from .errors import BudgetExceeded, InternalInvariantViolation, ValidationError
from .lattice import (RationalSubspace, Scenario, UnimodularLattice, _frame,
                      _block_sum, _m_closure, _quotient_memo,
                      check_dimensions, covolume_sq, full_subspace,
                      is_m_stable, m_closure)

F = Fraction

DEFAULT_VECTOR_BUDGET = 10 ** 6
ORACLE_MAX_DIM = 5


class _Budget:
    """Node counter, shared by the searches it is handed to (`protect`'s;
    `drive` and `pushout_step` give each search its own). The one place a
    vector budget is defaulted (None), made exact and checked (≥ 1)."""

    __slots__ = ("cap", "used")

    def __init__(self, cap=None):
        cap = DEFAULT_VECTOR_BUDGET if cap is None else rl.exact_int(cap, "vector_budget")
        if cap < 1:
            raise ValidationError("vector_budget", "must be >= 1")
        self.cap = cap
        self.used = 0

    def consume(self, n: int = 1):
        self.used += n
        if self.used > self.cap:
            raise BudgetExceeded(self.cap)


def _as_budget(budget) -> _Budget:
    """Share a `_Budget`, or build one from a cap (None: the default)."""
    return budget if isinstance(budget, _Budget) else _Budget(budget)


def _lll(a):
    """(u, state): u unimodular with u·a·uᵀ LLL-reduced, and state the
    elimination of the reduced Gram. The pair is the reduction
    `_enumerate_gram` takes: it reads state and maps what it yields through u.

    Integral LLL (Cohen, Alg. 2.6.7) on a positive definite, symmetric
    integer Gram a. With D_i (D_0 = 1) and λ_ij = D_{j+1}·μ_ij from
    `rl.bareiss`, every size-reduction step and every swap is an O(n) exact
    integer update. The decisions are those of the rational algorithm: row k
    is size-reduced against rows k-1, ..., 0 with μ rounded half up, then
    tested against the Lovász condition with δ = 3/4. The updates keep
    λ_ij (j < i) and D those of u·a·uᵀ, so state = (λ's strict lower
    triangle, (D_0, ..., D_n)) is the elimination of u·a·uᵀ without a
    product or a second one.
    """
    n = len(a)
    lam = [list(row) for row in a]
    rl.bareiss(lam, n)
    d = [1] + [lam[i][i] for i in range(n)]
    u = [list(r) for r in rl.identity(n)]
    k = 1
    while k < n:
        lk = lam[k]
        for j in range(k - 1, -1, -1):
            r = (2 * lk[j] + d[j + 1]) // (2 * d[j + 1])
            if r:
                u[k] = [x - r * y for x, y in zip(u[k], u[j])]
                lk[j] -= r * d[j + 1]
                lj = lam[j]
                for t in range(j):
                    lk[t] -= r * lj[t]
        lm = lk[k - 1]
        if 4 * (d[k + 1] * d[k - 1] + lm * lm) >= 3 * d[k] * d[k]:
            k += 1
            continue
        # swap rows k-1 and k: λ_{k,k-1} is kept, d[k] and the λ of the
        # later rows in columns k-1 and k change (Cohen's SWAPI)
        u[k], u[k - 1] = u[k - 1], u[k]
        for j in range(k - 1):
            lk[j], lam[k - 1][j] = lam[k - 1][j], lk[j]
        b = (d[k - 1] * d[k + 1] + lm * lm) // d[k]
        for i in range(k + 1, n):
            li = lam[i]
            t = li[k]
            li[k] = (d[k + 1] * li[k - 1] - lm * t) // d[k]
            li[k - 1] = (b * t + lm * li[k]) // d[k + 1]
        d[k] = b
        k = max(k - 1, 1)
    # the diagonal and upper triangle of lam were not updated by the swaps
    state = (tuple(tuple(row[:i]) for i, row in enumerate(lam)), tuple(d))
    return tuple(tuple(r) for r in u), state


def lll_reduce_gram(a):
    """Unimodular u with u·a·uᵀ LLL-reduced (δ = 3/4), in exact arithmetic.

    a must be a square, symmetric, positive definite matrix of ints and
    Fractions, given as rows; anything else raises ValidationError("gram",
    ...). A positive scalar changes no μ and no Lovász test, so `_lll` runs
    on a times the lcm of its denominators; see there for the algorithm.
    """
    if not isinstance(a, (list, tuple)) or not all(isinstance(r, (list, tuple)) for r in a):
        raise ValidationError("gram", "must be a list or tuple of rows")
    n = len(a)
    for i, row in enumerate(a):
        if len(row) != n:
            raise ValidationError("gram", f"must be square: row {i} has {len(row)} "
                                          f"entries, not {n}")
        for x in row:
            rl.exact_rational(x, "gram")
    for i in range(n):
        for j in range(i):
            if a[i][j] != a[j][i]:
                raise ValidationError("gram", f"must be symmetric: entry [{i}][{j}] "
                                              f"differs from [{j}][{i}]")
    try:
        return _lll(rl.scale_to_int(a)[0])[0]
    except InternalInvariantViolation:
        raise ValidationError("gram", "must be positive definite") from None


def _enumerate_gram(reduction, bound: int | Fraction, budget: _Budget, primitive: bool):
    """(x·g·xᵀ, x·u) for all x ≠ 0 with x·g·xᵀ ≤ bound, x of canonical sign
    (highest nonzero positive); primitive mode keeps the x with gcd 1 only.

    reduction = (u, state) pairs the rows u of a basis, in the search's own
    coordinates, with the elimination state = (λ, D) of the integer Gram g
    on that basis, as `_lll` returns them: D_l and λ_il (i > l) are those of
    `rl.bareiss` on g. u is unimodular (an LLL transform) or a saturated
    basis (an eigen-line space), so x·u is primitive exactly when x is, and
    reduced coordinates never leave this function.
    Fincke-Pohst on integers, depth first, t ascending at every level. With
    num = Σ_{i>l} λ_il·x_i, x_l = t adds (D_{l+1}·t + num)²/(D_l·D_{l+1})
    to x·g·xᵀ, so the range of t needs only isqrt(⌊rem·D_l·D_{l+1}⌋). The
    remaining bound rem is one int over Q = lcm(bound's denominator, every
    D_l·D_{l+1}), so a node does integer work only, and every t keeps rem ≥ 0.
    bound is an int or a Fraction, never floored, so the nodes visited are
    those of the rational bound. The norm is the exact int (Q·bound − rem)/Q.

    Every node and leaf is charged to budget; a leaf is mapped through u
    only after its charge. Of the pure-axis family (t,0,..,0) primitive mode
    visits t = 1 alone.
    """
    u, (lam, d) = reduction
    n = len(d) - 1
    if bound <= 0:
        return []
    cols = tuple(zip(*u))
    scale = [d[l] * d[l + 1] for l in range(n)]
    q = lcm(bound.denominator, *scale)
    # x_l = t takes (D_{l+1}·t + num)²·step[l] off rem·Q
    step = [q // m for m in scale]
    total = bound.numerator * (q // bound.denominator)
    out = []
    x = [0] * n

    def recurse(level: int, rem: int, outer_zero: bool):
        budget.consume()
        dl, c = d[level + 1], step[level]
        num = 0
        for i in range(level + 1, n):
            if x[i]:
                num += lam[i][level] * x[i]
        s = isqrt(rem // c)
        lo, hi = -((s + num) // dl), (s - num) // dl
        if outer_zero:
            lo = max(lo, 0)
            if primitive and level == 0:
                hi = min(hi, 1)
        for t in range(lo, hi + 1):
            if level == 0 and outer_zero and t == 0:
                continue
            x[level] = t
            y = dl * t + num
            rem2 = rem - y * y * c
            if level == 0:
                budget.consume()
                if not primitive or gcd(*x) == 1:
                    out.append(((total - rem2) // q,
                                tuple(sum(map(mul, x, col)) for col in cols)))
            else:
                recurse(level - 1, rem2, outer_zero and t == 0)
        x[level] = 0

    recurse(n - 1, total, True)
    del recurse  # the recursive closure is a reference cycle; free it now, not at a GC pass
    return out


def _canon_sign(v: tuple[int, ...]) -> tuple[int, ...]:
    """One representative of {v, -v}: highest-index nonzero entry positive."""
    for x in reversed(v):
        if x:
            return v if x > 0 else tuple(-y for y in v)
    return v


def short_vectors(lat: UnimodularLattice, bound_sq, budget=None) -> list[tuple[int, ...]]:
    """All nonzero lattice vectors with ‖v‖² ≤ bound_sq, one of ±v each.

    Returned as integer coordinate rows, sorted by squared length then
    lexicographically.
    """
    bound_sq = rl.exact_rational(bound_sq, "bound_sq")
    if bound_sq <= 0:
        raise ValidationError("bound_sq", "must be positive")
    bud = _as_budget(budget)
    a, den = lat.int_gram
    found = sorted((qv, _canon_sign(v))
                   for qv, v in _enumerate_gram(_lll(a), bound_sq * den, bud, primitive=False))
    return [v for _, v in found]


def _int_nthroot_floor(m: int, r: int) -> int:
    if m < 0:
        raise ValueError("negative")
    if r == 1 or m in (0, 1):
        return m
    if r == 2:
        return isqrt(m)
    # integer Newton from 2^⌈bits/r⌉ ≥ m^{1/r}, no floats: it decreases strictly
    # while t > m^{1/r} and, by AM–GM, never drops below the floor, so it stops there
    t = 1 << -(-m.bit_length() // r)
    while True:
        s = ((r - 1) * t + m // t ** (r - 1)) // r
        if s >= t:
            return t
        t = s


def _dyadic_root(num: int, den: int, r: int) -> tuple[int, int]:
    """(root, bits): root/2^bits is the least point ≥ (num/den)^{1/r} on
    `rat_root_upper`'s grid, for num/den > 0 in lowest terms and r ≥ 2."""
    bits = 8
    if num < den:
        # widen the grid so tiny roots keep ~2^-bits relative slack
        bits += (den.bit_length() - num.bit_length()) // r + 1
    m = -(-(num << (r * bits)) // den)  # ceil
    root = _int_nthroot_floor(m, r)
    if root ** r < m:
        root += 1
    return root, bits


def rat_root_upper(x: Fraction, r: int) -> Fraction:
    """A rational ≥ x^{1/r} on a dyadic grid (slack only loosens search bounds)."""
    x = F(x)
    if x <= 0:
        raise ValueError("positive input required")
    if r == 1:
        return x
    root, bits = _dyadic_root(x.numerator, x.denominator, r)
    return F(root, 1 << bits)


def _node_bound(cap: Fraction, covol_sq: Fraction, scale: int, r: int) -> int:
    """⌊(4/3)^⌊r/2⌋·scale·rat_root_upper(cap/covol_sq, r)⌋, in integers.

    (4/3)^⌊r/2⌋ bounds the Hermite constant γ_r, so this is a node's bound
    for r missing dimensions on its quotient's integer scale (for r = 1,
    the line bound scale·cap/covol_sq). Every norm there is an integer, so
    a norm meets the bound exactly when it meets its floor.
    """
    num = cap.numerator * covol_sq.denominator
    den = cap.denominator * covol_sq.numerator
    if r == 1:
        return scale * num // den
    g = gcd(num, den)
    root, bits = _dyadic_root(num // g, den // g, r)
    h = r // 2
    return 4 ** h * scale * root // (3 ** h << bits)


class _Quotient:
    """Λ/Λ_Z with an exact integer quotient Gram and integer lifts.

    The quotient Gram (the Schur complement S of the Z block in v·A·vᵀ, v a
    basis completion of Z) is gram/scale exactly: `gram` is the integer
    matrix D_k·den·S that `rl.bareiss(g, k)` leaves in the trailing block of
    the integer Gram g = den·v·A·vᵀ, and scale = den·D_k, with den the
    common denominator of A and D_k > 0 the leading k×k minor of g. Callers
    scale their bounds by `scale` instead of dividing the Gram. D_k is also
    den^k·covol²(Z), so covol_sq = D_k/den^k comes with the Gram.

    The completion (v, v⁻¹) depends on Z alone, so it is held in the frame
    of (lat, sc) and shared along the torus orbit; the Gram is per lattice,
    and `_quotient` memoizes the quotient on the lattice. A quotient keeps
    no reference to its lattice, so dropping the lattice frees its memo.

    Where v completes Z with unit rows e_j, j in free (the closed form of
    `complete_to_basis`, taken by every Z with unit pivots), a unit row only
    selects: v·A·vᵀ is Z·A·Zᵀ bordered by Z·A and A on the columns in free,
    so the Gram costs the k×N product Z·A. The frame holds free with the
    completion, as `complete_to_basis` returns it (None on its HNF path,
    where v·A·vᵀ is formed whole).
    """

    def __init__(self, lat: UnimodularLattice, sc: Scenario, z_rows):
        self.n = n = lat.n
        self.sc = sc
        self.frame = _frame(lat, sc)
        self.z_rows = z_rows
        self.k = k = len(z_rows)
        bases = self.frame.bases
        if z_rows not in bases:
            bases[z_rows] = complete_to_basis(z_rows, n)
        self.full_basis, self.full_basis_inv, free = bases[z_rows]
        v = self.full_basis
        self.lift_cols = rl.transpose(v[k:])
        a, den = lat.int_gram
        if free is None:
            g = [list(r) for r in rl.mat_mul(rl.mat_mul(v, a), rl.transpose(v))]
        else:
            # A is symmetric, so row i of Z·A is z_i against A's rows
            za = [[sum(map(mul, z, col)) for col in a] for z in z_rows]
            g = [[sum(map(mul, r, z)) for z in z_rows] + [r[j] for j in free] for r in za]
            g += [[r[j] for r in za] + [a[j][c] for c in free] for j in free]
        d_k = rl.bareiss(g, k)
        self.scale = den * d_k
        self.covol_sq = F(d_k, den ** k)
        self.gram = tuple(tuple(row[k:]) for row in g[k:])

    @property
    def rank(self) -> int:
        return self.n - self.k

    @cached_property
    def rep_matrices(self):
        """(m, d) per generator: its row action on quotient coordinates is m/d.

        m is the trailing block of v·ĝ_intᵀ·v⁻¹, all integer; the leading
        k rows must vanish off the Z block, since Z is M-stable.
        """
        reps = []
        v, vinv = self.full_basis, self.full_basis_inv
        k = self.k
        for ghat, d in self.frame.gens:
            m = rl.mat_mul(rl.mat_mul(v, rl.transpose(ghat)), vinv)
            for i in range(k):
                for j in range(k, len(v)):
                    if m[i][j] != 0:
                        raise InternalInvariantViolation(
                            "quotient base subspace is not stable")
            reps.append((tuple(tuple(row[k:]) for row in m[k:]), d))
        return tuple(reps)

    @cached_property
    def reduced(self):
        """(u, state) from `_lll` on `gram`; one reduction per quotient.

        u is the LLL transform, and state = (λ, D) the elimination of the
        reduced Gram u·gram·uᵀ (integer, over `scale`). `_enumerate_gram`
        takes the pair, so the reduced Gram itself is never formed.
        """
        return _lll(self.gram)

    @cached_property
    def eigen_lines(self):
        """(comp, state) per space in which `_stable_quotient_lines` searches.

        comp is an LLL-reduced basis of the space in quotient coordinates
        and state `_lll`'s elimination of its Gram on that basis, integer
        over `scale`; a line's one minor D_1 is its norm. The whole quotient
        (the one space of the trivial group, or of an action scalar on the
        quotient) is `reduced`. The spaces depend on Z and the action alone,
        so the frame holds them, and the eigenvalues, along the torus orbit.
        """
        frame = self.frame
        held = frame.eigenspaces
        if self.z_rows not in held:
            if frame.eigenvalues is None:
                frame.eigenvalues = tuple(_generator_eigenvalues(g, d) for g, d in frame.gens)
            held[self.z_rows] = common_eigenspace_bases(
                self.rep_matrices, frame.eigenvalues, self.rank)
        out = []
        for s_e in held[self.z_rows]:
            if len(s_e) == self.rank:
                out.append(self.reduced)
            else:
                u, state = _lll(rl.mat_mul(rl.mat_mul(s_e, self.gram), rl.transpose(s_e)))
                out.append((rl.mat_mul(u, s_e), state))
        return tuple(out)

    def lift(self, y) -> tuple[int, ...]:
        return tuple(sum(map(mul, y, col)) for col in self.lift_cols)


def _quotient(lat: UnimodularLattice, sc: Scenario, z_rows) -> _Quotient:
    """Λ/Λ_Z from lat's memo: every search on lat shares one quotient per Z."""
    memo = _quotient_memo(lat, sc)
    quot = memo.get(z_rows)
    if quot is None:
        quot = memo[z_rows] = _Quotient(lat, sc, z_rows)
    return quot


def complete_to_basis(sat_rows, n: int
                      ) -> tuple[rl.IntRows, rl.IntRows, tuple[int, ...] | None]:
    """(v, v⁻¹, free) for a unimodular n×n integer v whose first k rows are
    the saturated rows sat_rows; k = 0 gives (I, I, (0, ..., n − 1)).

    The rows are checked by `rl.int_rows` (ValidationError("rows", ...));
    zero, dependent or unsaturated rows raise InternalInvariantViolation.

    When the rows are the identity on their pivot (leading) columns P, as
    every saturated HNF with unit pivots is, v is the rows followed by the
    unit rows e_j for the j in free, the columns ∉ P in order. Up to the
    column order v is then [[I, F], [0, I]], F the rows on the columns off
    P, so v⁻¹ = [[I, −F], [0, I]] in the same order: no HNF. Other rows
    take the transform w of the HNF of sat_rowsᵀ, which is [I_k; 0] for
    saturated rows, so v = (w⁻¹)ᵀ, v⁻¹ = wᵀ and free is None.
    """
    rows = rl.int_rows(sat_rows, n)
    k = len(rows)
    piv = [next((j for j, x in enumerate(r) if x), None) for r in rows]
    if None not in piv and all(r[p] == (i == j) for i, r in enumerate(rows)
                               for j, p in enumerate(piv)):
        free = tuple(j for j in range(n) if j not in piv)
        inv = [[0] * n for _ in range(n)]
        for i, (r, p) in enumerate(zip(rows, piv)):
            inv[p][i] = 1
            for t, j in enumerate(free, k):
                inv[p][t] = -r[j]
        for t, j in enumerate(free, k):
            inv[j][t] = 1
        return rows + tuple(rl.identity(n)[j] for j in free), tuple(map(tuple, inv)), free
    hh, w = rl.hnf(rl.transpose(rows))
    # hh's k×k corner is triangular with positive pivots: |det| = 1 iff all are 1
    if k > n or any(hh[i][i] != 1 for i in range(k)):
        raise InternalInvariantViolation("rows are not a saturated basis")
    # so w·sat_rowsᵀ = [I_k; 0], sat_rows·wᵀ = [I_k | 0] and v[:k] = sat_rows;
    # w is unimodular, so w⁻¹ = adj(w)/det w = det w·adj(w)
    adj, det = rl.int_inverse(w)
    v = tuple(tuple(det * x for x in col) for col in zip(*adj))
    return v, rl.transpose(w), None


def char_poly(m) -> list[int]:
    """Integer coefficients [c_0, ..., c_{n-1}, 1] of det(xI - m) for a square
    integer m, by Faddeev–LeVerrier; its divisions by k are exact, and a
    remainder raises InternalInvariantViolation."""
    n = len(m)
    coeffs = [0] * n + [1]
    mk = rl.identity(n)
    for k in range(1, n + 1):
        mk = rl.mat_mul(m, mk)
        c, r = divmod(-sum(mk[i][i] for i in range(n)), k)
        if r:
            raise InternalInvariantViolation("characteristic polynomial is not integral")
        coeffs[n - k] = c
        mk = tuple(tuple(x + c if i == j else x for j, x in enumerate(row))
                   for i, row in enumerate(mk))
    return coeffs


def _shifted(p: list[int], u: int, v: int) -> list[int]:
    """Coefficients of v^n·p((u + t)/v) in t (Taylor shift): the signs of p(u/v + t)."""
    n = len(p) - 1
    c = [a * v ** (n - j) for j, a in enumerate(p)]
    for i in range(n):
        for j in range(n - 1, i - 1, -1):
            c[j] += u * c[j + 1]
    return c


def _roots_over(p: list[int], lo: int, hi: int) -> list[Fraction]:
    """Ascending roots y/a of the integer polynomial p with integer y in (lo, hi].

    a = |leading coefficient|, so every rational root of p is such a y/a.
    V(y) counts the sign changes of p's Taylor coefficients at y/a; by
    Budan–Fourier, V(l) − V(h) bounds the roots in (l/a, h/a] counted with
    multiplicity, and V only drops at roots of p and its derivatives. A range
    is bisected while its count is positive; on a unit step the one
    candidate, the right end, is tested exactly (Collins and Akritas, 1976).
    """
    a = abs(p[-1])

    def var(y: int) -> int:
        signs = [c > 0 for c in _shifted(p, y, a) if c]
        return sum(map(bool.__ne__, signs, signs[1:]))

    roots = []
    todo = [(lo, var(lo), hi, var(hi))]
    while todo:
        l, vl, h, vh = todo.pop()
        if vl == vh:
            continue
        if h - l == 1:
            if _shifted(p, h, a)[0] == 0:
                roots.append(F(h, a))
            continue
        m = (l + h) // 2
        vm = var(m)
        todo += [(m, vm, h, vh), (l, vl, m, vm)]
    return roots


def rational_roots(coeffs) -> list[Fraction]:
    """All rational roots of the polynomial with the given coefficients, ascending.

    coeffs run from the constant term up; the zero polynomial gives [0]. For
    the integer form p with leading coefficient a and M = max |pᵢ| below it,
    every root y/a has |y| < a + M (Cauchy), which `_roots_over` searches.
    """
    p = list(rl.scale_to_int([coeffs])[0][0])
    while p and p[-1] == 0:
        p.pop()
    if not p:
        return [F(0)]
    b = abs(p[-1]) + max(map(abs, p[:-1]), default=0)
    return _roots_over(p, -b, b - 1)


def _generator_eigenvalues(g: rl.IntRows, d: int) -> tuple[Fraction, ...]:
    """Sorted nonzero rational eigenvalues of a frame generator ĝ = g/d:
    the rational roots of g's characteristic polynomial over d > 0.

    Z is M-stable, so on a quotient Λ/Λ_Z every generator acts
    block-triangularly and the quotient's characteristic polynomial divides
    ĝ's. These are thus the candidate eigenvalues on every quotient, found
    once per frame by `rational_roots`' sign-change bisection, without
    factoring.
    """
    return tuple(F(r, d) for r in rational_roots(char_poly(g)) if r != 0)


def common_eigenspace_bases(reps, eigenvalues, dim: int):
    """Saturated HNF bases of the nonzero intersections ∩_g ker(ĝ - α_g·id)
    on Z^dim, over all rational choices α_g.

    reps holds (m, d) per generator, acting on rows as m/d; eigenvalues
    holds each generator's candidate roots, ascending. A candidate with an
    empty kernel is not an eigenvalue on this quotient and is skipped. For
    α = p/q and a space with saturated basis e, the rows y = c·e with
    y·(q·m - d·p·I) = 0 have c in the integer kernel of (e·(q·m - d·p·I))ᵀ;
    that kernel is saturated, so c·e is too, and its HNF is returned. Spaces
    are refined α by α, each α over every space in order.
    """
    spaces = [rl.identity(dim)]
    for (m, d), roots in zip(reps, eigenvalues):
        refined = []
        for alpha in roots:
            p, q = alpha.numerator, alpha.denominator
            shifted = [[q * x for x in row] for row in m]
            for i in range(dim):
                shifted[i][i] -= d * p
            for e in spaces:
                c = rl.right_kernel_int(rl.transpose(rl.mat_mul(e, shifted)))
                if c:
                    refined.append(rl.hnf_rows(rl.mat_mul(c, e)))
        spaces = refined
        if not spaces:
            break
    return spaces


def _stable_quotient_lines(quot: _Quotient, bound, budget: _Budget):
    """(y, y·gram·yᵀ) for the primitive quotient vectors y spanning M-stable
    lines with y·gram·yᵀ ≤ bound, on the quotient's integer scale. Each
    space's (comp, state) is the reduction `_enumerate_gram` maps through,
    so it yields such y in quotient coordinates; the spaces meet only in 0,
    so no line comes twice."""
    for reduction in quot.eigen_lines:
        comp, (_, d) = reduction
        if len(comp) == 1:
            if d[1] <= bound:
                yield comp[0], d[1]
            continue
        for norm, y in _enumerate_gram(reduction, bound, budget, primitive=True):
            yield y, norm


def stable_subspaces_within(lat: UnimodularLattice, sc: Scenario, cap_sq,
                            base: RationalSubspace | None = None,
                            budget=None) -> tuple[list[RationalSubspace], bool]:
    """All M-stable proper subspaces Y (⊋ base when given) with covol² ≤ cap_sq.

    Returns (sorted list, complete flag); complete is False when the budget
    ran out, in which case the list is whatever was found before that. A
    base of another dimension raises ValidationError("ambient", ...), and
    one that is not M-stable ValidationError("base", ...). When the
    generators span the block algebra (`Scenario.full_block_algebra`) the
    answer is the block sums ⊋ base under the cap, each charged one budget
    unit; otherwise the chain search runs (`_stable_search`).
    """
    cap_sq = rl.exact_rational(cap_sq, "cap_sq")
    if cap_sq <= 0:
        raise ValidationError("cap_sq", "must be positive")
    if base is not None:
        check_dimensions(lat, sc, base)
        if not is_m_stable(base, lat, sc):
            raise ValidationError("base", "must be M-stable")
    found, complete = _stable_search(lat, sc, (cap_sq,) * lat.n, base,
                                     _as_budget(budget))
    return [sub for sub, _ in found], complete


def _stable_search(lat: UnimodularLattice, sc: Scenario, caps,
                   base: RationalSubspace | None, bud: _Budget
                   ) -> tuple[list[tuple[RationalSubspace, Fraction]], bool]:
    """`stable_subspaces_within` with covol² ≤ caps[k] in each dimension k,
    as (subspace, covol²) pairs sorted by (dim, rows), and the complete flag.
    No base is the zero subspace.

    When `Scenario.full_block_algebra` holds, the M-stable subspaces are
    exactly the block sums V_T, so the answer is the block sums that
    strictly contain base and meet their cap (`_block_sum_search`): no
    enumeration, closure or quotient. The budget is charged one unit per
    block sum measured, before its kernel is built, so it bounds this path
    too. Otherwise `_chain_search` finds them. Either way every subspace
    returned is checked to be M-stable.
    """
    base = RationalSubspace._trusted(lat.n, ()) if base is None else base
    if sc.full_block_algebra:
        found, complete = _block_sum_search(lat, sc, caps, base, bud)
    else:
        found, complete = _chain_search(lat, sc, caps, base, bud)
    out = sorted(found, key=lambda p: (p[0].dim, p[0].rows))
    for s, _ in out:
        if not is_m_stable(s, lat, sc):
            raise InternalInvariantViolation("search produced an unstable subspace")
    return out, complete


def _block_sum_search(lat: UnimodularLattice, sc: Scenario, caps,
                      base: RationalSubspace, bud: _Budget):
    """The block sums V_T ⊋ base with covol² ≤ caps[dim V_T], each with its
    covol², and the complete flag.

    V_T contains base iff T holds every block that base's real span meets,
    so T runs over the supersets of those blocks' bit mask s, in increasing
    order. A V_T of larger dimension than base is charged its budget unit
    before its kernel is built (`_block_sum`), so the budget bounds the
    work however many blocks there are.
    """
    dims = sc.block_dims
    full = (1 << len(dims)) - 1
    coords = [rl.mat_vec(lat.int_basis[0], x) for x in base.rows]
    s = sum(1 << j for j, (lo, hi) in enumerate(sc.blocks)
            if any(c[i] for c in coords for i in range(lo, hi)))
    found = []
    t = s
    try:
        while t < full:
            if sum(d for j, d in enumerate(dims) if t >> j & 1) > base.dim:
                bud.consume()
                v = _block_sum(lat, sc, t)
                c = covolume_sq(lat, v)
                if c <= caps[v.dim]:
                    found.append((v, c))
            t = (t + 1) | s
    except BudgetExceeded:
        return found, False
    return found, True


def _chain_search(lat: UnimodularLattice, sc: Scenario, caps,
                  base: RationalSubspace, bud: _Budget):
    """`_stable_search` by chains of closures, for every action: the found
    (subspace, covol²) pairs, unsorted, and the complete flag.

    A node Z is visited once with every target dimension still pending
    there. Every k > dim Z + 1 has its own Minkowski bound
    γ_r·(caps[k]/covol²(Z))^{1/r}, r = k − dim Z, and k = dim Z + 1 the
    line bound caps[k]/covol²(Z). Each is held as the integer floor of its
    value on the quotient's scale (`_node_bound`), which an integer norm
    meets exactly when it meets the value. The quotient is enumerated once,
    from the state of its one LLL reduction, under the largest of these
    bounds, and each primitive vector serves just the k whose own bound it
    meets: its closure is emitted if its dimension is one of them, and
    searched further for those above it, one visit per closure. So for each
    k the visited nodes, the vectors that pass its bound and the closures
    are those of a search under caps[k] alone, and the completeness
    argument holds per k unchanged; only the repeated enumerations and
    closures are gone.

    When every generator is scalar (`Scenario.scalar_action`: the trivial
    group, or −I) every line is stable, so the line bound always joins the
    enumeration and every vector's closure is its own line: no `m_closure`
    and no eigen-line spaces. Otherwise the line bound joins it when
    another pending bound is at least as large, floors compared: a stable
    line Y ⊋ Z under its cap is spanned over Z by a primitive quotient
    vector of norm at most the line bound, whose closure is Y, whatever the
    action (a line is emitted with covol² from the Gram, below, not
    measured). A node whose line bound is strictly the largest reads the
    eigen-line spaces instead. If the action is scalar on that quotient,
    the one space is the whole quotient: the line bound joins the
    enumeration all the same, and closures are lines as above. Otherwise
    `_stable_quotient_lines` searches the spaces under the line bound.

    Quotients come from lat's memo, so they are shared with every other
    search on lat. A line Y = Z ⊕ lift(y) has covol²(Y) = covol²(Z)·
    (y·gram·yᵀ)/scale (a Schur complement), so only closures are measured.
    """
    n = lat.n
    found: dict = {}
    visited: set = set()

    def emit(sub: RationalSubspace, covol: Fraction | None):
        if sub.rows not in found:
            if covol is None:
                covol = covolume_sq(lat, sub)
            if covol <= caps[sub.dim]:
                found[sub.rows] = (sub, covol)

    def line(quot: _Quotient, y) -> RationalSubspace:
        # Z saturated and y primitive in Λ/Λ_Z: Λ_Z + Z·lift(y) is
        # saturated, so its HNF is the line's canonical basis
        rows = rl.hnf_rows(quot.z_rows + (quot.lift(y),))
        if not any(rows[-1]):
            raise InternalInvariantViolation("line lift lost a dimension")
        return RationalSubspace._trusted(n, rows)

    def search(z_rows, ks):
        ks = [k for k in ks if (z_rows, k) not in visited]
        if not ks:
            return
        visited.update((z_rows, k) for k in ks)
        quot = _quotient(lat, sc, z_rows)
        dz = len(z_rows)
        bounds = {k: _node_bound(caps[k], quot.covol_sq, quot.scale, k - dz)
                  for k in ks if k > dz + 1}
        fold = sc.scalar_action
        if dz + 1 in ks:
            t = _node_bound(caps[dz + 1], quot.covol_sq, quot.scale, 1)
            merged = fold or t <= max(bounds.values(), default=0)
            if not merged:
                spaces = quot.eigen_lines
                # one space of full rank: the action is scalar on the quotient
                merged = fold = len(spaces) == 1 and len(spaces[0][0]) == quot.rank
            if merged:
                bounds[dz + 1] = t
            else:
                for y, norm in _stable_quotient_lines(quot, t, bud):
                    emit(line(quot, y), quot.covol_sq * norm / quot.scale)
        if not bounds:
            return
        deeper: dict = {}
        for norm, y in _enumerate_gram(quot.reduced, max(bounds.values()), bud, primitive=True):
            met = [k for k, b in bounds.items() if norm <= b]
            cl = (line(quot, y) if fold
                  else _m_closure(lat, sc, z_rows + (quot.lift(y),)))
            if cl.dim in met:
                emit(cl, quot.covol_sq * norm / quot.scale if cl.dim == dz + 1 else None)
            above = [k for k in met if k > cl.dim]
            if above:
                deeper.setdefault(cl.rows, set()).update(above)
        for rows, above in deeper.items():
            search(rows, above)

    complete = True
    try:
        search(base.rows, range(base.dim + 1, n))
    except BudgetExceeded:
        complete = False
    del search  # the recursive closure is a reference cycle; free it now
    return list(found.values()), complete


@dataclass(frozen=True)
class DeltaResult:
    """Exact certificate for the restricted minimal covolume.

    δ² = witness_covol_sq^{1/dim} for the witness W, dim = dim W; searches
    and decisions compare such roots by integer cross products
    (`_root_cmp`), and drive's step bound works from witness_covol_sq and
    dim as well. The reported root-free form is derived for output only,
    and no decision reads it: delta_sq_pow = witness_covol_sq^{L/dim} with
    L = lcm(1..N) = lcm_pow, and delta_float = delta_sq_pow^{1/(2L)}.
    complete=False marks an upper bound obtained under an exhausted budget.
    A {0} witness, which δ never has, is refused (ValidationError("delta")).
    """

    witness: RationalSubspace
    witness_covol_sq: Fraction
    complete: bool

    def __post_init__(self):
        if not self.witness.dim:
            raise ValidationError("delta", "witness must be a nonzero subspace")

    @cached_property
    def lcm_pow(self) -> int:
        return lcm(*range(1, self.witness.ambient + 1))

    @cached_property
    def delta_sq_pow(self) -> Fraction:
        return self.witness_covol_sq ** (self.lcm_pow // self.witness.dim)

    @cached_property
    def delta_float(self) -> float:
        x = self.delta_sq_pow
        return 1.0 if x == 1 else exp((log(x.numerator) - log(x.denominator)) / (2 * self.lcm_pow))

    def delta_sq_vs(self, c: Fraction, d: int = 1) -> int:
        """The sign of δ² − c^{1/d}, c ≥ 0 rational: -1, 0, or 1 (`_root_cmp`)."""
        return _root_cmp(self.witness_covol_sq, self.witness.dim, F(c), d)


def _root_cmp(c, d: int, c2, d2: int) -> int:
    """The sign of c^{1/d} − c2^{1/d2} for rationals c, c2 ≥ 0: -1, 0, or 1.

    c^{d2} is compared with c2^{d} as the integer cross products
    num^{d2}·den2^{d} and num2^{d}·den^{d2} (denominators are positive), so
    no exponent exceeds the larger of the two root indices.
    """
    x = c.numerator ** d2 * c2.denominator ** d
    y = c2.numerator ** d * c.denominator ** d2
    return (x > y) - (x < y)


def _root_lt(a, b) -> bool:
    """Whether a = (c, d, rows) precedes b: by c^{1/d}, then d, then rows."""
    (c, d, rows), (c2, d2, rows2) = a, b
    x = _root_cmp(c, d, c2, d2)
    return x < 0 if x else (d, rows) < (d2, rows2)


def delta_m(lat: UnimodularLattice, sc: Scenario, budget=None) -> DeltaResult:
    """Exact minimizer of covol^{1/dim} over eligible subspaces (full included).

    Ties break to smaller dimension, then lexicographically smallest basis.
    Budget exhaustion degrades to an upper bound with complete=False.

    When `Scenario.full_block_algebra` holds, the stable subspaces are the
    block sums, and every one of them is measured: δ is then the least
    covol²(Λ∩V_T)^{1/dim V_T} over the proper block sums and the whole
    space, in closed form, under caps 1, with no seed. Otherwise the
    covolume cap for the exhaustive chain search is seeded from the stable
    closure of one LLL-short vector with covol² c_s and dim d_s: cap is a
    rational upper bound of c_s^{1/d_s} (1 when c_s ≥ 1), and a
    k-dimensional W that beats or ties the seed has covol²(W) ≤ cap^k. So
    dimension k is searched under cap^k ≤ cap; keeping ties keeps the
    smaller-dimension tie-break, and badly squashed inputs stay cheap.

    The vector is the first row u_1 of the root quotient's LLL transform.
    Under a scalar action (`Scenario.scalar_action`) every line is stable,
    so the seed is the line of u_1, primitive as a row of a unimodular
    matrix, and its covol² is the reduced Gram's first minor D_1 over the
    root's scale, read from the LLL state: no `m_closure`, no `covolume_sq`.
    """
    bud = _as_budget(budget)
    cap = F(1)
    extra = []
    if not sc.full_block_algebra:
        root = _quotient(lat, sc, ())
        u, (_, d) = root.reduced
        if sc.scalar_action:
            row = u[0] if next(filter(None, u[0])) > 0 else tuple(-x for x in u[0])
            seed, c_seed = RationalSubspace._trusted(lat.n, (row,)), F(d[1], root.scale)
        else:
            seed = m_closure(lat, sc, [u[0]])
            c_seed = None if seed.is_full else covolume_sq(lat, seed)
        if not seed.is_full:
            extra.append((seed, c_seed))
            if c_seed < 1:
                cap = rat_root_upper(c_seed, seed.dim)
    caps = tuple(cap ** k for k in range(lat.n))
    cands, complete = _stable_search(lat, sc, caps, None, bud)
    witness = full_subspace(lat.n)
    best = (F(1), lat.n, witness.rows)
    for w, c in extra + cands:
        key = (c, w.dim, w.rows)
        if _root_lt(key, best):
            witness, best = w, key
    return DeltaResult(witness=witness, witness_covol_sq=best[0], complete=complete)


def _compound(m, k: int) -> rl.IntRows:
    """The k×k minors of the integer matrix m, rows and columns indexed by
    k-subsets in lexicographic order (for k rows: the one Plücker row)."""
    rs, cs = (list(itertools.combinations(range(c), k)) for c in (len(m), len(m[0])))
    return tuple(tuple(rl.rat_det([[m[i][j] for j in c] for i in r]).numerator
                       for c in cs) for r in rs)


def _saturated_subspaces(lat: UnimodularLattice, k: int, cap_sq, bud: _Budget):
    """Every saturated k-dim W with covol²(W) ≤ cap_sq, as (W, covol²) pairs.

    With p the Plücker row of Λ∩W and a/den the Gram, den^k·covol²(W) =
    p·∧ᵏa·pᵀ (Cauchy–Binet), and the saturated W are the primitive
    decomposable ±p (W. M. Schmidt, Ann. of Math. 85, 1967): Fincke–Pohst on
    ∧ᵏa finds them all, whatever their entries. For p_I ≠ 0, Cramer's rule
    rebuilds row j at column m as ±p at I with I_j replaced by m; p is kept
    when the saturated rows have Plücker row ±p, which holds iff p is.
    """
    n = lat.n
    a, den = lat.int_gram
    subsets = list(itertools.combinations(range(n), k))
    index = {c: i for i, c in enumerate(subsets)}

    def at(p, j, rest, m):
        c = tuple(sorted(rest + (m,)))
        return 0 if m in rest else (-1) ** (c.index(m) + j) * p[index[c]]

    out = []
    for norm, p in _enumerate_gram(_lll(_compound(a, k)), cap_sq * den ** k, bud, primitive=True):
        lead = subsets[next(i for i, x in enumerate(p) if x)]
        sat = rl.saturate([[at(p, j, lead[:j] + lead[j + 1:], m) for m in range(n)]
                           for j in range(k)])
        if _compound(sat, k)[0] in (p, tuple(-x for x in p)):
            out.append((RationalSubspace._trusted(n, sat), F(norm, den ** k)))
    return out


def oracle_delta_m(lat: UnimodularLattice, sc: Scenario, *, budget=None) -> DeltaResult:
    """delta_m from every saturated subspace under a cap, for N ≤
    ORACLE_MAX_DIM (above, ValidationError("dimension", ...)); it shares no
    chain search and no block sums with delta_m, so it checks them.

    The cap is the least rat_root_upper(covol², dim) over 1 and the proper
    M-closures of the LLL rows that `is_m_stable` confirms, so dimension k
    is enumerated under cap^k (`_saturated_subspaces`) and the least stable
    candidate by `_root_lt` wins. Budget exhaustion gives complete=False.
    """
    if lat.n > ORACLE_MAX_DIM:
        raise ValidationError("dimension", "brute-force oracle supports dimension "
                              f"<= {ORACLE_MAX_DIM}, got {lat.n}")
    bud = _as_budget(budget)
    cap = F(1)
    for row in _lll(lat.int_gram[0])[0]:
        seed = m_closure(lat, sc, [row])
        if not seed.is_full and is_m_stable(seed, lat, sc):
            cap = min(cap, rat_root_upper(covolume_sq(lat, seed), seed.dim))
    witness = full_subspace(lat.n)
    best, complete = (F(1), lat.n, witness.rows), True
    try:
        for k in range(1, lat.n):
            for sub, c in _saturated_subspaces(lat, k, cap ** k, bud):
                if _root_lt((c, k, sub.rows), best) and is_m_stable(sub, lat, sc):
                    witness, best = sub, (c, k, sub.rows)
    except BudgetExceeded:
        complete = False
    return DeltaResult(witness=witness, witness_covol_sq=best[0], complete=complete)
