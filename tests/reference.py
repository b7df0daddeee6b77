"""Reference routines that the program no longer uses, kept to check it.

`reference_rational_roots` is the trial-division root finder that
`enumeration.rational_roots` replaced: every candidate ±p/q, p | a₀ and
q | aₙ, is evaluated exactly. It costs O(√|a₀| + √|aₙ|) divisions, so the
tests call it on small coefficients only. `reference_char_poly` is the
Fraction Faddeev–LeVerrier recurrence that `enumeration.char_poly`, which
takes integer matrices only, replaced; the Fraction references call it.

The Fraction routines below are the references for the integer kernels of
`ratlin`: the RREF family (`_rref` under `rat_rank`, `rat_right_kernel` and
`span_contains`) for `hnf` and `saturate`, `rat_inverse` for `int_inverse`,
`fraction_det` for every determinant, and `real_rows` for the lattice's
integer coordinates. `lpower_step_bound` is the L-power iteration that
`pushout._step_count_bound` replaced.

`gram` (the Fraction Gram of a lattice), `subspace_sum`,
`subspace_intersect`, `shortest_vector_sq` and `torus_inverse` are
operations the program never performs; the tests build their inputs and
check identities with them. `gram` is the rational form of
`UnimodularLattice.int_gram`, and `shortest_vector_sq` reads λ₁² off
`short_vectors` under the shortest LLL row.

`fraction_root_cmp`, `doubling_rho`, `fraction_contraction_constant` and
`fraction_expansion_certificate` are the Fraction forms of the push-out
step's bookkeeping: root comparisons by Fraction powers, ρ by doubling, C₁
by per-coordinate division, and a torus element that is validated.
`enumeration._root_cmp`, `pushout._dyadic_exponent`,
`exterior.contraction_constant` and `TorusElement._trusted` replaced them.

`per_dimension_stable_search` is the chain search that
`enumeration._stable_search` replaced: it runs one search per target
dimension k, so a node Z is enumerated, and each of its short vectors
closed, once for every k that reaches it. It keeps the Fraction node bounds
of `_hermite_sq_bound`, and forms and eliminates each reduced quotient
Gram itself instead of reading the LLL state.

`hnf_complete_to_basis` is the basis completion by the HNF transform that
`enumeration.complete_to_basis` keeps only for rows that are not the
identity on their pivot columns; it completes every row set that way, and
inverts its transform with `int_inverse_unimodular`, the HNF-transform
inverse that `ratlin.int_inverse` replaced there.

`scaled_bareiss` is the elimination of a rational Gram scaled to integers,
and `elimination_state` puts it in the form `enumeration._lll` returns.
`enumerate_rational_gram` runs `enumeration._enumerate_gram`, which takes
integer Grams only, on a rational one scaled once, as `lll_reduce_gram`
scales its input.
"""

from fractions import Fraction
from math import gcd
from typing import Sequence

from nondiv import ratlin as rl
from nondiv.enumeration import (_Budget, _enumerate_gram, _lll, _quotient,
                                _stable_quotient_lines, rat_root_upper, short_vectors)
from nondiv.errors import BudgetExceeded, InternalInvariantViolation, ValidationError
from nondiv.lattice import (RationalSubspace, Scenario, TorusElement,
                            UnimodularLattice, covolume_sq, is_m_stable, m_closure,
                            subspace_from_rows)
from nondiv.pushout import ExpansionCertificate
from nondiv.ratlin import RatRows

F = Fraction


def divisors(m: int) -> list[int]:
    m = abs(m)
    out = set()
    i = 1
    while i * i <= m:
        if m % i == 0:
            out.add(i)
            out.add(m // i)
        i += 1
    return sorted(out)


def reference_rational_roots(coeffs) -> list[Fraction]:
    """All rational roots of the polynomial with the given coefficients."""
    ints = rl.scale_to_int([coeffs])[0][0]
    roots = []
    # factor out x^v
    v = 0
    while v < len(ints) and ints[v] == 0:
        v += 1
    if v == len(ints):
        return [F(0)]
    if v:
        roots.append(F(0))
        ints = ints[v:]
    a0, an = ints[0], ints[-1]
    for p in divisors(a0):
        for q in divisors(an):
            for cand in (F(p, q), F(-p, q)):
                if cand in roots:
                    continue
                val = F(0)
                for c in reversed(ints):
                    val = val * cand + c
                if val == 0:
                    roots.append(cand)
    return sorted(set(roots))


def reference_char_poly(m) -> list[Fraction]:
    """Coefficients [c_0, ..., c_{n-1}, 1] of det(xI - m) for a rational m."""
    n = len(m)
    coeffs = [F(0)] * (n + 1)
    coeffs[n] = F(1)
    mk = tuple(tuple(F(x) for x in row) for row in rl.identity(n))
    for k in range(1, n + 1):
        mk = rl.mat_mul(m, mk)
        c = -sum(mk[i][i] for i in range(n)) / k
        coeffs[n - k] = c
        mk = tuple(tuple(x + (c if i == j else 0) for j, x in enumerate(row))
                   for i, row in enumerate(mk))
    return coeffs


def _rref(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over Q; returns (rows, pivot column list)."""
    a = [[Fraction(x) for x in r] for r in rows]
    nrows = len(a)
    ncols = len(a[0]) if a else 0
    pivots = []
    row = 0
    for col in range(ncols):
        piv = None
        for i in range(row, nrows):
            if a[i][col]:
                piv = i
                break
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        inv = 1 / a[row][col]
        a[row] = [x * inv for x in a[row]]
        for i in range(nrows):
            if i != row and a[i][col]:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[row])]
        pivots.append(col)
        row += 1
        if row == nrows:
            break
    return a, pivots


def rat_rank(rows: Sequence[Sequence]) -> int:
    if not rows:
        return 0
    _, pivots = _rref(rows)
    return len(pivots)


def rat_right_kernel(rows: Sequence[Sequence]) -> RatRows:
    """Basis rows of {x in Q^cols : rows·x = 0}."""
    if not rows:
        return ()
    ncols = len(rows[0])
    rref, pivots = _rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for prow, pcol in enumerate(pivots):
            v[pcol] = -rref[prow][fc]
        basis.append(tuple(v))
    return tuple(basis)


def span_contains(base_rows: Sequence[Sequence], vec: Sequence) -> bool:
    """Whether vec lies in the Q-span of base_rows."""
    if not any(vec):
        return True
    if not base_rows:
        return False
    r0 = rat_rank(base_rows)
    stacked = list(base_rows) + [tuple(vec)]
    return rat_rank(stacked) == r0


def rat_inverse(m: Sequence[Sequence]) -> RatRows:
    """Inverse of a square rational matrix (Gauss-Jordan); ValueError if singular."""
    n = len(m)
    a = [[Fraction(x) for x in r] + [Fraction(1 if i == j else 0) for j in range(n)]
         for i, r in enumerate(m)]
    for col in range(n):
        piv = None
        for i in range(col, n):
            if a[i][col]:
                piv = i
                break
        if piv is None:
            raise ValueError("singular matrix")
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for i in range(n):
            if i != col and a[i][col]:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    return tuple(tuple(row[n:]) for row in a)


def fraction_det(m: Sequence[Sequence]) -> Fraction:
    """Determinant of a square rational matrix by Gaussian elimination over Q."""
    a = [[Fraction(x) for x in r] for r in m]
    n = len(a)
    det = Fraction(1)
    for col in range(n):
        piv = next((i for i in range(col, n) if a[i][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        for i in range(col + 1, n):
            f = a[i][col] / a[col][col]
            a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    return det


def real_rows(lat, int_rows: Sequence[Sequence[int]]) -> RatRows:
    """Real coordinates of integer coordinate rows, x·b_intᵀ/b."""
    bt = rl.transpose(lat.basis)
    return tuple(tuple(sum(Fraction(x) * bt[i][j] for i, x in enumerate(row))
                       for j in range(lat.n)) for row in int_rows)


def gram(lat: UnimodularLattice) -> RatRows:
    """A[i][j] = ⟨column i, column j⟩; ‖x·basisᵀ‖² = x·A·xᵀ for integer rows x."""
    bt = rl.transpose(lat.basis)
    return rl.mat_mul(bt, lat.basis)


def subspace_sum(w1: RationalSubspace, w2: RationalSubspace) -> RationalSubspace:
    if w1.ambient != w2.ambient:
        raise ValidationError("ambient", "mismatched ambient dimensions")
    return subspace_from_rows(w1.ambient, list(w1.rows) + list(w2.rows))


def subspace_intersect(w1: RationalSubspace, w2: RationalSubspace) -> RationalSubspace:
    """W₁∩W₂ saturated; the zero subspace when the intersection is {0}.

    For saturated inputs Λ_{W₁∩W₂} = Λ_{W₁} ∩ Λ_{W₂} exactly.
    """
    if w1.ambient != w2.ambient:
        raise ValidationError("ambient", "mismatched ambient dimensions")
    stacked = list(w1.rows) + list(w2.rows)
    # rows u with u·stacked = 0; the w1-part of u recombines into intersection vectors
    ker = rl.right_kernel_int(rl.transpose(stacked))
    k1 = len(w1.rows)
    vecs = []
    for u in ker:
        v = tuple(sum(u[i] * w1.rows[i][j] for i in range(k1)) for j in range(w1.ambient))
        if any(v):
            vecs.append(v)
    return subspace_from_rows(w1.ambient, vecs)


def shortest_vector_sq(lat: UnimodularLattice) -> Fraction:
    """λ₁(Λ)²: the least norm `short_vectors` finds under the shortest LLL row."""
    u, _ = _lll(lat.int_gram[0])
    vecs = short_vectors(lat, min(lat.vector_norm_sq(row) for row in u))
    return min(lat.vector_norm_sq(v) for v in vecs)


def torus_inverse(s: TorusElement) -> TorusElement:
    """s⁻¹: the reciprocal scalars on the same blocks."""
    return TorusElement(tuple(1 / x for x in s.scalars), s.block_dims)


def lpower_step_bound(q0: Fraction, factor_min: Fraction, target: Fraction) -> int:
    """Smallest b with factor_min^b·q0 ≥ target (exact iteration)."""
    b = 0
    q = q0
    while q < target:
        q *= factor_min
        b += 1
        if b > 10 ** 6:
            raise InternalInvariantViolation("step bound iteration diverged")
    return b


def fraction_root_cmp(c, d: int, c2, d2: int) -> int:
    """The sign of c^{1/d} − c2^{1/d2}, by the Fraction powers c^{d2}, c2^{d}."""
    x, y = c ** d2, c2 ** d
    return (x > y) - (x < y)


def doubling_rho(target: Fraction, k: int) -> Fraction:
    """Smallest power of two ρ ≥ 2 with ρ^k ≥ target, by doubling."""
    rho = F(2)
    while rho ** k < target:
        rho *= 2
    return rho


def fraction_contraction_constant(s: TorusElement) -> Fraction:
    """C₁(s) = ∏ 1/x over the diagonal entries x < 1, one division each."""
    out = F(1)
    for x in s.diagonal():
        if x < 1:
            out /= x
    return out


def fraction_expansion_certificate(sc: Scenario, index_set: tuple[int, ...],
                                   c_w_sq: Fraction, lambda_multiplier: Fraction
                                   ) -> ExpansionCertificate:
    """The certificate `expansion_element` builds for index set I and C_W²,
    by Fraction powers of ρ and with a validated torus element."""
    d_i = sum(sc.block_dims[i] for i in index_set)
    rho = doubling_rho(lambda_multiplier * c_w_sq, sc.n - d_i)
    lam = rho ** (sc.n - d_i)
    mu = F(1) / rho ** d_i
    s = TorusElement(tuple(lam if i in index_set else mu for i in range(sc.num_blocks)),
                     sc.block_dims)
    return ExpansionCertificate(s=s, index_set=index_set, c_w_sq=c_w_sq, lam=lam,
                                achieved_c1=fraction_contraction_constant(s),
                                achieved_c2_sq=(lam / c_w_sq) ** 2)


def int_inverse_unimodular(m: Sequence[Sequence[int]]) -> rl.IntRows:
    """Integer inverse of a unimodular integer matrix.

    The HNF of a unimodular matrix is the identity, so the HNF transform u
    (with u·m = I) is the inverse; any other HNF means m is not unimodular.
    """
    h, u = rl.hnf(m)
    if h != rl.identity(len(m)):
        raise ValueError("matrix is not unimodular")
    return u


def hnf_complete_to_basis(sat_rows, n: int) -> tuple[rl.IntRows, rl.IntRows, None]:
    """(v, v⁻¹, None), as `complete_to_basis` returns its HNF path, with
    v[:k] = sat_rows: v = (w⁻¹)ᵀ and v⁻¹ = wᵀ for the HNF transform w of
    sat_rowsᵀ; no rows complete to (I, I, None)."""
    if not sat_rows:
        return rl.identity(n), rl.identity(n), None
    hh, w = rl.hnf(rl.transpose(sat_rows))
    if any(hh[i][i] != 1 for i in range(len(sat_rows))):
        raise InternalInvariantViolation("rows are not a saturated basis")
    return rl.transpose(int_inverse_unimodular(w)), rl.transpose(w), None


def scaled_bareiss(g):
    """(λ, D, den) for den·g, den the lcm of g's denominators (1 for ints):
    the matrix after n `rl.bareiss` steps and its minors [1, D_1, ..., D_n]."""
    scaled, den = rl.scale_to_int(g)
    lam = [list(row) for row in scaled]
    rl.bareiss(lam, len(lam))
    return lam, [1] + [lam[i][i] for i in range(len(lam))], den


def elimination_state(g):
    """`scaled_bareiss(g)` in the frozen form of `_lll`'s state: the strict
    lower triangle of λ and the minors D_0..D_n; den is dropped, so g must be
    an integer Gram for the state to be g's."""
    lam, d, _ = scaled_bareiss(g)
    return tuple(tuple(row[:i]) for i, row in enumerate(lam)), tuple(d)


def enumerate_rational_gram(g, bound, budget, primitive):
    """`_enumerate_gram` on a rational Gram g over the identity basis: den·g
    under bound·den, with den the lcm of g's denominators, and each norm
    divided by den again."""
    scaled, den = rl.scale_to_int(g)
    reduction = (rl.identity(len(g)), elimination_state(scaled))
    return [(F(qv, den), x) for qv, x in _enumerate_gram(reduction, F(bound) * den,
                                                         budget, primitive)]


def gcd_one(out):
    """An enumerator's output kept to its vectors of gcd 1, as primitive mode
    yields them ("exceeded" passes through)."""
    return out if out == "exceeded" else [(qv, x) for qv, x in out if gcd(*x) == 1]


def _hermite_sq_bound(r: int) -> Fraction:
    """Rational upper bound for the Hermite constant γ_r: (4/3)^{ceil((r-1)/2)}."""
    return F(4, 3) ** (r // 2)


def per_dimension_stable_search(lat: UnimodularLattice, sc: Scenario, caps,
                                base: RationalSubspace | None, bud: _Budget
                                ) -> tuple[list[tuple[RationalSubspace, Fraction]], bool]:
    """`stable_subspaces_within` with covol² ≤ caps[k] in each dimension k,
    as (subspace, covol²) pairs; the chain search for target dimension k
    runs under caps[k] alone.

    Quotients come from lat's memo, so they are shared with every other
    search on lat. A line Y = Z ⊕ lift(y) has covol²(Y) = covol²(Z)·
    (y·gram·yᵀ)/scale (a Schur complement), so only closures are measured.
    """
    n = lat.n
    base_rows = base.rows if base is not None else ()
    found: dict = {}
    visited: set = set()

    def emit(sub: RationalSubspace, covol: Fraction | None):
        if sub.rows not in found:
            if covol is None:
                covol = covolume_sq(lat, sub)
            if covol <= caps[sub.dim]:
                found[sub.rows] = (sub, covol)

    def search(z_rows, k: int):
        key = (z_rows, k)
        if key in visited:
            return
        visited.add(key)
        quot = _quotient(lat, sc, z_rows)
        t_sq = caps[k] / quot.covol_sq
        r = k - len(z_rows)
        if r == 1:
            for y, norm in _stable_quotient_lines(quot, t_sq * quot.scale, bud):
                # Z saturated and y primitive in Λ/Λ_Z: Λ_Z + Z·lift(y) is
                # saturated, so its HNF is the line's canonical basis
                rows = rl.hnf_rows(z_rows + (quot.lift(y),))
                if not any(rows[-1]):
                    raise InternalInvariantViolation("line lift lost a dimension")
                emit(RationalSubspace._trusted(n, rows),
                     quot.covol_sq * norm / quot.scale)
            return
        bound = _hermite_sq_bound(r) * rat_root_upper(t_sq, r)
        u = quot.reduced[0]
        g = rl.mat_mul(rl.mat_mul(u, quot.gram), rl.transpose(u))
        for _, w in _enumerate_gram((rl.identity(len(g)), elimination_state(g)),
                                    bound * quot.scale, bud, primitive=True):
            y = tuple(sum(w[i] * u[i][j] for i in range(len(w)))
                      for j in range(quot.rank))
            if rl.primitive_part(y) != y:
                continue
            cl = m_closure(lat, sc, list(z_rows) + [quot.lift(y)])
            d = cl.dim
            if d > k:
                continue
            if d == k:
                emit(cl, None)
            elif d > len(z_rows):
                search(cl.rows, k)

    complete = True
    try:
        for k in range(len(base_rows) + 1, n):
            search(base_rows, k)
    except BudgetExceeded:
        complete = False
    del search  # the recursive closure is a reference cycle; free it now
    out = sorted(found.values(), key=lambda p: (p[0].dim, p[0].rows))
    for s, _ in out:
        if not is_m_stable(s, lat, sc):
            raise InternalInvariantViolation("closure produced an unstable subspace")
    return out, complete
