"""Torus push-out: expansion certificates, protection subspaces, the driver.

One round: find the minimal-covolume eligible subspace, protect it (grow a
chain until every competing eligible subspace has large joint covolume), pick
the block-scalar torus element that expands the protected subspace, apply it,
and certify the resulting growth of the restricted minimal covolume exactly.
Iterating rounds drives the lattice above a covolume floor eta0. The torus
element scales by powers of ρ = 2^e, with e found by integer shifts, so its
scalars are built as shifted integers, not as Fraction powers.

Constants policy. The squared guard c and the floor eta0 are coupled:
eta0_sq ≤ c^(-N) keeps the protection chain proper. One loop settles both:
check the floor, protect under c, certify W∞. By default c is W∞'s achieved
c1c2_sq and eta0_sq = c^(-N), re-derived until c stops rising (larger
protected subspaces can have larger constants), and the a priori growth
factor is a theorem. With eta0_override the floor is fixed and checked before
any certificate is built, c is the largest 1/256-grid rational with c^N ≤
1/eta0_sq, and the a priori factor may be unprovable: every step re-verifies
growth and raises GrowthContractViolated if a configuration breaks it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import ratlin as rl
from .enumeration import (DEFAULT_VECTOR_BUDGET, DeltaResult, _as_budget,
                          _Budget, _int_nthroot_floor, _roots_over, _shifted,
                          _stable_search, char_poly, delta_m)
from .errors import (GrowthContractViolated, IncompleteSearch,
                     InternalInvariantViolation, NotBelowEta0,
                     ProtectionFailed, UnexpandableSubspace, ValidationError,
                     WholeSpace)
from .exterior import contraction_constant
from .lattice import (RationalSubspace, Scenario, TorusElement,
                      UnimodularLattice, _insert, apply_torus, check_dimensions)

F = Fraction


@dataclass(frozen=True)
class PushoutConfig:
    """Knobs for one run, each checked here whatever its source (the budget
    by `_Budget`); defaults give the self-calibrating exact pipeline. None
    means the default for every knob: lambda_multiplier 2, no eta0
    override, max_steps 32 and the default vector budget."""

    lambda_multiplier: Fraction | None = None
    eta0_override: Fraction | None = None
    max_steps: int | None = None
    vector_budget: int | None = DEFAULT_VECTOR_BUDGET

    def __post_init__(self):
        lam, steps = self.lambda_multiplier, self.max_steps
        exact = {"lambda_multiplier": (F(2) if lam is None
                                       else rl.exact_rational(lam, "lambda_multiplier")),
                 "max_steps": 32 if steps is None else rl.exact_int(steps, "max_steps"),
                 "vector_budget": _Budget(self.vector_budget).cap}
        if self.eta0_override is not None:
            exact["eta0_override"] = rl.exact_rational(self.eta0_override, "eta0")
        for name, value in exact.items():
            object.__setattr__(self, name, value)
        if self.lambda_multiplier <= 1:
            raise ValidationError("lambda_multiplier", "must be > 1")
        if self.eta0_override is not None and not 0 < self.eta0_override < 1:
            raise ValidationError("eta0", "must lie strictly between 0 and 1")
        if self.max_steps < 0:
            raise ValidationError("max_steps", "must be >= 0")


def select_index_set(lat: UnimodularLattice, w: RationalSubspace,
                     sc: Scenario) -> tuple[int, ...]:
    """Block index set I from the descending kernel chain of block projections.

    Scan blocks in ascending order; whenever the vectors of W that vanish on
    the blocks picked so far have a nonzero projection to block i, add i.
    The result makes the projection of W to the I-coordinates injective,
    which is asserted exactly.
    """
    check_dimensions(lat, sc, w)
    return _index_set(rl.mat_mul(w.rows, rl.transpose(lat.int_basis[0])), sc)


def _index_set(rows: rl.IntRows, sc: Scenario) -> tuple[int, ...]:
    """`select_index_set` on the integer rows w.rows·b_intᵀ of W (b times
    its real rows, `lat.int_basis`), in the column picture.

    With x·rows ranging over W, the vectors vanishing on a column set C are
    the x orthogonal to the columns in C. So such a vector is nonzero on
    block i iff a column of block i lies outside the span of C's columns,
    and the projection to I is injective iff I's columns span Q^dim W. One
    echelon of the picked columns decides both.
    """
    k = len(rows)
    cols = rl.transpose(rows)
    echelon: list = []
    picked = []
    for i, (a, b) in enumerate(sc.blocks):
        if len(echelon) == k:
            break
        before = len(echelon)
        for c in cols[a:b]:
            _insert(echelon, c)
        if len(echelon) > before:
            picked.append(i)
    if len(echelon) != k:
        raise InternalInvariantViolation("index-set projection is not injective on W")
    return tuple(picked)


def _sigma_sq_upper(g_i, g_c) -> Fraction:
    """Certified rational upper bound for max_x (x·g_c·x)/(x·g_i·x), g_i PD.

    g_i is an integer matrix (`expansion_element` builds both Grams from
    integer rows), with g_i⁻¹ = adj(g_i)/det and det > 0. The bound is the
    largest eigenvalue λ_max of g_i⁻¹·g_c when it is rational; otherwise a
    dyadic overshoot, which only strengthens downstream certificates. Its
    eigenvalues are λ = y/det for the roots y of p, the monic integer
    characteristic polynomial of the integer pencil adj(g_i)·g_c. The pencil
    is symmetric-definite, so p is real-rooted, and x ≥ λ_max exactly when
    p(det·x + t) has no negative coefficient (Descartes); 16 bisection
    rounds bracket λ_max in (lo, hi]. Rational roots of p are integers, so
    λ_max is rational iff the largest root `_roots_over` finds for y in
    (⌊det·lo⌋, ⌈det·hi⌉] passes that same test: no smaller root can.
    """
    if all(x == 0 for row in g_c for x in row):
        return F(0)
    adj, det = rl.int_inverse(g_i)
    p = char_poly(rl.mat_mul(adj, g_c))

    def ok(x: Fraction) -> bool:
        return min(_shifted(p, det * x.numerator, x.denominator)) >= 0

    hi = F(1)
    while not ok(hi):
        hi *= 2
    lo = F(0)
    for _ in range(16):
        mid = (lo + hi) / 2
        if ok(mid):
            hi = mid
        else:
            lo = mid
    roots = _roots_over(p, math.floor(det * lo), math.ceil(det * hi))
    return roots[-1] / det if roots and ok(roots[-1] / det) else hi


def _dyadic_exponent(t: Fraction, k: int) -> int:
    """Least e ≥ 1 with 2^{e·k} ≥ t > 0, by shifts: t.den·2^{e·k} ≥ t.num."""
    e = 1
    while t.denominator << e * k < t.numerator:
        e += 1
    return e


@dataclass(frozen=True)
class ExpansionCertificate:
    """Torus element expanding W, with the exact constants it achieves.

    achieved_c2_sq bounds the squared expansion of every vector in W and every
    pure wedge spanned inside W; achieved_c1 bounds the worst squared-root
    contraction over all pure wedges of the ambient space.
    """

    s: TorusElement
    index_set: tuple[int, ...]
    c_w_sq: Fraction
    lam: Fraction
    achieved_c1: Fraction
    achieved_c2_sq: Fraction

    def __post_init__(self):
        if not self.lam > self.c_w_sq:
            raise InternalInvariantViolation("lambda must exceed c_w_sq")
        if not self.achieved_c2_sq > 1:
            raise InternalInvariantViolation("expansion constant must exceed 1")
        if not self.achieved_c1 >= 1:
            raise InternalInvariantViolation("contraction constant must be >= 1")

    @cached_property
    def c1c2_sq(self) -> Fraction:
        return self.achieved_c1 ** 2 * self.achieved_c2_sq


def expansion_element(lat: UnimodularLattice, w: RationalSubspace, sc: Scenario,
                      cfg: PushoutConfig) -> ExpansionCertificate:
    """Certificate (s, I, C_W², λ, C₁, C₂²) making s expand W and contract little.

    W is treated as the graph of a map from its I-coordinate projection to the
    remaining coordinates; C_W² = 1 + σ² with σ² a certified upper bound for
    the largest squared singular value of that map. λ = ρ^{N-d_I} for the
    smallest power of two ρ = 2^e, e ≥ 1, with λ ≥ t = lambda_multiplier·C_W²:
    e is the least with t.den·2^{e(N-d_I)} ≥ t.num, found by shifts
    (`_dyadic_exponent`). s scales I-blocks by λ = 2^{e(N-d_I)} and the rest
    by μ = 2^{-e·d_I}, keeping determinant one exactly, so it is built
    without a second check.

    Both Grams of the map are taken on the integer rows w.rows·b_intᵀ, b
    times the real rows; σ² is a ratio of the two, so b² cancels. After
    the dimension checks (ValidationError), the whole space raises
    WholeSpace, and the zero subspace, which no torus element expands,
    UnexpandableSubspace.
    """
    check_dimensions(lat, sc, w)
    if w.is_full:
        raise WholeSpace("expansion needs a proper subspace")
    if not w.dim:
        raise UnexpandableSubspace("the zero subspace has no expansion")
    n = lat.n
    rows = rl.mat_mul(w.rows, rl.transpose(lat.int_basis[0]))
    picked = _index_set(rows, sc)
    i_cols = [c for i in picked for c in range(*sc.blocks[i])]
    d_i = len(i_cols)
    if d_i == n:
        raise UnexpandableSubspace(
            "index set touches every block; no determinant-one direction expands W")
    o_cols = [c for c in range(n) if c not in set(i_cols)]
    a = [tuple(row[c] for c in i_cols) for row in rows]
    b = [tuple(row[c] for c in o_cols) for row in rows]
    g_i = rl.mat_mul(a, rl.transpose(a))
    g_c = rl.mat_mul(b, rl.transpose(b))
    c_w_sq = 1 + _sigma_sq_upper(g_i, g_c)
    e = _dyadic_exponent(cfg.lambda_multiplier * c_w_sq, n - d_i)
    lam = F(1 << e * (n - d_i))
    mu = F(1, 1 << e * d_i)
    scalars = tuple(lam if i in picked else mu for i in range(sc.num_blocks))
    s = TorusElement._trusted(scalars, sc.block_dims)
    return ExpansionCertificate(
        s=s,
        index_set=picked,
        c_w_sq=c_w_sq,
        lam=lam,
        achieved_c1=contraction_constant(s),
        achieved_c2_sq=(lam / c_w_sq) ** 2,
    )


@dataclass(frozen=True)
class ProtectResult:
    """Protection chain and the guard it certifies.

    For every eligible W not contained in w_infinity, the saturated sum
    satisfies covol²(W + W∞) ≥ guard_c·covol²(W∞); certified by exhausting
    all eligible strict superspaces of each chain element below the cap.
    """

    w_infinity: RationalSubspace
    chain: tuple[RationalSubspace, ...]
    chain_covol_sq: tuple[Fraction, ...]
    guard_c: Fraction
    eta0_sq: Fraction


def protect(lat: UnimodularLattice, sc: Scenario, cfg: PushoutConfig, c1c2_sq,
            eta0_sq=None, delta: DeltaResult | None = None, budget=None):
    """Grow the minimal witness into a protected subspace.

    Starting from the exact minimizer W₁, repeatedly absorb any eligible
    strict superspace whose covolume² is below c1c2_sq times the current
    element's, picking the smallest violator each time. Equivalent to the
    joint-covolume loop over subspaces W' ⊄ W_i: the saturated sum W' + W_i is
    itself an eligible strict superspace with covolume no larger than the
    joint one, and conversely any cheap superspace violates in its own name.
    Each round's superspaces come from `_stable_search`: when the generators
    span the block algebra they are the block sums containing W_i, measured
    at one budget unit each, and otherwise the chain search above W_i.

    The floor eta0_sq (default: the override's square, else c^(-N)) must lie
    in (0, 1). An incomplete delta raises IncompleteSearch before the floor
    is read, since its δ is only an upper bound; a complete δ² ≥ eta0_sq
    raises NotBelowEta0, as `pushout_step` and `drive` do.
    """
    c = rl.exact_rational(c1c2_sq, "c1c2_sq")
    if c <= 1:
        raise ValidationError("c1c2_sq", "must be > 1")
    n = lat.n
    bud = _as_budget(cfg.vector_budget if budget is None else budget)
    if eta0_sq is None:
        eta0_sq = (cfg.eta0_override ** 2 if cfg.eta0_override is not None
                   else c ** (-n))
    eta0_sq = rl.exact_rational(eta0_sq, "eta0_sq")
    if not 0 < eta0_sq < 1:
        raise ValidationError("eta0_sq", "must lie strictly between 0 and 1")
    d = delta if delta is not None else delta_m(lat, sc, budget=bud)
    check_dimensions(lat, sc, d.witness)
    if not d.complete:
        raise IncompleteSearch("cannot start a protection chain from an upper bound")
    if d.delta_sq_vs(eta0_sq) >= 0:
        raise NotBelowEta0(eta0_sq, d)
    chain = [d.witness]
    covols = [d.witness_covol_sq]
    while True:
        x = chain[-1]
        cap = c * covols[-1]
        if cap > 1:
            # a violation by the full space itself; the chain bound rules
            # this out whenever eta0_sq <= c^(-N)
            raise ProtectionFailed(
                "guard cap exceeded covolume 1; floor and guard are inconsistent")
        supers, complete = _stable_search(lat, sc, (cap,) * n, x, bud)
        if not complete:
            raise IncompleteSearch("budget exhausted while certifying the guard")
        viol = [(cv, y.dim, y.rows, y) for y, cv in supers if cv < cap]
        if not viol:
            break
        viol.sort(key=lambda t: t[:3])
        chain.append(viol[0][3])
        covols.append(viol[0][0])
        if len(chain) > n:
            raise ProtectionFailed("protection chain exceeded the dimension bound")
    return ProtectResult(
        w_infinity=chain[-1],
        chain=tuple(chain),
        chain_covol_sq=tuple(covols),
        guard_c=c,
        eta0_sq=eta0_sq,
    )


def dyadic_guard(eta0_sq: Fraction, n: int) -> Fraction:
    """Largest c = t/256 > 1 with c^n ≤ 1/eta0_sq, for an int n ≥ 1."""
    eta0_sq = rl.exact_rational(eta0_sq, "eta0_sq")
    n = rl.exact_int(n, "dimension")
    if n < 1:
        raise ValidationError("dimension", f"must be >= 1, got {n}")
    if not 0 < eta0_sq < 1:
        raise ValidationError("eta0", "squared floor must lie in (0, 1)")
    scaled = F(256 ** n) / eta0_sq
    t = _int_nthroot_floor(scaled.numerator // scaled.denominator, n)
    c = F(t, 256)
    if c <= 1:
        raise ValidationError("eta0", "floor too close to 1 for a usable guard")
    return c


@dataclass(frozen=True)
class PushoutStep:
    """Everything one step did, exact: the δ before and after, the
    `ProtectResult` it acted on (chain, W∞, guard and floor), the expansion
    certificate of W∞, and case_tag ("I" when W∞ holds the new witness,
    "II" when not, "none" when that witness is the full space). Derived for
    output only: the q-power forms growth_qpow_factor =
    min(achieved_c2_sq, 4)^{L/N} and qpow_ratio."""

    delta_before: DeltaResult
    delta_after: DeltaResult
    protection: ProtectResult
    expansion: ExpansionCertificate
    case_tag: str

    @cached_property
    def growth_qpow_factor(self) -> Fraction:
        d0 = self.delta_before
        m = min(self.expansion.achieved_c2_sq, F(4))
        return m ** (d0.lcm_pow // d0.witness.ambient)

    @cached_property
    def qpow_ratio(self) -> Fraction:
        return self.delta_after.delta_sq_pow / self.delta_before.delta_sq_pow


def _resolve_protection(lat, sc, cfg, d0):
    """Settle (guard, eta0, W∞, certificate) in one floor/guard loop.

    Each round checks the floor, protects under the guard and certifies a
    new W∞. Under eta0_override the floor is fixed, its guard is
    `dyadic_guard`, and one round decides. Otherwise the guard is W∞'s
    c1c2_sq (W₁'s at first) and the floor guard^(-N), re-derived until the
    guard stops rising. Raises IncompleteSearch for an incomplete delta and
    NotBelowEta0 when the step is moot.
    """
    if not d0.complete:
        raise IncompleteSearch("cannot certify a step from an incomplete delta")
    n, fixed = lat.n, cfg.eta0_override
    if d0.witness.is_full:
        # delta is exactly 1; every admissible floor is below it
        raise NotBelowEta0(None if fixed is None else fixed ** 2, d0)
    w = d0.witness
    cert = None if fixed is not None else expansion_element(lat, w, sc, cfg)
    for _ in range(8 * n):
        eta0_sq = fixed ** 2 if fixed is not None else cert.c1c2_sq ** (-n)
        if d0.delta_sq_vs(eta0_sq) >= 0:
            # a larger guard only lowers a self-calibrated floor further
            raise NotBelowEta0(eta0_sq, d0)
        guard = dyadic_guard(eta0_sq, n) if fixed is not None else cert.c1c2_sq
        pres = protect(lat, sc, cfg, guard, eta0_sq=eta0_sq, delta=d0)
        if cert is None or pres.w_infinity != w:
            # an unchanged W∞ keeps its certificate
            w = pres.w_infinity
            cert = expansion_element(lat, w, sc, cfg)
        if fixed is not None or cert.c1c2_sq <= guard:
            return pres, cert
    raise InternalInvariantViolation("working constants failed to stabilize")


def _execute_step(lat, sc, cfg, d0, pres, cert):
    """Apply the certified torus element and re-verify the growth claim."""
    n, k0 = lat.n, d0.witness.dim
    new_lat = apply_torus(cert.s, lat)
    d1 = delta_m(new_lat, sc, budget=cfg.vector_budget)
    if not d1.complete:
        raise IncompleteSearch("moved lattice's delta could not be certified")
    m = min(cert.achieved_c2_sq, F(4))
    # δ₁² ≥ m^{1/N}·δ₀², by cross powers with exponents at most N²
    if d1.delta_sq_vs(m ** k0 * d0.witness_covol_sq ** n, n * k0) < 0:
        raise GrowthContractViolated(
            f"delta^2 after the step (witness covol^2 {d1.witness_covol_sq}, dim "
            f"{d1.witness.dim}) fell below m^(1/{n}) times delta^2 before (witness "
            f"covol^2 {d0.witness_covol_sq}, dim {k0}), m = {m}")
    if d1.witness.is_full:
        tag = "none"
    elif pres.w_infinity.contains(d1.witness):
        tag = "I"
    else:
        tag = "II"
    return new_lat, PushoutStep(delta_before=d0, delta_after=d1, protection=pres,
                                expansion=cert, case_tag=tag)


def pushout_step(lat: UnimodularLattice, sc: Scenario, cfg: PushoutConfig,
                 delta_before: DeltaResult | None = None
                 ) -> tuple[UnimodularLattice, PushoutStep]:
    """One certified push-out round.

    Raises NotBelowEta0 when the restricted minimal covolume is already at or
    above the governing floor. Otherwise returns the moved lattice and a step
    record whose growth claim δ₁² ≥ min(achieved_c2_sq, 4)^{1/N}·δ₀² is
    re-verified against the exact recomputed delta (the record reports it in
    q-power form); GrowthContractViolated if a custom floor configuration
    defeats it.
    """
    d0 = delta_before if delta_before is not None else delta_m(
        lat, sc, budget=cfg.vector_budget)
    check_dimensions(lat, sc, d0.witness)
    pres, cert = _resolve_protection(lat, sc, cfg, d0)
    return _execute_step(lat, sc, cfg, d0, pres, cert)


class Terminated(enum.Enum):
    """How a drive ended; each value is the name its certificate records."""

    REACHED_ETA0 = "ReachedEta0"
    MAX_STEPS = "MaxSteps"
    INCOMPLETE = "IncompleteSearch"


@dataclass(frozen=True)
class PushoutCertificate:
    """Full trajectory of a drive run."""

    initial_delta: DeltaResult
    steps: tuple[PushoutStep, ...]
    terminated: Terminated
    eta0_sq: Fraction | None
    composed: TorusElement
    final_delta: DeltaResult
    final_lattice: UnimodularLattice
    step_bound: int | None


def _step_count_bound(c0: Fraction, d0: int, m: Fraction, eta_sq: Fraction,
                      n: int) -> int:
    """Least b ≥ 0 with m^{b·d0}·c0^n ≥ eta_sq^{n·d0}, m > 1.

    This is δ₀²·m^{b/N} ≥ eta_sq raised to the power N·d0, with c0 and d0
    the first δ's witness covol² and dim, so no exponent carries lcm(1..N).
    With A = m^{d0} and T = eta_sq^{n·d0}/c0^n, b ≥ log₂T/log₂A >
    (bitlen(T.num) − bitlen(T.den) − 1)/(3/2·(A − 1)), as log₂A ≤ (A − 1)/ln 2;
    when that exceeds 10⁶ the bound is refused before any power of A is
    built. Otherwise b is found by doubling and bisection on exact integer
    cross products. InternalInvariantViolation once b is known to exceed 10⁶.
    """
    a = m ** d0
    t = eta_sq ** (n * d0) / c0 ** n
    if t <= 1:
        return 0
    bits = t.numerator.bit_length() - t.denominator.bit_length() - 1
    if bits > F(3, 2) * (a - 1) * 10 ** 6:
        raise InternalInvariantViolation("step bound exceeds 10^6 steps")

    def reaches(b: int) -> bool:
        return a.numerator ** b * t.denominator >= t.numerator * a.denominator ** b

    lo, hi = 0, 1
    while not reaches(hi):
        if hi > 10 ** 6:
            raise InternalInvariantViolation("step bound exceeds 10^6 steps")
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if reaches(mid):
            hi = mid
        else:
            lo = mid
    return hi


def drive(lat: UnimodularLattice, sc: Scenario, cfg: PushoutConfig
          ) -> PushoutCertificate:
    """Iterate push-out steps until the floor is reached (or steps run out).

    Terminal states: REACHED_ETA0 (with the governing floor and the composed
    torus element), MAX_STEPS, or INCOMPLETE when a budget prevented
    certification; the certificate always carries the partial trace. On
    success with at least one step, the trace length is asserted against the
    exact pigeonhole bound from the smallest per-step growth factor.
    """
    steps: list[PushoutStep] = []
    cur = lat
    d_cur = d_init = delta_m(cur, sc, budget=cfg.vector_budget)
    eta0_final = None
    try:
        while True:
            pres, cert = _resolve_protection(cur, sc, cfg, d_cur)
            if len(steps) >= cfg.max_steps:
                status = Terminated.MAX_STEPS
                break
            cur, rec = _execute_step(cur, sc, cfg, d_cur, pres, cert)
            steps.append(rec)
            d_cur = rec.delta_after
    except NotBelowEta0 as e:
        status, eta0_final = Terminated.REACHED_ETA0, e.eta0_sq
    except IncompleteSearch:
        status = Terminated.INCOMPLETE
    composed = TorusElement(tuple(F(1) for _ in sc.blocks), sc.block_dims)
    for rec in steps:
        composed = composed.compose(rec.expansion.s)
    if steps:
        replayed = apply_torus(composed, lat)
        if replayed.basis != cur.basis:
            raise InternalInvariantViolation("composed torus does not replay the trace")
    bound = None
    if status is Terminated.REACHED_ETA0 and steps:
        if eta0_final is None:
            # the full space is the witness; the last step's floor governs
            eta0_final = steps[-1].protection.eta0_sq
        eta0_max = max(eta0_final, *(rec.protection.eta0_sq for rec in steps))
        m_min = min(F(4), *(rec.expansion.achieved_c2_sq for rec in steps))
        bound = _step_count_bound(d_init.witness_covol_sq, d_init.witness.dim, m_min,
                                  eta0_max, lat.n)
        if len(steps) > bound:
            raise InternalInvariantViolation(
                f"trace length {len(steps)} exceeded the growth bound {bound}")
    return PushoutCertificate(
        initial_delta=d_init,
        steps=tuple(steps),
        terminated=status,
        eta0_sq=eta0_final,
        composed=composed,
        final_delta=d_cur,
        final_lattice=cur,
        step_bound=bound,
    )
