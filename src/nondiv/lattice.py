"""Unimodular lattices, rational subspaces, block scenarios, torus elements.

Subspaces are stored as saturated HNF integer matrices in LATTICE coordinates
(rows are coordinates of a Z-basis of Λ∩W with respect to the lattice basis).
Group actions transport them for free; the real-coordinate span is derived.
The zero subspace is `RationalSubspace(n, ())`, an ordinary value (covol²
1 from a 0×0 Gram, M-stable, in every subspace). Values are frozen and
validated once, where they enter (the dataclasses accept lists and ints,
and every integer row passes the one check `rl.int_rows`); a lattice
derived from validated values carries their `det_sign` and computes no
second determinant.

The M-structure of a lattice under a scenario lives in one private frame
(`_Frame`): the integer action B⁻¹·g·B, its eigenvalues, the closures of
`m_closure` and what `enumeration` derives from a stable subspace alone. A
block-scalar torus element s on the scenario's own blocks commutes with
every generator, which is block-diagonal, so (sB)⁻¹·g·(sB) = B⁻¹·g·B: on sΛ
every M-stable subspace keeps its lattice coordinates and only the Gram
changes. `apply_torus` thus hands the frame on to sΛ when s has the
scenario's block dimensions, and a push-out drive builds its M-structure
once per torus orbit. `apply_group` never hands a frame on.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd
from operator import mul
from typing import Sequence

from . import ratlin as rl
from .errors import NotUnimodular, ValidationError


def _listed(x, field: str) -> tuple:
    """x as a tuple when it is a list or tuple, else ValidationError(field, ...)."""
    if not isinstance(x, (list, tuple)):
        raise ValidationError(field, f"must be a list or tuple, got {type(x).__name__}")
    return tuple(x)


@dataclass(frozen=True)
class Scenario:
    """Block decomposition R^N = ⊕ V_i plus generators of M.

    blocks are 0-based half-open [start, stop) coordinate ranges, contiguous
    and ascending. The torus S is always the full block-scalar determinant-1
    torus; its rank is #blocks - 1. Non-isomorphism of the blocks as M-reps
    is trusted input (see isomorphy_warnings for the heuristic check).
    """

    n: int
    blocks: tuple[tuple[int, int], ...]
    m_generators: tuple[rl.RatRows, ...]

    def __post_init__(self):
        object.__setattr__(self, "n", rl.exact_int(self.n, "dimension"))
        if self.n < 2:
            raise ValidationError("dimension", f"must be >= 2, got {self.n}")
        for i, pair in enumerate(_listed(self.blocks, "blocks")):
            if len(_listed(pair, f"blocks[{i}]")) != 2:
                raise ValidationError(f"blocks[{i}]", "must be a [start, stop) pair")
        object.__setattr__(self, "blocks", tuple(
            (rl.exact_int(a, f"blocks[{i}]"), rl.exact_int(b, f"blocks[{i}]"))
            for i, (a, b) in enumerate(self.blocks)))
        pos = 0
        for i, (a, b) in enumerate(self.blocks):
            if a != pos or b <= a:
                raise ValidationError(f"blocks[{i}]",
                                      f"range [{a},{b}) must start at {pos} and be nonempty")
            if b > self.n:
                raise ValidationError(f"blocks[{i}]", f"range end {b} exceeds dimension {self.n}")
            pos = b
        if pos != self.n:
            raise ValidationError("blocks", f"cover only {pos} of {self.n} coordinates")
        for gi, g in enumerate(_listed(self.m_generators, "m_generators")):
            field = f"m_generators[{gi}]"
            if len(_listed(g, field)) != self.n or any(
                    len(_listed(r, field)) != self.n for r in g):
                raise ValidationError(field, f"must be {self.n}x{self.n}")
        object.__setattr__(self, "m_generators", tuple(map(rl.rat_matrix, self.m_generators)))
        for gi, g in enumerate(self.m_generators):
            for i in range(self.n):
                for j in range(self.n):
                    if self.block_of(i) != self.block_of(j) and g[i][j] != 0:
                        raise ValidationError(
                            f"m_generators[{gi}][{i}][{j}]",
                            "nonzero entry outside the block diagonal")
            if rl.rat_det(g) != 1:
                raise ValidationError(f"m_generators[{gi}]", "determinant must be 1")

    @cached_property
    def int_m_generators(self) -> tuple[tuple[rl.IntRows, int], ...]:
        """(e·g, e) per generator g, e the lcm of g's denominators.

        Computed on first use and held on the instance, outside the fields,
        so equality and hashing are unchanged.
        """
        return tuple(map(rl.scale_to_int, self.m_generators))

    @cached_property
    def scalar_action(self) -> bool:
        """Whether every generator is a scalar matrix (with determinant 1 and
        rational entries, ±I), so that M fixes every line; true for the
        trivial group. Cached like `int_m_generators`."""
        return all(g[i][j] == (g[0][0] if i == j else 0)
                   for g in self.m_generators for i in range(self.n) for j in range(self.n))

    @cached_property
    def full_block_algebra(self) -> bool:
        """Whether the unital Q-algebra A the generators span is all of
        ⊕_β M_{d_β}(Q). Cached like `int_m_generators`.

        A lies in that product, so this holds iff dim A = Σ d_β². Then every
        block is absolutely irreducible and no two are isomorphic, and by
        Burnside and Wedderburn–Artin the M-stable subspaces are exactly the
        block sums V_T (A holds g⁻¹ by Cayley–Hamilton, so they are the
        A-submodules). A is found by closing {I} under right multiplication
        by the generators (`_close`, as `m_closure` closes rows) on flattened
        N×N matrices, until it reaches that dimension or is closed.
        """
        n, target = self.n, sum(d * d for d in self.block_dims)
        gens = [g for g, _ in self.int_m_generators]

        def image(x):
            rows = [x[i * n:(i + 1) * n] for i in range(n)]
            return ([v for r in rl.mat_mul(rows, g) for v in r] for g in gens)

        identity = [int(i == j) for i in range(n) for j in range(n)]
        return len(_close([identity], image, target)) == target

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    @property
    def block_dims(self) -> tuple[int, ...]:
        return tuple(b - a for a, b in self.blocks)

    def block_of(self, coord: int) -> int:
        for i, (a, b) in enumerate(self.blocks):
            if a <= coord < b:
                return i
        raise IndexError(coord)

    def generator_block(self, g: rl.RatRows, i: int) -> rl.RatRows:
        a, b = self.blocks[i]
        return tuple(tuple(row[a:b]) for row in g[a:b])

    def isomorphy_warnings(self) -> list[str]:
        """Heuristic check that equal-dimension blocks are non-isomorphic M-reps.

        Compares generator traces blockwise; identical trace vectors on a pair
        of equal-dimension blocks cannot prove isomorphism but are suspicious
        enough to surface.
        """
        out = []
        for i in range(self.num_blocks):
            for j in range(i + 1, self.num_blocks):
                if self.block_dims[i] != self.block_dims[j]:
                    continue
                same = all(
                    sum(self.generator_block(g, i)[k][k] for k in range(self.block_dims[i]))
                    == sum(self.generator_block(g, j)[k][k] for k in range(self.block_dims[j]))
                    for g in self.m_generators)
                if same:
                    out.append(
                        f"blocks {i} and {j} have equal dimension and identical generator "
                        f"traces; they may be isomorphic as representations, which would "
                        f"make the block-scalar torus too large")
        return out


def trivial_scenario(n: int) -> Scenario:
    """All blocks one-dimensional, M = {e}; the unrestricted-delta setting."""
    return Scenario(n=n, blocks=tuple((i, i + 1) for i in range(n)), m_generators=())


def make_scenario(n: int, blocks: Sequence[Sequence[int]], generators: Sequence[Sequence[Sequence]]) -> Scenario:
    return Scenario(n=n, blocks=blocks, m_generators=generators)


@dataclass(frozen=True)
class TorusElement:
    """Per-block positive scalars with determinant one."""

    scalars: tuple[Fraction, ...]
    block_dims: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "scalars", tuple(
            rl.exact_rational(s, "scalars") for s in _listed(self.scalars, "scalars")))
        object.__setattr__(self, "block_dims", _listed(self.block_dims, "block_dims"))
        if len(self.scalars) != len(self.block_dims):
            raise ValidationError("scalars", "one scalar per block required")
        num = den = 1
        for s, d in zip(self.scalars, self.block_dims):
            if s.numerator <= 0:
                raise ValidationError("scalars", f"must be positive, got {s}")
            if type(d) is not int or d < 1:
                raise ValidationError("block_dims", f"must be positive ints, got {d!r}")
            num *= s.numerator ** d
            den *= s.denominator ** d
        if num != den:
            raise ValidationError("scalars", f"determinant {Fraction(num, den)} != 1")

    @classmethod
    def _trusted(cls, scalars: tuple[Fraction, ...],
                 block_dims: tuple[int, ...]) -> "TorusElement":
        """Skip validation: scalars must be positive Fractions, one per block
        of the positive int block_dims, with determinant 1."""
        s = object.__new__(cls)
        object.__setattr__(s, "scalars", scalars)
        object.__setattr__(s, "block_dims", block_dims)
        return s

    def diagonal(self) -> tuple[Fraction, ...]:
        out = []
        for s, d in zip(self.scalars, self.block_dims):
            out.extend([s] * d)
        return tuple(out)

    def compose(self, other: "TorusElement") -> "TorusElement":
        if self.block_dims != other.block_dims:
            raise ValidationError("block_dims", "mismatched block structures")
        # a product of determinant-one elements on the same blocks
        return TorusElement._trusted(
            tuple(a * b for a, b in zip(self.scalars, other.scalars)), self.block_dims)


@dataclass(frozen=True)
class UnimodularLattice:
    """A point of SL_N(R)/SL_N(Z): columns of `basis` generate the lattice."""

    basis: rl.RatRows

    def __post_init__(self):
        n = len(self.basis)
        if n < 2 or any(len(r) != n for r in self.basis):
            raise ValidationError("basis", "must be square, N >= 2")
        object.__setattr__(self, "basis", rl.rat_matrix(self.basis))
        d = rl.rat_det(self.basis)
        if d not in (1, -1):
            raise NotUnimodular(f"|det| must be 1, got {d}")
        object.__setattr__(self, "_det_sign", 1 if d == 1 else -1)

    @classmethod
    def _trusted(cls, basis: rl.RatRows, det_sign: int) -> "UnimodularLattice":
        """Skip validation: basis must be a square Fraction matrix of
        determinant det_sign."""
        lat = object.__new__(cls)
        object.__setattr__(lat, "basis", basis)
        object.__setattr__(lat, "_det_sign", det_sign)
        return lat

    @property
    def n(self) -> int:
        return len(self.basis)

    @property
    def det_sign(self) -> int:
        return self._det_sign

    @cached_property
    def int_basis(self) -> tuple[rl.IntRows, int]:
        """(b·basis, b) with b the common denominator of the basis entries."""
        return rl.scale_to_int(self.basis)

    @cached_property
    def int_gram(self) -> tuple[rl.IntRows, int]:
        """(d·A, d) for the Gram A[i][j] = ⟨column i, column j⟩, with d its
        common denominator; ‖x·basisᵀ‖² = x·A·xᵀ for integer rows x.

        From integer products: A = b_intᵀ·b_int/b², reduced to lowest terms.
        """
        b_int, b = self.int_basis
        g = rl.mat_mul(rl.transpose(b_int), b_int)
        h = gcd(b * b, *(x for row in g for x in row))
        return tuple(tuple(x // h for x in row) for row in g), b * b // h

    def vector_norm_sq(self, int_row: Sequence[int]) -> Fraction:
        """‖x·basisᵀ‖² = x·A_int·xᵀ/d for the integer row x (`int_gram`)."""
        a, d = self.int_gram
        return Fraction(sum(x * sum(map(mul, row, int_row)) for x, row in zip(int_row, a)), d)


def make_lattice(basis_rows: Sequence[Sequence]) -> UnimodularLattice:
    return UnimodularLattice(basis=basis_rows)


def standard_lattice(n: int) -> UnimodularLattice:
    return UnimodularLattice(basis=rl.identity(n))


@dataclass(frozen=True)
class RationalSubspace:
    """Saturated HNF integer rows spanning Λ∩W in lattice coordinates; no
    rows for the zero subspace."""

    ambient: int
    rows: rl.IntRows

    def __post_init__(self):
        object.__setattr__(self, "ambient", rl.exact_int(self.ambient, "ambient"))
        object.__setattr__(self, "rows", rl.int_rows(self.rows, self.ambient))
        if rl.saturate(self.rows) != self.rows:
            raise ValidationError("rows", "not a saturated HNF basis")

    @classmethod
    def _trusted(cls, ambient: int, rows: rl.IntRows) -> "RationalSubspace":
        """Skip validation: rows must already be a saturated HNF basis."""
        sub = object.__new__(cls)
        object.__setattr__(sub, "ambient", ambient)
        object.__setattr__(sub, "rows", rows)
        return sub

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def is_full(self) -> bool:
        return self.dim == self.ambient

    def contains(self, other: "RationalSubspace") -> bool:
        """Whether other's rows all reduce to zero against self's echelon rows."""
        if other.ambient != self.ambient:
            raise ValidationError("ambient", "mismatched ambient dimensions")
        echelon = _echelon(self.rows)
        return not any(any(_reduce(echelon, r)) for r in other.rows)


def subspace_from_rows(ambient: int, rows: Sequence[Sequence[int]]) -> RationalSubspace:
    """Saturate and canonicalize integer spanning rows, checked by
    `rl.int_rows`; no nonzero row gives the zero subspace."""
    return RationalSubspace._trusted(ambient, rl.saturate(rl.int_rows(rows, ambient)))


def full_subspace(n: int) -> RationalSubspace:
    return RationalSubspace._trusted(n, rl.identity(n))


def check_dimensions(lat: UnimodularLattice, sc: Scenario | None = None, w=None) -> None:
    """Raise ValidationError unless sc and w, when given, have lat's dimension."""
    if sc is not None and sc.n != lat.n:
        raise ValidationError(
            "dimension", f"scenario is {sc.n}-dimensional, lattice is {lat.n}")
    if w is not None and w.ambient != lat.n:
        raise ValidationError(
            "ambient", f"subspace is {w.ambient}-dimensional, lattice is {lat.n}")


def covolume_sq(lat: UnimodularLattice, w: RationalSubspace) -> Fraction:
    """‖Λ_W‖²: Gram determinant of the real basis of Λ∩W; the zero subspace
    gives 1, the determinant of a 0×0 Gram."""
    check_dimensions(lat, w=w)
    a_int, d = lat.int_gram
    inner = rl.mat_mul(rl.mat_mul(w.rows, a_int), rl.transpose(w.rows))
    return Fraction(rl.bareiss([list(r) for r in inner], w.dim), d ** w.dim)


class _Frame:
    """The M-structure of one lattice under one scenario, shared along its
    torus orbit.

    gens is (ĝ_int, d) per generator g of M, with B⁻¹·g·B = ĝ_int/d exactly
    and d > 0 the lcm of the denominators of B⁻¹·g·B, from one fraction-free
    inverse of the integer basis and integer products; ĝ_int spans what ĝ
    spans. eigenvalues holds each ĝ's rational eigenvalues once the first
    eigen-line search of `enumeration` has found them (None before).
    closures memoizes `_m_closure` on its exact integer input rows; bases
    and eigenspaces hold, per stable subspace Z (its saturated rows), the
    basis completion (with its unit columns) and the eigen-line spaces of
    `enumeration`'s quotients. Each entry is a pure function of gens and its
    key, so it holds for every lattice that shares gens.

    block_sums holds Λ∩V_T per block sum V_T that `_block_sum` was asked
    for, keyed by T's bit mask, and adj the adjugate of the integer basis
    it builds them from (None without generators, where no block sum runs).
    """

    __slots__ = ("sc", "gens", "adj", "eigenvalues", "closures", "bases", "eigenspaces",
                 "block_sums")

    def __init__(self, lat: UnimodularLattice, sc: Scenario):
        check_dimensions(lat, sc)
        self.sc = sc
        self.eigenvalues = None
        self.closures: dict = {}
        self.bases: dict = {}
        self.eigenspaces: dict = {}
        self.block_sums: dict = {}
        if not sc.m_generators:
            self.gens, self.adj = (), None
            return
        # B = b_int/b, so B⁻¹ = b·adj/det and B⁻¹·g·B = adj·g_int·b_int/(det·e)
        b_int, _ = lat.int_basis
        self.adj, det = rl.int_inverse(b_int)
        out = []
        for g_int, e in sc.int_m_generators:
            p = rl.mat_mul(rl.mat_mul(self.adj, g_int), b_int)
            den = det * e
            h = gcd(den, *(x for row in p for x in row))
            h = h if den > 0 else -h
            out.append((tuple(tuple(x // h for x in row) for row in p), den // h))
        self.gens = tuple(out)


def _frame(lat: UnimodularLattice, sc: Scenario) -> _Frame:
    """The frame of lat under sc; held on the instance next to the last
    scenario it served, so a lookup compares the scenario by identity and
    hashes no Fraction."""
    held = lat.__dict__.get("_m_frame")
    if held is None or held.sc is not sc:
        held = _Frame(lat, sc)
        _hold_frame(lat, held)
    return held


def _hold_frame(lat: UnimodularLattice, frame: _Frame) -> None:
    """Give lat the frame and an empty quotient memo.

    The memo (`_quotients`) holds `enumeration`'s quotients Λ/Λ_Z of lat
    under the frame's scenario, keyed by Z's rows. A quotient's Gram is a
    property of lat, so the memo is never handed on, and a new frame (a
    scenario switch) empties it.
    """
    object.__setattr__(lat, "_m_frame", frame)
    object.__setattr__(lat, "_quotients", {})


def _block_sum(lat: UnimodularLattice, sc: Scenario, t: int) -> RationalSubspace:
    """Λ∩V_T for the block sum V_T of sc, T the bit mask t (bit β for block
    β), memoized in the frame.

    x·Bᵀ lies in V_T iff x is in the span of B⁻¹'s columns in T, so Λ∩V_T
    saturates the frame's adjugate columns in T; `rl.saturate` makes them
    primitive, so it mostly needs one HNF. A block-scalar s only rescales
    those columns, so these hold along the torus orbit, which pays only
    covolumes.
    """
    frame = _frame(lat, sc)
    held = frame.block_sums.get(t)
    if held is None:
        cols = [i for j, (lo, hi) in enumerate(sc.blocks) if t >> j & 1 for i in range(lo, hi)]
        held = frame.block_sums[t] = RationalSubspace._trusted(
            lat.n, rl.saturate([[row[i] for row in frame.adj] for i in cols]))
    return held


def _quotient_memo(lat: UnimodularLattice, sc: Scenario) -> dict:
    """lat's memo of quotients under sc (see `_hold_frame`)."""
    _frame(lat, sc)
    return lat.__dict__["_quotients"]


@lru_cache(maxsize=512)
def conjugated_generators(lat: UnimodularLattice, sc: Scenario) -> tuple[rl.RatRows, ...]:
    """Generators of M in lattice coordinates: B⁻¹·g·B per generator g."""
    return tuple(tuple(tuple(Fraction(x, d) for x in row) for row in g)
                 for g, d in _frame(lat, sc).gens)


def _reduce(echelon: list[tuple[int, tuple[int, ...]]], v: Sequence[int]) -> list[int]:
    """Residual of the integer row v against an echelon basis; zero iff v ∈ span.

    echelon holds (pivot, row) pairs in ascending pivot order, each row zero
    before its pivot. Eliminating pivot p with a row that vanishes left of p
    never refills an earlier pivot, so one ascending pass suffices. Only
    fraction-free row operations are used and the residual is kept primitive.
    """
    v = list(v)
    for p, row in echelon:
        if v[p]:
            g = gcd(row[p], v[p])
            a, b = row[p] // g, v[p] // g
            v = [a * x - b * y for x, y in zip(v, row)]
    g = gcd(*v)
    return [x // g for x in v] if g > 1 else v


def _echelon(rows: rl.IntRows) -> list[tuple[int, tuple[int, ...]]]:
    """The (pivot, row) pairs of nonzero rows already in HNF, for `_reduce`."""
    return [(next(j for j, x in enumerate(r) if x), r) for r in rows]


def _insert(echelon: list[tuple[int, tuple[int, ...]]], v: Sequence[int]) -> tuple[int, ...] | None:
    """Reduce v and add the residual to echelon; the new row, or None if v ∈ span."""
    v = _reduce(echelon, v)
    p = next((j for j, x in enumerate(v) if x), None)
    if p is None:
        return None
    row = tuple(v)
    insort(echelon, (p, row))
    return row


def _close(seeds, image, limit: int) -> list:
    """The echelon basis (`_insert`) of the span of seeds closed under image.

    Each seed is reduced into the basis, and every row that enlarges it
    goes on a worklist; image(x) yields the vectors a worklist row x
    contributes, reduced the same way. The span is closed once the worklist
    is empty (the images of a basis span the image of the span) or the rank
    reaches limit.
    """
    echelon: list = []
    work = [row for row in (_insert(echelon, r) for r in seeds) if row]
    while work and len(echelon) < limit:
        x = work.pop()
        for y in image(x):
            row = _insert(echelon, y)
            if row:
                work.append(row)
    return echelon


def is_m_stable(w: RationalSubspace, lat: UnimodularLattice, sc: Scenario) -> bool:
    """Whether every generator of M maps the real span of w into itself.

    The saturated HNF rows of w are an integer echelon basis, so w is stable
    iff every image ĝ·x of a row x reduces to zero against them.
    """
    check_dimensions(lat, w=w)
    echelon = _echelon(w.rows)
    for gen, _ in _frame(lat, sc).gens:
        # row coordinates transform by x ↦ x·ĝᵀ, i.e. entrywise rows of ĝ dot x
        for x in w.rows:
            if any(_reduce(echelon, rl.mat_vec(gen, x))):
                return False
    return True


def m_closure(lat: UnimodularLattice, sc: Scenario,
              rows: Sequence[Sequence[int]]) -> RationalSubspace:
    """Smallest M-stable Λ-rational subspace containing the span of rows.

    Incremental integer closure: the rows are reduced into an echelon basis
    of primitive integer rows, and every row that enlarges the basis goes on
    a worklist. Each worklist row x contributes the images ĝ·x under the
    integer-scaled generators, reduced the same way. The span is closed once
    the worklist is empty (the images of a basis span the image of the span)
    or the rank reaches N. The result is the saturated HNF of the basis,
    which is canonical for the span. Every call checks the rows
    (`rl.int_rows`), memoized or not.
    """
    _frame(lat, sc)  # refuses a scenario of another dimension before the rows
    return _m_closure(lat, sc, rl.int_rows(rows, lat.n))


def _m_closure(lat: UnimodularLattice, sc: Scenario, key: rl.IntRows):
    """`m_closure` of key, a tuple of int tuples of length N, unchecked.

    The closure depends only on the rows and the action, so the frame
    memoizes it on key; the search's hot path calls this, and a memo hit
    costs one lookup.
    """
    frame = _frame(lat, sc)
    held = frame.closures.get(key)
    if held is not None:
        return held
    gens = [g for g, _ in frame.gens]
    echelon = _close(key, lambda x: (rl.mat_vec(g, x) for g in gens), lat.n)
    out = frame.closures[key] = RationalSubspace._trusted(
        lat.n, rl.saturate([row for _, row in echelon]))
    return out


def apply_group(g: Sequence[Sequence], lat: UnimodularLattice) -> UnimodularLattice:
    """g·Λ; integer subspace coordinates are unchanged by transport.

    g need not commute with M, so g·Λ starts without a frame. Its det_sign
    is det g·det_sign(Λ).
    """
    gm = rl.rat_matrix(g)
    if len(gm) != lat.n or any(len(r) != lat.n for r in gm):
        raise ValidationError("g", f"must be {lat.n}x{lat.n}")
    d = rl.rat_det(gm)
    if d not in (1, -1):
        raise NotUnimodular(f"|det g| must be 1, got {d}")
    return UnimodularLattice._trusted(rl.mat_mul(gm, lat.basis), d.numerator * lat.det_sign)


def apply_torus(s: TorusElement, lat: UnimodularLattice) -> UnimodularLattice:
    """s·Λ, handed Λ's frame when s has the block dimensions of its scenario.

    Blocks are contiguous and ascending, so equal block dimensions mean s is
    scalar on each block of the scenario; `Scenario` checks that every
    generator is block-diagonal, so s commutes with M and the frame's
    action, closures and quotient data hold for sΛ unchanged. Any other s
    leaves sΛ to build its own frame.

    det s = 1 (`TorusElement` checks it, and its `_trusted` products hold it
    by construction), so det(sB) = det B and sΛ is built without
    recomputing a determinant.
    """
    diag = s.diagonal()
    if len(diag) != lat.n:
        raise ValidationError("scalars", "torus element dimension mismatch")
    new_basis = tuple(tuple(diag[i] * x for x in row) for i, row in enumerate(lat.basis))
    out = UnimodularLattice._trusted(new_basis, lat.det_sign)
    frame = lat.__dict__.get("_m_frame")
    if frame is not None and frame.sc.block_dims == s.block_dims:
        _hold_frame(out, frame)
    return out
