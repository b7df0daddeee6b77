"""Pure wedges and the block-scalar torus action on exterior powers.

A torus element acts diagonally on ∧^k with eigenvalues equal to k-fold
products of coordinate scalars, so extreme scaling factors are products of
the k smallest / largest available scalars; the worst contraction over all
degrees is the product of the scalars below 1. Everything stays rational;
comparisons against concrete wedges are made in squared form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from . import ratlin as rl
from .errors import DegreeOutOfRange, ValidationError
from .lattice import TorusElement


@dataclass(frozen=True)
class PureWedge:
    """v₁∧…∧v_k carried by its spanning vectors; sq_norm is the Gram det."""

    spanning_vectors: rl.RatRows
    sq_norm: Fraction = field(init=False)

    def __post_init__(self):
        vecs = rl.rat_matrix(self.spanning_vectors)
        object.__setattr__(self, "spanning_vectors", vecs)
        object.__setattr__(self, "sq_norm", rl.gram_det(vecs))

    @property
    def degree(self) -> int:
        return len(self.spanning_vectors)


def apply_torus_to_wedge(s: TorusElement, v: PureWedge) -> PureWedge:
    """s·v; vectors of another dimension than s raise ValidationError."""
    diag = s.diagonal()
    if any(len(vec) != len(diag) for vec in v.spanning_vectors):
        raise ValidationError("spanning_vectors", f"vectors are {len(v.spanning_vectors[0])}"
                              f"-dimensional, torus element is {len(diag)}")
    scaled = tuple(tuple(d * x for d, x in zip(diag, vec)) for vec in v.spanning_vectors)
    return PureWedge(spanning_vectors=scaled)


def wedge_scaling_range(s: TorusElement, k: int) -> tuple[Fraction, Fraction]:
    """(min, max) factor by which s scales the norm of a degree-k pure wedge."""
    k = rl.exact_int(k, "k")
    diag = sorted(s.diagonal())
    n = len(diag)
    if not 1 <= k <= n:
        raise DegreeOutOfRange(f"degree {k} outside 1..{n}")
    lo = Fraction(1)
    hi = Fraction(1)
    for x in diag[:k]:
        lo *= x
    for x in diag[n - k:]:
        hi *= x
    return lo, hi


def contraction_constant(s: TorusElement) -> Fraction:
    """C₁(s): for every pure wedge v of any degree, ‖s·v‖ ≥ ‖v‖/C₁(s).

    The worst degree-k factor is the product of the k smallest scalars, and
    the smallest such prefix product is the product of the scalars below 1
    (det s = 1 keeps it ≤ 1), so C₁(s) = ∏_{x<1} 1/x, each block scalar x
    taken to its block dimension: one Fraction of two integer products.
    """
    num = den = 1
    for x, d in zip(s.scalars, s.block_dims):
        if x.numerator < x.denominator:
            num *= x.denominator ** d
            den *= x.numerator ** d
    return Fraction(num, den)
