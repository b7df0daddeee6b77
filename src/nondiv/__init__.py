"""Constructive non-divergence machinery on unimodular lattices.

Exact rational arithmetic throughout: restricted minimal covolume with
witnesses, expansion certificates for block-scalar torus elements,
protection chains, and the iterated push-out drive.
"""

from .errors import (BudgetExceeded, DegreeOutOfRange, DependentVectors,
                     GrowthContractViolated, IncompleteSearch,
                     InternalInvariantViolation, NondivError, NotBelowEta0,
                     NotUnimodular, OutputTooLarge, ProtectionFailed,
                     UnexpandableSubspace, ValidationError, WholeSpace)
from .exterior import PureWedge, apply_torus_to_wedge, contraction_constant, wedge_scaling_range
from .lattice import (RationalSubspace, Scenario, TorusElement,
                      UnimodularLattice, apply_group, apply_torus, covolume_sq,
                      m_closure, make_lattice, make_scenario,
                      standard_lattice, subspace_from_rows, trivial_scenario)
from .enumeration import (DeltaResult, delta_m, lll_reduce_gram, oracle_delta_m,
                          short_vectors, stable_subspaces_within)
from .pushout import (ExpansionCertificate, ProtectResult,
                      PushoutCertificate, PushoutConfig, PushoutStep,
                      Terminated, drive, dyadic_guard, expansion_element,
                      protect, pushout_step, select_index_set)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceeded", "DegreeOutOfRange", "DependentVectors",
    "GrowthContractViolated", "IncompleteSearch", "InternalInvariantViolation",
    "NondivError", "NotBelowEta0", "NotUnimodular", "OutputTooLarge",
    "ProtectionFailed",
    "UnexpandableSubspace", "ValidationError", "WholeSpace",
    "RationalSubspace", "Scenario", "TorusElement", "UnimodularLattice",
    "apply_group", "apply_torus", "contraction_constant", "covolume_sq",
    "m_closure", "make_lattice", "make_scenario", "standard_lattice",
    "subspace_from_rows", "trivial_scenario",
    "PureWedge", "apply_torus_to_wedge", "wedge_scaling_range",
    "DeltaResult", "delta_m", "lll_reduce_gram", "oracle_delta_m",
    "short_vectors", "stable_subspaces_within",
    "ExpansionCertificate", "ProtectResult",
    "PushoutCertificate", "PushoutConfig", "PushoutStep", "Terminated",
    "drive", "dyadic_guard", "expansion_element", "protect", "pushout_step",
    "select_index_set",
]
