"""The public surface: `nondiv.__all__` lists exactly what `nondiv/__init__.py`
binds, once each, and every listed name resolves."""

import ast
import inspect
from pathlib import Path

import nondiv

INIT = Path(nondiv.__file__)


def bound_public_names() -> list[str]:
    """Names the package's `__init__.py` binds at top level by import or
    assignment, without the private and dunder ones."""
    names = []
    for node in ast.parse(INIT.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
    return [n for n in names if not n.startswith("_")]


def test_all_names_resolve_once_and_match_the_bindings():
    listed = nondiv.__all__
    assert len(listed) == len(set(listed)), "a name repeats in __all__"
    for name in listed:
        assert hasattr(nondiv, name), name
    assert sorted(listed) == sorted(bound_public_names())


def test_removed_names_stay_out():
    gone = {nondiv.pushout: ("NOT_NEEDED", "_NotNeeded"),
            nondiv.enumeration: ("eligible_subspaces", "shortest_vector_sq"),
            nondiv.lattice: ("subspace_sum", "subspace_intersect"),
            nondiv.Scenario: ("torus_rank",), nondiv.TorusElement: ("inverse",),
            nondiv.UnimodularLattice: ("gram",)}
    for owner, names in gone.items():
        for name in names:
            assert name not in nondiv.__all__ and not hasattr(owner, name), name
    assert list(inspect.signature(nondiv.lll_reduce_gram).parameters) == ["a"]
