import dataclasses
import math
import random
from fractions import Fraction

import pytest

from nondiv import ratlin as rl
from nondiv.errors import NotUnimodular, UnexpandableSubspace, ValidationError
from nondiv.lattice import (RationalSubspace, Scenario,
                            TorusElement, UnimodularLattice, _frame, _m_closure,
                            apply_group, apply_torus,
                            conjugated_generators, covolume_sq,
                            full_subspace,
                            is_m_stable, m_closure, make_lattice,
                            make_scenario, standard_lattice,
                            subspace_from_rows, trivial_scenario)
from nondiv.samples import (sl4_so21_scenario, sl4_torus, sl4_torus_lattice,
                            so21_generators_3d, diagonal_lattice)

from nondiv.enumeration import (DeltaResult, _Budget, _root_lt, _saturated_subspaces,
                                complete_to_basis, delta_m, stable_subspaces_within)
from nondiv.pushout import (PushoutConfig, drive, expansion_element, protect,
                            pushout_step, select_index_set)

from conftest import (force_chain_search, random_torus, random_unimodular_int,
                      random_unimodular_lattice, real_coordinate_subspace)
from reference import (fraction_det, gram, rat_rank, real_rows, span_contains,
                       subspace_intersect, subspace_sum, torus_inverse)
from test_eigenlines import UNIPOTENT, planted_scenario

F = Fraction


def sub(ambient, rows):
    return subspace_from_rows(ambient, rows)


def test_covolume_examples():
    z3 = standard_lattice(3)
    assert covolume_sq(z3, sub(3, [[1, 0, 0], [0, 1, 0]])) == 1
    lat = diagonal_lattice(2, F(1, 2), 1)
    assert covolume_sq(lat, sub(3, [[1, 0, 0]])) == 4
    assert covolume_sq(z3, sub(3, [[1, 1, 0], [0, 1, 1]])) == 3
    assert covolume_sq(z3, RationalSubspace(3, ())) == 1


def test_full_space_covolume_is_one(rng):
    for _ in range(40):
        n = rng.randint(2, 5)
        lat = random_unimodular_lattice(rng, n)
        assert covolume_sq(lat, full_subspace(n)) == 1


def test_subspace_sum_examples():
    assert subspace_sum(sub(3, [[1, 0, 0]]), sub(3, [[0, 1, 0]])).rows == ((1, 0, 0), (0, 1, 0))
    assert subspace_sum(sub(2, [[2, 0]]), sub(2, [[0, 2]])).rows == ((1, 0), (0, 1))
    s = subspace_sum(sub(3, [[1, 1, 0]]), sub(3, [[0, 1, 1]]))
    assert s.rows == ((1, 0, -1), (0, 1, 1))


def test_subspace_intersect_examples():
    a = sub(3, [[1, 0, 0], [0, 1, 0]])
    b = sub(3, [[0, 1, 0], [0, 0, 1]])
    assert subspace_intersect(a, b).rows == ((0, 1, 0),)
    assert subspace_intersect(sub(3, [[1, 0, 0]]), sub(3, [[0, 1, 0]])) == RationalSubspace(3, ())
    c = sub(3, [[1, 1, 0], [0, 1, 1]])
    d = sub(3, [[1, 0, 0], [0, 1, 0]])
    assert subspace_intersect(c, d).rows == ((1, 1, 0),)


def test_dim_formula(rng):
    for _ in range(200):
        n = rng.randint(2, 5)
        w1 = sub(n, [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(1, n))])
        w2 = sub(n, [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(1, n))])
        inter = subspace_intersect(w1, w2)
        total = subspace_sum(w1, w2)
        assert w1.dim + w2.dim == inter.dim + total.dim


def unsaturated_sum_covol_sq(lat, w1, w2):
    h, _ = rl.hnf(list(w1.rows) + list(w2.rows))
    real = real_rows(lat, h[:rl.hnf_rank(h)])
    return fraction_det(rl.mat_mul(real, rl.transpose(real)))


def test_submultiplicativity(rng):
    # ‖Λ_{W∩W'}‖²·‖Λ_W+Λ_{W'}‖² ≤ ‖Λ_W‖²·‖Λ_{W'}‖², plus saturation only shrinks
    for _ in range(300):
        n = rng.randint(2, 5)
        lat = random_unimodular_lattice(rng, n)
        w1 = sub(n, [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(1, n - 1))])
        w2 = sub(n, [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(1, n - 1))])
        inter = subspace_intersect(w1, w2)
        lhs = covolume_sq(lat, inter) * unsaturated_sum_covol_sq(lat, w1, w2)
        rhs = covolume_sq(lat, w1) * covolume_sq(lat, w2)
        assert lhs <= rhs
        assert covolume_sq(lat, subspace_sum(w1, w2)) <= unsaturated_sum_covol_sq(lat, w1, w2)


def test_is_m_stable():
    sc = sl4_so21_scenario()
    z4 = standard_lattice(4)
    assert is_m_stable(sub(4, [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]), z4, sc)
    assert is_m_stable(sub(4, [[1, 0, 0, 0]]), z4, sc)
    assert not is_m_stable(sub(4, [[0, 1, 0, 0]]), z4, sc)
    triv = trivial_scenario(3)
    z3 = standard_lattice(3)
    assert is_m_stable(sub(3, [[1, 2, 3]]), z3, triv)


def test_m_closure():
    sc = sl4_so21_scenario()
    z4 = standard_lattice(4)
    assert m_closure(z4, sc, [[0, 1, 0, 0]]).rows == ((0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    assert m_closure(z4, sc, [[1, 0, 0, 0]]).rows == ((1, 0, 0, 0),)
    assert m_closure(z4, sc, [[1, 1, 0, 0]]).is_full
    assert m_closure(z4, sc, [[0, 0, 0, 0]]) == RationalSubspace(4, ())


def reference_closure(lat, sc, rows):
    """Rank-recomputing Fraction fixed point: the closure as first written."""
    cur = [tuple(Fraction(x) for x in r) for r in rows if any(r)]
    if not cur:
        return RationalSubspace(lat.n, ())
    gens = conjugated_generators(lat, sc)
    rank = rat_rank(cur)
    changed = True
    while changed and rank < lat.n:
        changed = False
        for ghat in gens:
            for row in list(cur):
                y = rl.mat_vec(ghat, row)
                if not span_contains(cur, y):
                    cur.append(tuple(y))
                    rank = rat_rank(cur)
                    changed = True
    ints, _ = rl.scale_to_int(rl.rat_matrix(cur))
    return subspace_from_rows(lat.n, ints)


def closure_inputs(rng, n, count):
    """Row lists with zero rows, repeated and dependent rows, and up to n + 2 rows."""
    for _ in range(count):
        rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.randint(1, 2))]
        kind = rng.randrange(4)
        if kind == 1:
            rows.append([0] * n)
        elif kind == 2:
            a, b = rng.randint(-2, 2), rng.randint(-2, 2)
            rows.append([a * x + b * y for x, y in zip(rows[0], rows[-1])])
            rows.append(list(rows[0]))
        elif kind == 3:
            rows += [[rng.randint(-1, 1) for _ in range(n)] for _ in range(n + 2 - len(rows))]
        rng.shuffle(rows)
        yield rows


def assert_closures_agree(lat, sc, rows):
    got = m_closure(lat, sc, rows)
    want = reference_closure(lat, sc, rows)
    assert getattr(got, "rows", got) == getattr(want, "rows", want), rows


def test_m_closure_matches_reference_sl4(rng):
    sc = sl4_so21_scenario()
    for t in (F(1, 4), F(1, 2), F(2), F(4), F(16)):
        base = sl4_torus_lattice(t)
        for _ in range(3):
            u = random_unimodular_int(rng, 4, shears=4, c=1)
            lat = make_lattice(rl.mat_mul(base.basis, u))
            for rows in closure_inputs(rng, 4, 12):
                assert_closures_agree(lat, sc, rows)


def test_m_closure_matches_reference_trivial(rng):
    for n in (2, 3, 5):
        sc = trivial_scenario(n)
        for _ in range(4):
            lat = random_unimodular_lattice(rng, n)
            for rows in closure_inputs(rng, n, 10):
                assert_closures_agree(lat, sc, rows)


def test_m_closure_edge_inputs():
    sc = sl4_so21_scenario()
    z4 = standard_lattice(4)
    cases = [
        [],
        [[0, 0, 0, 0], [0, 0, 0, 0]],
        [[0, 2, 0, 0], [0, -4, 0, 0], [0, 0, 0, 0]],
        [[3, 0, 0, 0], [6, 0, 0, 0]],
        [[1, 0, 0, 0], [0, 1, 0, 0], [1, 1, 0, 0], [2, -1, 0, 0], [0, 0, 0, 0], [5, 5, 0, 0]],
    ]
    for rows in cases:
        assert_closures_agree(z4, sc, rows)
    assert m_closure(z4, sc, cases[2]).rows == ((0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    assert m_closure(z4, sc, cases[4]).is_full


@pytest.mark.parametrize("entry, message", [(F(1, 2), "integer"), (1.0, "float"),
                                            ("1", "str"), (True, "bool")])
def test_m_closure_rejects_inexact_rows(entry, message):
    """A row entry that is not an integer raises ValidationError("rows"), and
    the bad key never enters the frame's closure memo."""
    for sc in (sl4_so21_scenario(), trivial_scenario(4)):
        lat = standard_lattice(4)
        with pytest.raises(ValidationError) as err:
            m_closure(lat, sc, [[0, entry, 0, 0]])
        assert err.value.field == "rows" and message in str(err.value)
        assert _frame(lat, sc).closures == {}
    # an integral Fraction is an integer
    assert m_closure(standard_lattice(4), sl4_so21_scenario(), [[F(2), 0, 0, 0]]).rows == \
        ((1, 0, 0, 0),)


@pytest.mark.parametrize("entry", [True, 1.0])
def test_m_closure_checks_rows_on_memo_hits(entry):
    """Every call checks its entries: a bool or float row is refused whether
    or not the closure of the equal integer row is held, and the search's
    unchecked `_m_closure` serves that held closure."""
    sc = trivial_scenario(4)
    for closed_first in (False, True):
        lat = standard_lattice(4)
        if closed_first:
            line = m_closure(lat, sc, [[1, 0, 0, 0]])
            assert _m_closure(lat, sc, ((1, 0, 0, 0),)) is line
        with pytest.raises(ValidationError) as err:
            m_closure(lat, sc, [[entry, 0, 0, 0]])
        assert err.value.field == "rows"
        assert m_closure(lat, sc, [[1, 0, 0, 0]]).rows == ((1, 0, 0, 0),)
        assert list(_frame(lat, sc).closures) == [((1, 0, 0, 0),)]


def test_stable_family_non_semisimple():
    # a unipotent generator: a vector inside a larger closure can have a strictly
    # smaller closure of its own, so no enumerated vector may be skipped on the
    # grounds that an earlier closure already contains it
    sc = UNIPOTENT
    rng = random.Random(5)
    cap = F(2)
    for _ in range(12):
        lat = random_unimodular_lattice(rng, 3, shears=3, dyadic_range=2)
        family, complete = stable_subspaces_within(lat, sc, cap)
        assert complete
        # every saturated W under the cap, whatever its entries
        want = {sub.rows for k in (1, 2)
                for sub, _ in _saturated_subspaces(lat, k, cap, _Budget())
                if is_m_stable(sub, lat, sc)}
        assert {w.rows for w in family} == want


def test_memoized_closures_equal_fresh_ones():
    # the searches of Λ and of a torus move sΛ fill one shared closure memo;
    # each entry must be the closure a frameless copy computes afresh
    rng = random.Random(5)
    for _ in range(8):
        lat = random_unimodular_lattice(rng, 3, shears=3, dyadic_range=2)
        stable_subspaces_within(lat, UNIPOTENT, F(2))
        moved = apply_torus(random_torus(rng, UNIPOTENT.block_dims), lat)
        stable_subspaces_within(moved, UNIPOTENT, F(2))
        memo = _frame(moved, UNIPOTENT).closures
        assert memo and memo is _frame(lat, UNIPOTENT).closures
        for rows, closure in memo.items():
            assert m_closure(moved, UNIPOTENT, rows) is closure
            assert m_closure(make_lattice(moved.basis), UNIPOTENT, rows) == closure


def test_is_m_stable_matches_span_test(rng):
    sc = sl4_so21_scenario()
    for _ in range(20):
        lat = make_lattice(rl.mat_mul(sl4_torus_lattice(F(2)).basis,
                                      random_unimodular_int(rng, 4, shears=4, c=1)))
        gens = conjugated_generators(lat, sc)
        for rows in closure_inputs(rng, 4, 6):
            w = subspace_from_rows(4, rows)
            want = all(span_contains(w.rows, rl.mat_vec(g, x)) for g in gens for x in w.rows)
            assert is_m_stable(w, lat, sc) == want
            assert is_m_stable(m_closure(lat, sc, rows), lat, sc)


def test_so21_generators_preserve_form():
    j = ((1, 0, 0), (0, 1, 0), (0, 0, -1))
    for g in so21_generators_3d():
        gt = rl.transpose(g)
        assert rl.mat_mul(rl.mat_mul(gt, j), g) == rl.rat_matrix(j)
        assert rl.rat_det(g) == 1


def test_apply_group():
    z2 = standard_lattice(2)
    assert apply_group(rl.identity(2), z2) == z2
    lat = apply_group([[2, 0], [0, F(1, 2)]], z2)
    assert lat.basis == ((F(2), F(0)), (F(0), F(1, 2)))
    with pytest.raises(NotUnimodular):
        apply_group([[2, 0], [0, 1]], z2)
    with pytest.raises(NotUnimodular):
        UnimodularLattice(basis=[[2, 0], [0, 1]])
    with pytest.raises(ValidationError) as err:
        apply_group([[1, 0], [0]], z2)
    assert (err.value.field, err.value.message) == ("rows[1]", "ragged matrix")


def test_apply_torus_refuses_another_dimension():
    s = TorusElement((F(2), F(1, 2)), (1, 1))
    with pytest.raises(ValidationError) as err:
        apply_torus(s, standard_lattice(3))
    assert (err.value.field, err.value.message) == ("scalars", "torus element dimension mismatch")


def fresh_action(lat, sc):
    """The generator action on a frameless lattice with lat's basis."""
    return _frame(make_lattice(lat.basis), sc).gens


def test_torus_hands_the_frame_on(rng):
    scenarios = [sl4_so21_scenario()] + [
        planted_scenario(random.Random(89 + i), jordan=i % 2 == 1) for i in range(4)]
    for sc in scenarios:
        for _ in range(3):
            lat = random_unimodular_lattice(rng, 4)
            action = _frame(lat, sc).gens
            moved = lat
            for _ in range(2):
                moved = apply_torus(random_torus(rng, sc.block_dims), moved)
                assert _frame(moved, sc).gens is action
                assert fresh_action(moved, sc) == action


def test_torus_off_the_scenario_blocks_builds_its_own_frame(rng):
    # unit blocks on the SO(2,1) block [1, 4): s need not commute with M
    sc = sl4_so21_scenario()
    unit = TorusElement((F(1, 2), F(2), F(1), F(1)), (1, 1, 1, 1))
    changed = 0
    for s in [unit] + [random_torus(rng, (1, 1, 1, 1)) for _ in range(5)]:
        lat = random_unimodular_lattice(rng, 4)
        action = _frame(lat, sc).gens
        moved = apply_torus(s, lat)
        got = _frame(moved, sc).gens
        assert got is not action
        assert got == fresh_action(moved, sc)
        changed += got != action
    assert changed  # the unmoved action would have been wrong


def test_apply_group_builds_its_own_frame():
    sc = sl4_so21_scenario()
    lat = sl4_torus_lattice(F(2))
    action = _frame(lat, sc).gens
    for g in (rl.identity(4), sc.m_generators[0],
              [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [F(1, 2), 0, 0, 1]]):
        moved = apply_group(g, lat)
        got = _frame(moved, sc).gens
        assert got is not action
        assert got == fresh_action(moved, sc)


def test_alternating_scenarios_get_their_own_action(rng):
    lat = random_unimodular_lattice(rng, 4)
    scenarios = (sl4_so21_scenario(), planted_scenario(random.Random(90), jordan=True),
                 trivial_scenario(4))
    rows = [(1, 1, 0, 0)]
    want = [(fresh_action(lat, sc), m_closure(make_lattice(lat.basis), sc, rows))
            for sc in scenarios]
    assert len({action for action, _ in want}) == 3
    for _ in range(2):
        for sc, (action, closure) in zip(scenarios, want):
            assert _frame(lat, sc).gens == action
            assert m_closure(lat, sc, rows) == closure


L3 = make_lattice([[2, 0, 0], [0, 1, 0], [0, 0, F(1, 2)]])
SHEAR3 = make_scenario(3, [[0, 3]], [[[1, 1, 0], [0, 1, 0], [0, 0, 1]]])


@pytest.mark.parametrize("call, field, message", [
    (lambda: delta_m(sl4_torus_lattice(F(1, 4)), SHEAR3),
     "dimension", "scenario is 3-dimensional, lattice is 4"),
    (lambda: delta_m(L3, sl4_so21_scenario()),
     "dimension", "scenario is 4-dimensional, lattice is 3"),
    (lambda: covolume_sq(L3, sub(4, [(1, 0, 0, 1)])),
     "ambient", "subspace is 4-dimensional, lattice is 3"),
    (lambda: sub(3, [(1, 0, 0)]).contains(sub(4, [(1, 0, 0, 0)])),
     "ambient", "mismatched ambient dimensions"),
    (lambda: m_closure(L3, trivial_scenario(3), [(1, 0, 0, 5)]),
     "rows", "row length must equal the dimension 3"),
    (lambda: drive(L3, trivial_scenario(4), PushoutConfig()),
     "dimension", "scenario is 4-dimensional, lattice is 3"),
    (lambda: expansion_element(sl4_torus_lattice(F(1, 4)), sub(4, [(1, 0, 0, 0)]),
                               make_scenario(3, [[0, 1], [1, 3]], []), PushoutConfig()),
     "dimension", "scenario is 3-dimensional, lattice is 4"),
    (lambda: expansion_element(standard_lattice(3), sub(2, [(1, 0)]), trivial_scenario(3),
                               PushoutConfig()),
     "ambient", "subspace is 2-dimensional, lattice is 3"),
    (lambda: expansion_element(standard_lattice(4), full_subspace(3), trivial_scenario(4),
                               PushoutConfig()),
     "ambient", "subspace is 3-dimensional, lattice is 4"),
    (lambda: expansion_element(standard_lattice(4), RationalSubspace(3, ()),
                               trivial_scenario(4), PushoutConfig()),
     "ambient", "subspace is 3-dimensional, lattice is 4"),
    (lambda: select_index_set(standard_lattice(3), sub(3, [(1, 0, 0)]), trivial_scenario(2)),
     "dimension", "scenario is 2-dimensional, lattice is 3"),
    (lambda: select_index_set(standard_lattice(3), sub(2, [(1, 0)]), trivial_scenario(3)),
     "ambient", "subspace is 2-dimensional, lattice is 3"),
    (lambda: select_index_set(standard_lattice(3), sub(3, [(1, 0, 0)]), trivial_scenario(4)),
     "dimension", "scenario is 4-dimensional, lattice is 3"),
    (lambda: is_m_stable(sub(5, [(1, 0, 0, 0, 0)]), sl4_torus_lattice(F(1, 4)),
                         sl4_so21_scenario()),
     "ambient", "subspace is 5-dimensional, lattice is 4"),
    (lambda: pushout_step(sl4_torus_lattice(F(1, 4)), sl4_so21_scenario(), PushoutConfig(),
                          delta_before=delta_m(standard_lattice(2), trivial_scenario(2))),
     "ambient", "subspace is 2-dimensional, lattice is 4"),
    (lambda: protect(sl4_torus_lattice(F(1, 4)), sl4_so21_scenario(), PushoutConfig(), 2,
                     delta=delta_m(standard_lattice(2), trivial_scenario(2))),
     "ambient", "subspace is 2-dimensional, lattice is 4"),
    (lambda: apply_group([[1, 0, 0], [0, 1, 0]], standard_lattice(2)), "g", "must be 2x2"),
    (lambda: apply_group(rl.identity(3), standard_lattice(2)), "g", "must be 2x2"),
], ids=["delta-scenario", "delta-lattice", "covolume", "contains", "closure",
        "drive", "expansion", "expansion-subspace", "expansion-whole-subspace",
        "expansion-zero-subspace", "index-set-scenario",
        "index-set-subspace", "index-set-scenario-4", "m-stable", "step-delta",
        "protect-delta", "group-2x3", "group-3x3"])
def test_dimension_mismatch_is_rejected(call, field, message):
    with pytest.raises(ValidationError) as err:
        call()
    assert (err.value.field, err.value.message) == (field, message)


def test_vector_norm_sq_is_the_real_norm(rng):
    for n in (2, 3, 5):
        for _ in range(6):
            lat = random_unimodular_lattice(rng, n, dyadic_range=3)
            rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(4)]
            for x, real in zip(rows, real_rows(lat, rows)):
                norm = lat.vector_norm_sq(x)
                assert type(norm) is F and norm == sum(y * y for y in real)


def test_values_built_from_lists_equal_frozen_ones():
    sc = Scenario(n=2, blocks=[[0, 2]], m_generators=([[1, 1], [0, 1]],))
    ref_sc = make_scenario(2, ((0, 2),), (((F(1), F(1)), (F(0), F(1))),))
    assert sc == ref_sc and hash(sc) == hash(ref_sc)
    assert delta_m(standard_lattice(2), sc) == delta_m(standard_lattice(2), ref_sc)
    lat = UnimodularLattice(basis=[[2, 1], [1, 1]])
    ref_lat = make_lattice(((F(2), F(1)), (F(1), F(1))))
    assert lat == ref_lat and hash(lat) == hash(ref_lat)
    assert all(type(x) is F for row in lat.basis for x in row)
    s = TorusElement([4, F(1, 2), F(1, 2)], [1, 1, 1])
    ref_s = TorusElement((F(4), F(1, 2), F(1, 2)), (1, 1, 1))
    assert s == ref_s and hash(s) == hash(ref_s)
    assert all(type(x) is F for x in s.scalars)
    z3 = standard_lattice(3)
    assert z3 == make_lattice([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert apply_torus(s, z3) == apply_torus(ref_s, z3)
    w = RationalSubspace(ambient=2, rows=[[1, 0]])
    assert w == subspace_from_rows(2, [(1, 0)]) and hash(w) == hash(subspace_from_rows(2, [(1, 0)]))
    assert make_lattice([["1/2", " 0 "], [0, 2]]) == make_lattice([[F(1, 2), 0], [0, 2]])


@pytest.mark.parametrize("call, field, message", [
    (lambda: UnimodularLattice(basis=[[1, 0.5], [0, 1]]),
     "rows[0][1]", "float entry rejected, use Fraction"),
    (lambda: make_lattice([[1, 0.5], [0, 1]]), "rows[0][1]", "float entry rejected, use Fraction"),
    (lambda: UnimodularLattice(basis=[[1, 0], [0]]), "basis", "must be square, N >= 2"),
    (lambda: make_lattice([[1, 0, 0], [0, 1, 0]]), "basis", "must be square, N >= 2"),
    (lambda: standard_lattice(1), "basis", "must be square, N >= 2"),
    (lambda: Scenario(n=2, blocks=[[0, 2]], m_generators=([[1, 0.5], [0, 1]],)),
     "rows[0][1]", "float entry rejected, use Fraction"),
    (lambda: Scenario(n=2, blocks=[[0, 2]], m_generators=([[1, 0], [0]],)),
     "m_generators[0]", "must be 2x2"),
    (lambda: make_scenario(2, [[0, 2]], [[[1, 0, 0], [0, 1, 0]]]),
     "m_generators[0]", "must be 2x2"),
    (lambda: Scenario(n=2, blocks=[[0, 2]], m_generators=([[2, 0], [0, 1]],)),
     "m_generators[0]", "determinant must be 1"),
    (lambda: TorusElement((2, 0.5), (1, 1)), "scalars", "expected an int or Fraction, got float"),
    (lambda: TorusElement((F(2), F(1, 4)), (1, 1)), "scalars", "determinant 1/2 != 1"),
    (lambda: TorusElement([F(2), F(1, 2)], [2, 1]), "scalars", "determinant 2 != 1"),
    (lambda: TorusElement((F(2), F(-1, 2)), (1, 1)), "scalars", "must be positive, got -1/2"),
    (lambda: TorusElement([F(1)], [1, 1]), "scalars", "one scalar per block required"),
    (lambda: TorusElement((F(1, 2), F(2)), (-1, 1)), "block_dims", "must be positive ints, got -1"),
    (lambda: TorusElement((F(2), F(2)), (-1, 1)), "block_dims", "must be positive ints, got -1"),
    (lambda: TorusElement((F(1), F(1)), (1.5, 1)), "block_dims", "must be positive ints, got 1.5"),
    # the same text rule as lattice files: exponents never reach Fraction
    (lambda: make_lattice([["1e3", 0], [0, "1e-3"]]),
     "rows[0][0]", "exponent notation is not accepted, got '1e3'"),
    (lambda: make_lattice([[1, "x"], [0, 1]]), "rows[0][1]", "expected a rational like 'p/q', got 'x'"),
    # well formed, but over the interpreter's int max str digits
    (lambda: make_lattice([["1" * 5001, 0], [0, 1]]),
     "rows[0][0]", "number over the 4300-digit limit, got '" + "1" * 36 + "..."),
    (lambda: make_lattice([[1, "0." + "3" * 5001], [0, 1]]),
     "rows[0][1]", "number over the 4300-digit limit, got '0." + "3" * 34 + "..."),
    (lambda: make_scenario(2, [[0, 1.9], [1.9, 2]], []),
     "blocks[0]", "expected an int or Fraction, got float"),
    (lambda: Scenario(n=2, blocks=[[0, True], [True, 2]], m_generators=()),
     "blocks[0]", "expected an int or Fraction, got bool"),
    (lambda: RationalSubspace(ambient=2, rows=[[1, 0.5]]), "rows", "expected an int or Fraction, got float"),
    # shapes are checked before they are unpacked
    (lambda: Scenario(n=2, blocks=5, m_generators=()), "blocks", "must be a list or tuple, got int"),
    (lambda: Scenario(n=2, blocks=[5], m_generators=()),
     "blocks[0]", "must be a list or tuple, got int"),
    (lambda: Scenario(n=2, blocks=[[0]], m_generators=()),
     "blocks[0]", "must be a [start, stop) pair"),
    (lambda: Scenario(n=2, blocks=[[0, 2], [0, 1, 2]], m_generators=()),
     "blocks[1]", "must be a [start, stop) pair"),
    (lambda: Scenario(n=2, blocks=[[0, 2]], m_generators=5),
     "m_generators", "must be a list or tuple, got int"),
    (lambda: Scenario(n=2, blocks=[[0, 2]], m_generators=(5,)),
     "m_generators[0]", "must be a list or tuple, got int"),
    (lambda: Scenario(n=2, blocks=[[0, 2]], m_generators=(rl.identity(2), [5, 5])),
     "m_generators[1]", "must be a list or tuple, got int"),
    (lambda: TorusElement(5, (1,)), "scalars", "must be a list or tuple, got int"),
    (lambda: TorusElement((1,), 1), "block_dims", "must be a list or tuple, got int"),
    # matrix entries other than int, Fraction and str, bool included
    (lambda: UnimodularLattice(basis=[[True, False], [False, True]]),
     "rows[0][0]", "expected an int, Fraction or str, got bool"),
    (lambda: make_lattice([[None, 0], [0, 1]]),
     "rows[0][0]", "expected an int, Fraction or str, got NoneType"),
    (lambda: make_lattice([[1, [0]], [0, 1]]),
     "rows[0][1]", "expected an int, Fraction or str, got list"),
    (lambda: make_lattice([[1, 0], [1j, 1]]),
     "rows[1][0]", "expected an int, Fraction or str, got complex"),
    (lambda: Scenario(n=2, blocks=[[0, 2]], m_generators=([[True, True], [False, True]],)),
     "rows[0][0]", "expected an int, Fraction or str, got bool"),
    (lambda: apply_group([[1, 0], [True, 1]], standard_lattice(2)),
     "rows[1][0]", "expected an int, Fraction or str, got bool"),
    (lambda: apply_group([[1, None], [0, 1]], standard_lattice(2)),
     "rows[0][1]", "expected an int, Fraction or str, got NoneType"),
    (lambda: Scenario(n=1, blocks=[[0, 1]], m_generators=()), "dimension", "must be >= 2, got 1"),
    (lambda: Scenario(n=2, blocks=[[0, 3]], m_generators=()),
     "blocks[0]", "range end 3 exceeds dimension 2"),
], ids=["lattice-float", "make-lattice-float", "lattice-ragged", "lattice-non-square",
        "lattice-n1", "scenario-float", "scenario-ragged", "scenario-non-square",
        "scenario-det", "torus-float", "torus-det", "torus-det-dims", "torus-negative",
        "torus-count", "torus-negative-dim", "torus-negative-dim-det-1", "torus-float-dim",
        "lattice-exponent", "lattice-text", "lattice-digits", "lattice-decimal-digits",
        "blocks-float", "blocks-bool", "subspace-float", "blocks-shape", "block-shape",
        "block-short", "block-long", "generators-shape", "generator-shape",
        "generator-row-shape", "scalars-shape", "block-dims-shape",
        "lattice-bool", "lattice-none", "lattice-list", "lattice-complex",
        "scenario-bool", "group-bool", "group-none", "scenario-n1", "block-past-end"])
def test_boundary_rejects_bad_values(call, field, message):
    with pytest.raises(ValidationError) as err:
        call()
    assert (err.value.field, err.value.message) == (field, message)


@pytest.mark.parametrize("value, message", [
    ("4", "expected an int or Fraction, got str"),
    (4.0, "expected an int or Fraction, got float"),
    (True, "expected an int or Fraction, got bool"),
    (F(9, 2), "expected an integer, got 9/2"),
], ids=["str", "float", "bool", "fraction"])
@pytest.mark.parametrize("build, field, attr", [
    (lambda v: Scenario(n=v, blocks=((0, 1), (1, 4)), m_generators=()), "dimension", "n"),
    (lambda v: RationalSubspace(ambient=v, rows=((1, 0, 0, 0),)), "ambient", "ambient"),
], ids=["scenario", "subspace"])
def test_dimension_and_ambient_are_exact_ints(build, field, attr, value, message):
    """Scenario.n and RationalSubspace.ambient are frozen as ints, as
    TorusElement's block_dims are: F(4) becomes 4, anything else inexact is
    refused with a typed error instead of failing later."""
    with pytest.raises(ValidationError) as err:
        build(value)
    assert (err.value.field, err.value.message) == (field, message)
    exact = build(F(4))
    assert type(getattr(exact, attr)) is int and exact == build(4)
    if attr == "n":
        assert delta_m(standard_lattice(4), exact) == delta_m(standard_lattice(4), build(4))


def test_group_lattice_equals_validated_one(rng):
    # apply_group skips the second determinant; det g·det B gives det_sign
    seen = set()
    for _ in range(40):
        n = rng.choice([2, 3, 4])
        lat = random_unimodular_lattice(rng, n)
        if rng.random() < 0.5:
            lat = make_lattice([[-x for x in lat.basis[0]]] + list(lat.basis[1:]))
        g = [list(r) for r in random_unimodular_int(rng, n)]
        if rng.random() < 0.5:
            g[0] = [-x for x in g[0]]
        if rng.random() < 0.5:
            g[0], g[1] = [2 * x for x in g[0]], [F(x, 2) for x in g[1]]
        moved = apply_group(g, lat)
        ref = make_lattice(rl.mat_mul(g, lat.basis))
        assert (moved.basis, moved.det_sign, moved.int_gram) == \
            (ref.basis, ref.det_sign, ref.int_gram)
        assert moved == ref
        seen.add((rl.rat_det(g), lat.det_sign))
    assert seen == {(1, 1), (1, -1), (-1, 1), (-1, -1)}


def test_torus_round_trip(rng):
    for _ in range(30):
        dims = rng.choice([(1, 1), (1, 2), (1, 3), (1, 1, 1)])
        n = sum(dims)
        s = random_torus(rng, dims)
        lat = random_unimodular_lattice(rng, n)
        back = apply_torus(torus_inverse(s), apply_torus(s, lat))
        assert back == lat


def test_torus_lattice_equals_validated_one(rng):
    # apply_torus skips the determinant; det s = 1 keeps det_sign
    seen = set()
    for _ in range(40):
        dims = rng.choice([(1, 1), (1, 2), (2, 2), (1, 3), (1, 1, 1), (1, 1, 1, 1)])
        n = sum(dims)
        lat = random_unimodular_lattice(rng, n)
        if rng.random() < 0.5:
            lat = make_lattice([[-x for x in lat.basis[0]]] + list(lat.basis[1:]))
        s = random_torus(rng, dims)
        moved = apply_torus(s, lat)
        diag = s.diagonal()
        ref = make_lattice([[diag[i] * x for x in row] for i, row in enumerate(lat.basis)])
        assert (moved.basis, moved.det_sign, moved.int_gram) == \
            (ref.basis, ref.det_sign, ref.int_gram)
        assert moved == ref
        seen.add(moved.det_sign)
    assert seen == {1, -1}


def test_torus_equivariance_on_block_subspaces(rng):
    # for W inside real coordinate blocks, covol² scales by ∏ s_i^{2·dim(W∩V_i)};
    # the transported subspace keeps its integer coordinates
    for _ in range(60):
        dims = rng.choice([(1, 1), (1, 2), (1, 3), (1, 1, 2)])
        n = sum(dims)
        s = random_torus(rng, dims)
        lat = random_unimodular_lattice(rng, n)
        diag = s.diagonal()
        chosen = [c for c in range(n) if rng.random() < 0.6]
        if not chosen or len(chosen) == n:
            continue
        w = real_coordinate_subspace(lat, chosen)
        factor = F(1)
        for c in chosen:
            factor *= diag[c] ** 2
        assert covolume_sq(apply_torus(s, lat), w) == factor * covolume_sq(lat, w)


def test_m_invariance_of_covolume_on_stable_subspaces():
    sc = sl4_so21_scenario()
    rng = random.Random(97)
    gens = list(sc.m_generators)
    words = [g for g in gens]
    for _ in range(10):
        a, b = rng.choice(gens), rng.choice(words)
        words.append(rl.rat_matrix(rl.mat_mul(a, b)))
    checked = 0
    for _ in range(20):
        lat = random_unimodular_lattice(rng, 4)
        m = rng.choice(words)
        mlat = apply_group(m, lat)
        for coords in ([0], [1, 2, 3]):
            w = real_coordinate_subspace(lat, coords)
            assert is_m_stable(w, lat, sc)
            # the restriction of m to W has |det| = 1
            rows = real_rows(lat, w.rows)
            img = rl.mat_mul(rows, rl.transpose(m))
            assert rl.gram_det(img) == rl.gram_det(rows)
            assert covolume_sq(mlat, w) == covolume_sq(lat, w)
            checked += 1
    assert checked == 40


def test_torus_validation():
    with pytest.raises(ValidationError):
        TorusElement((F(2), F(2)), (1, 1))
    with pytest.raises(ValidationError):
        TorusElement((F(-1), F(-1)), (1, 1))
    s = TorusElement((F(8), F(1, 2)), (1, 3))
    assert s.diagonal() == (F(8), F(1, 2), F(1, 2), F(1, 2))
    assert s.compose(torus_inverse(s)).diagonal() == (F(1),) * 4
    assert sl4_torus(F(1, 2)).diagonal() == (F(1, 8), F(2), F(2), F(2))
    assert sl4_torus_lattice(F(1, 2)).basis[0][0] == F(1, 8)


def test_scenario_validation():
    with pytest.raises(ValidationError):
        Scenario(n=3, blocks=((0, 2), (1, 3)), m_generators=())
    with pytest.raises(ValidationError):
        Scenario(n=3, blocks=((0, 2),), m_generators=())
    with pytest.raises(ValidationError):
        # non-block-diagonal generator
        Scenario(n=2, blocks=((0, 1), (1, 2)),
                 m_generators=(rl.rat_matrix([[1, 1], [0, 1]]),))
    with pytest.raises(ValidationError):
        # determinant 2 inside a block
        Scenario(n=2, blocks=((0, 2),),
                 m_generators=(rl.rat_matrix([[2, 0], [0, 1]]),))
    sc = sl4_so21_scenario()
    assert sc.block_dims == (1, 3)
    assert sc.isomorphy_warnings() == []
    triv = trivial_scenario(2)
    assert len(triv.isomorphy_warnings()) == 1  # equal 1-dim blocks, M trivial


def test_subspace_validation():
    with pytest.raises(ValidationError):
        RationalSubspace(ambient=2, rows=((2, 0),))  # not saturated
    w = sub(3, [[2, 4, 0]])
    assert w.rows == ((1, 2, 0),)
    assert full_subspace(2).is_full
    # the zero subspace is an ordinary value, however it is built
    assert sub(2, [[0, 0]]) == sub(2, []) == RationalSubspace(ambient=2, rows=())
    assert sub(2, []).dim == 0 and not sub(2, []).is_full


@pytest.mark.parametrize("lattice, scenario, rows, chain", [
    (lambda: sl4_torus_lattice(F(1, 4)), sl4_so21_scenario, [[1, 0, 0, 0]], False),
    (lambda: sl4_torus_lattice(F(1, 4)), sl4_so21_scenario, [[1, 0, 0, 0]], True),
    (lambda: make_lattice([[2, 1, 0], [0, 1, 0], [0, 0, F(1, 2)]]), lambda: UNIPOTENT,
     [[1, 0, 0], [0, 1, 0]], True),
    (lambda: make_lattice([[2, 1, 0], [0, 1, 0], [0, 0, F(1, 2)]]),
     lambda: trivial_scenario(3), [[0, 1, 1]], True),
], ids=["block-sums", "sl4-chain", "unipotent-chain", "trivial-chain"])
def test_zero_subspace_is_an_ordinary_subspace(monkeypatch, lattice, scenario, rows, chain):
    """{0} = RationalSubspace(n, ()) goes through every subspace entry point
    on its general path; only an expansion, or a delta whose witness it
    would be, refuses it, with a typed error."""
    if chain:
        force_chain_search(monkeypatch)
    lat, sc = lattice(), scenario()
    assert sc.full_block_algebra != chain
    n = lat.n
    z, w = sub(n, []), sub(n, rows)
    assert z == RationalSubspace(n, ()) and z.dim == 0
    assert subspace_sum(z, w) == subspace_sum(w, z) == w
    assert subspace_sum(z, z) == subspace_intersect(z, z) == z
    assert subspace_intersect(z, w) == subspace_intersect(w, z) == z
    assert w.contains(z) and z.contains(z) and not z.contains(w)
    assert covolume_sq(lat, z) == 1 and is_m_stable(z, lat, sc)
    assert select_index_set(lat, z, sc) == ()
    assert m_closure(lat, sc, []) == z
    found, complete = stable_subspaces_within(lat, sc, 2, base=z)
    assert (found, complete) == stable_subspaces_within(lat, sc, 2) and found and complete
    cfg = PushoutConfig()
    with pytest.raises(UnexpandableSubspace):
        expansion_element(lat, z, sc, cfg)
    # no delta has it as witness, so protect and pushout_step never meet one
    with pytest.raises(ValidationError) as err:
        dataclasses.replace(delta_m(lat, sc), witness=z)
    assert (err.value.field, err.value.message) == (
        "delta", "witness must be a nonzero subspace")


@pytest.mark.parametrize("rows, message", [
    ([[1, 0, 0], [0, 1]], "row length must equal the dimension 3"),
    ([[1, 0]], "row length must equal the dimension 3"),
    ([[True, 0, 0]], "expected an int or Fraction, got bool"),
    ([[1.5, 0, 0]], "expected an int or Fraction, got float"),
    ([[1.0, 0, 0]], "expected an int or Fraction, got float"),
    ([["1", 0, 0]], "expected an int or Fraction, got str"),
    ([[F(1, 2), 0, 0]], "expected an integer, got 1/2"),
    (5, "must be a sequence of integer rows"),
    ([5], "must be a sequence of integer rows"),
], ids=["ragged", "short", "bool", "float", "integral-float", "str", "fraction",
        "not-rows", "not-a-row"])
@pytest.mark.parametrize("build", [
    lambda rows: subspace_from_rows(3, rows),
    lambda rows: RationalSubspace(3, rows),
    lambda rows: m_closure(standard_lattice(3), UNIPOTENT, rows),
    lambda rows: complete_to_basis(rows, 3),
], ids=["from-rows", "constructor", "closure", "completion"])
def test_every_subspace_entry_point_checks_rows_alike(build, rows, message):
    """One check (`rl.int_rows`) guards every entry point that takes integer
    rows, with one field and one message per fault; integral Fractions are
    read as ints."""
    with pytest.raises(ValidationError) as err:
        build(rows)
    assert (err.value.field, err.value.message) == ("rows", message)
    assert build([[F(1), F(0), 0]]) == build(((1, 0, 0),))


@pytest.mark.parametrize("n, message", [
    (0, "must be a positive int, got 0"), (-1, "must be a positive int, got -1"),
    ("3", "must be a positive int, got '3'"), (3.0, "must be a positive int, got 3.0"),
])
def test_row_check_needs_a_positive_ambient(n, message):
    """Without rows to measure, the ambient dimension itself is checked:
    {0} lives in some Q^n, n >= 1."""
    for build in (lambda: subspace_from_rows(n, []), lambda: complete_to_basis((), n)):
        with pytest.raises(ValidationError) as err:
            build()
        assert (err.value.field, err.value.message) == ("ambient", message)
    with pytest.raises(ValidationError, match="ambient"):
        RationalSubspace(n, ())


def test_trusted_subspaces_equal_validated(rng):
    # subspace_from_rows saturates once and skips the validating re-saturation
    for _ in range(60):
        n = rng.randint(2, 5)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(rng.randint(1, n))]
        w = subspace_from_rows(n, rows)
        validated = RationalSubspace(ambient=n, rows=rl.saturate(rows))
        assert w == validated and hash(w) == hash(validated)
        assert w.rows == validated.rows and w.dim == validated.dim
    assert full_subspace(3) == RationalSubspace(ambient=3, rows=rl.identity(3))


@pytest.mark.parametrize("rows", [
    ((2, 0, 0),),                    # not saturated
    ((1, 0, 0), (0, 2, 0)),          # not saturated
    ((0, 1, 0), (1, 0, 0)),          # saturated, not in HNF
    ((1, 3, 0), (0, 2, 1)),          # pivot row entry above a pivot not reduced
    ((-1, 0, 0),),                   # negative pivot
])
def test_subspace_constructor_rejects_non_canonical_rows(rows):
    with pytest.raises(ValidationError, match="saturated HNF"):
        RationalSubspace(ambient=3, rows=rows)


def reference_key(covol_sq, dim, n):
    """The former comparison key (covol²)^{L/dim} with L = lcm(1..N).

    It orders subspaces as covol^{1/dim} does, with exponents up to L.
    """
    return F(covol_sq) ** (math.lcm(*range(1, n + 1)) // dim)


def test_root_key():
    r2, r3 = ((1, 0, 0, 0), (0, 1, 0, 0)), ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))
    # (1/64)^{1/3} = 1/4 < (1/9)^{1/2} = 1/3
    assert _root_lt((F(1, 64), 3, r3), (F(1, 9), 2, r2))
    assert not _root_lt((F(1, 9), 2, r2), (F(1, 64), 3, r3))
    assert reference_key(F(1, 64), 3, 4) < reference_key(F(1, 9), 2, 4)
    # (1/64)^{1/3} = (1/16)^{1/2}: equal values, the smaller dimension wins
    assert reference_key(F(1, 64), 3, 4) == reference_key(F(1, 16), 2, 4)
    assert _root_lt((F(1, 16), 2, r2), (F(1, 64), 3, r3))
    assert not _root_lt((F(1, 64), 3, r3), (F(1, 16), 2, r2))
    # equal value and dimension: rows decide; a key never precedes itself
    assert _root_lt((F(1, 16), 2, r2[::-1]), (F(1, 16), 2, r2))
    assert not _root_lt((F(1, 16), 2, r2), (F(1, 16), 2, r2[::-1]))
    assert not _root_lt((F(1, 16), 2, r2), (F(1, 16), 2, r2))

    rng = random.Random(20261018)
    rows = [((1, 0),), ((0, 1),), ((1, 1),)]
    for n in range(2, 8):
        keys = []
        for _ in range(200):
            d = rng.randint(1, n)
            # perfect d-th powers make equal roots across dimensions common
            base = F(rng.randint(1, 6), rng.randint(1, 6))
            c = base ** d if rng.random() < 0.5 else F(rng.randint(1, 40), rng.randint(1, 40))
            keys.append((c, d, rng.choice(rows)))
        ref = [(reference_key(c, d, n), d, rows) for c, d, rows in keys]
        for i in range(len(keys)):
            j = (i + 1) % len(keys)
            assert _root_lt(keys[i], keys[j]) == (ref[i] < ref[j])

    # delta_sq_vs at N = 12 (L = 27720) against the L-power form
    n, big_l = 12, 27720
    for d, c in [(1, F(1, 4)), (5, F(1, 32)), (7, F(3, 7)), (11, F(2, 3)), (12, F(1))]:
        res = DeltaResult(witness=sub(n, [[int(i == j) for j in range(n)] for i in range(d)]),
                          witness_covol_sq=c, complete=True)
        assert res.lcm_pow == big_l
        assert res.delta_sq_pow == c ** (big_l // d)
        for x in (F(1, 4), F(1, 2), F(2, 3), F(1), c ** 2, F(3, 7) ** 2):
            q, rhs = res.delta_sq_pow, x ** big_l
            assert res.delta_sq_vs(x) == (q > rhs) - (q < rhs)
        # against a root x^{1/e}, as the growth check and the oracle compare
        for x, e in ((F(1, 4), 3), (F(1, 2), 2), (F(2, 3), 12), (c ** 5, 5), (c ** 2, 2 * d)):
            q, rhs = res.delta_sq_pow, x ** (big_l // e)
            assert res.delta_sq_vs(x, e) == (q > rhs) - (q < rhs)


def test_int_gram_matches_fraction_gram(rng):
    lats = [random_unimodular_lattice(rng, rng.randint(2, 5), shears=6,
                                      dyadic_range=rng.randint(1, 5)) for _ in range(20)]
    base = diagonal_lattice(F(3, 5), F(5, 2), F(2, 3))
    for _ in range(10):
        u = random_unimodular_int(rng, 3, shears=6, c=2)
        lats.append(make_lattice(rl.mat_mul(base.basis, [[F(x) for x in r] for r in u])))
    for lat in lats:
        assert lat.int_gram == rl.scale_to_int(gram(lat))


def reference_contains(w, other):
    """The Fraction form: every row of other lies in the Q-span of w's rows."""
    return all(span_contains(w.rows, r) for r in other.rows)


def test_contains_matches_span_form():
    rng = random.Random(67)
    kinds = set()
    for _ in range(150):
        n = rng.randint(2, 5)
        subs = []
        while len(subs) < 2:
            s = sub(n, [[rng.randint(-3, 3) for _ in range(n)]
                        for _ in range(rng.randint(1, n))])
            if s.dim:
                subs.append(s)
        w, x = subs
        for a, b in ((w, w), (w, subspace_sum(w, x)), (subspace_sum(w, x), w),
                     (w, x), (x, w)):
            got = a.contains(b)
            assert got == reference_contains(a, b), (a.rows, b.rows)
            kinds.add("equal" if a == b else "contained" if got else "not contained")
    assert kinds == {"equal", "contained", "not contained"}
