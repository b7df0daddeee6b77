"""The closed-form block-sum path against the chain search.

When the generators span the whole block algebra ⊕ M_{d_β}(Q)
(`Scenario.full_block_algebra`), the M-stable subspaces are exactly the
block sums, and `_stable_search` measures those instead of searching. Every
comparison here reruns the call with the chain search forced, by patching
the flag to False, on a fresh copy of the lattice, and requires the same
answer: witness, covol², complete flag, subspace list, protection chain, or
the same error.
"""

import random
import time
from fractions import Fraction

import pytest

from nondiv import ratlin as rl
from nondiv.enumeration import (_Budget, delta_m, oracle_delta_m,
                                stable_subspaces_within)
from nondiv.errors import IncompleteSearch, NondivError
from nondiv.lattice import (_block_sum, _frame, apply_torus, covolume_sq,
                            make_lattice, make_scenario, trivial_scenario)
from nondiv.pushout import PushoutConfig, drive, protect
from nondiv.samples import (random_upper_triangular_lattices, sl4_so21_scenario,
                            sl4_torus, sl4_torus_lattice, so21_generators_3d)

from conftest import force_chain_search, random_unimodular_int, real_coordinate_subspace
from test_enumeration import (JORDAN_4, NEGATION_4, UNIPOTENT, drive_moved_lattices,
                              rebase)

F = Fraction

SL4 = sl4_so21_scenario()
B13, B23, R12 = so21_generators_3d()


def block_diagonal(*blocks):
    n = sum(map(len, blocks))
    out = [[F(0)] * n for _ in range(n)]
    at = 0
    for blk in blocks:
        for i, row in enumerate(blk):
            for j, x in enumerate(row):
                out[at + i][at + j] = F(x)
        at += len(blk)
    return out


def scenario_1_3_3(g, h):
    """Blocks {1}, {2,3,4}, {5,6,7}; generator k is diag(1, g_k, h_k)."""
    return make_scenario(7, [[0, 1], [1, 4], [4, 7]],
                         [block_diagonal([[1]], a, b) for a, b in zip(g, h)])


# two non-isomorphic SO(2,1) blocks: the generators span M_1 ⊕ M_3 ⊕ M_3
PRODUCT_1_3_3 = scenario_1_3_3((B13, B23, R12), (R12, B13, B23))
# the same SO(2,1) action on both blocks: isomorphic blocks, and the graphs
# of scalars between them are stable too
DIAGONAL_PAIR = scenario_1_3_3((B13, B23, R12), (B13, B23, R12))


def chain(monkeypatch, call):
    """call() with the chain search forced on every scenario."""
    with monkeypatch.context() as m:
        force_chain_search(m)
        return call()


def outcome(call):
    """call()'s result, or the type and message of the NondivError it raised."""
    try:
        return call()
    except NondivError as err:
        return type(err), str(err)


def block_scalar_lattice(scalars, sc):
    diag = [s for s, d in zip(scalars, sc.block_dims) for _ in range(d)]
    return make_lattice([[diag[i] if i == j else 0 for j in range(sc.n)]
                         for i in range(sc.n)])


def sl4_inputs():
    rng = random.Random(307)
    for t in (F(2), F(4), F(1, 2), F(1, 4), F(1, 8), F(3, 2)):
        yield rebase(sl4_torus_lattice(t), random_unimodular_int(rng, 4, shears=4, c=1)), SL4
    yield from drive_moved_lattices(rng)


def product_inputs():
    rng = random.Random(311)
    for scalars in ((F(1, 8), F(1), F(2)), (F(1), F(2), F(1, 2)),
                    (F(1, 8), F(2), F(1)), (F(8), F(1, 2), F(1)),
                    (F(27, 8), F(2, 3), F(1))):
        lat = block_scalar_lattice(scalars, PRODUCT_1_3_3)
        yield rebase(lat, random_unimodular_int(rng, 7, shears=6, c=1)), PRODUCT_1_3_3
    for lat in random_upper_triangular_lattices(7, 4)[1:]:
        yield lat, PRODUCT_1_3_3


def test_full_block_algebra_flag():
    assert SL4.full_block_algebra and PRODUCT_1_3_3.full_block_algebra
    for sc in (trivial_scenario(4), NEGATION_4, UNIPOTENT, JORDAN_4, DIAGONAL_PAIR):
        assert not sc.full_block_algebra
    # a cached property outside the fields: equality and hash are unchanged
    assert PRODUCT_1_3_3 == scenario_1_3_3((B13, B23, R12), (R12, B13, B23))
    assert hash(SL4) == hash(sl4_so21_scenario())


def test_isomorphy_warnings_compare_generator_traces():
    """The same action on both 3-dim blocks gives equal traces and a
    warning; the permuted generators of PRODUCT_1_3_3 give none."""
    assert DIAGONAL_PAIR.isomorphy_warnings() == [
        "blocks 1 and 2 have equal dimension and identical generator traces; they "
        "may be isomorphic as representations, which would make the block-scalar "
        "torus too large"]
    assert PRODUCT_1_3_3.isomorphy_warnings() == []


@pytest.mark.parametrize("inputs", [sl4_inputs, product_inputs])
def test_block_sums_match_the_chain_search(monkeypatch, inputs):
    """delta_m, stable_subspaces_within (with and without a base) and protect
    agree with the forced chain search; the block-sum path runs no chain."""
    checked = 0
    for lat, sc in inputs():
        fresh = make_lattice(lat.basis)
        d = delta_m(lat, sc)
        assert d.complete
        assert d == chain(monkeypatch, lambda: delta_m(fresh, sc))
        calls = [(F(1), None)]
        if not d.witness.is_full:
            calls.append((F(2) * d.witness_covol_sq, d.witness))
            calls.append((F(1), d.witness))
        for cap, base in calls:
            got = stable_subspaces_within(lat, sc, cap, base=base)
            assert got[1]
            assert got == chain(monkeypatch, lambda: stable_subspaces_within(
                fresh, sc, cap, base=base))
            checked += len(got[0])
        if d.witness_covol_sq < 1:
            # a floor in (0, 1) above δ², so both paths protect: with k = dim W
            # and c = covol², floor^k ≥ 1 − k·(1 − floor) > c (Bernoulli)
            floor = 1 - (1 - d.witness_covol_sq) / (2 * d.witness.dim)
            for c in (F(2), F(16)):
                got = outcome(lambda: protect(lat, sc, PushoutConfig(), c,
                                              eta0_sq=floor, delta=d))
                assert got == chain(monkeypatch, lambda: outcome(
                    lambda: protect(fresh, sc, PushoutConfig(), c, eta0_sq=floor, delta=d)))
        assert _frame(lat, sc).block_sums
        assert lat.__dict__["_quotients"] == {}  # no quotient was built
    assert checked >= 10


def test_block_sums_are_the_coordinate_blocks():
    # Λ∩V_T for each proper T, in bit-mask order, equals its real-coordinate form
    lat = next(product_inputs())[0]
    blocks = ({0}, {1, 2, 3}, {4, 5, 6})
    want = [real_coordinate_subspace(lat, set().union(*(blocks[j] for j in range(3)
                                                       if t >> j & 1)))
            for t in range(1, 7)]
    assert [_block_sum(lat, PRODUCT_1_3_3, t) for t in range(1, 7)] == want


def sign_scenario(n):
    """Blocks {1}, {2, 3}, {4..n}; one generator diag(-1, -1, 1, ..., 1)."""
    return make_scenario(n, [[0, 1], [1, 3], [3, n]],
                         [[[(-1 if i < 2 else 1) * (i == j) for j in range(n)]
                           for i in range(n)]])


def test_block_sums_from_the_adjugate_at_n20():
    """Λ∩V_T is the saturation of the adjugate's columns in T. Up to N = 16
    it equals the kernel of the basis rows outside T; at N = 20, where that
    kernel ran for over 100 s, the six sums take well under the bound."""
    for n in (4, 8, 12, 16, 20):
        lat = random_upper_triangular_lattices(n, 1)[0]
        sc = sign_scenario(n)
        b_int = lat.int_basis[0]
        t0 = time.perf_counter()
        got = [_block_sum(lat, sc, t) for t in range(1, 7)]
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0, f"N = {n}: {elapsed:.2f}s"
        for t, sub in enumerate(got, 1):
            outside = [i for j, (lo, hi) in enumerate(sc.blocks) if not t >> j & 1
                       for i in range(lo, hi)]
            assert sub.dim == n - len(outside) and rl.hnf_rows(sub.rows) == sub.rows
            assert not any(rl.mat_vec(b_int, x)[i] for x in sub.rows for i in outside)
            if n <= 16:
                assert sub.rows == rl.right_kernel_int([b_int[i] for i in outside])


def test_block_sums_follow_the_torus_orbit():
    """A block-scalar move hands the frame on, block sums included; the
    moved lattice's searches equal a fresh copy's."""
    lat = next(sl4_inputs())[0]
    delta_m(lat, SL4)
    held = _frame(lat, SL4).block_sums
    moved = apply_torus(sl4_torus(F(1, 4)), lat)
    assert _frame(moved, SL4).block_sums is held
    assert delta_m(moved, SL4) == delta_m(make_lattice(moved.basis), SL4)


def test_delta_agrees_with_the_oracle_sl4():
    rng = random.Random(313)
    for a in (-3, -2, -1, 1, 2, 3):
        base = sl4_torus_lattice(F(2) ** a)
        for lat in (base, rebase(base, random_unimodular_int(rng, 4, shears=2, c=1))):
            d = delta_m(lat, SL4)
            assert max(abs(x) for r in d.witness.rows for x in r) <= 2
            o = oracle_delta_m(lat, SL4)
            assert (d.witness, d.witness_covol_sq) == (o.witness, o.witness_covol_sq)


def test_block_sum_budget():
    """One budget unit per block sum measured, so a budget still bounds
    the path: 2 sums for SL4, 6 for the 1+3+3 product."""
    lat = sl4_torus_lattice(F(1, 2))
    bud = _Budget(10)
    assert delta_m(lat, SL4, budget=bud).complete and bud.used == 2
    d = delta_m(lat, SL4, budget=1)
    assert not d.complete
    assert d.witness.rows == ((1, 0, 0, 0),) and d.witness_covol_sq == F(1, 64)
    lat7 = block_scalar_lattice((F(1, 64), F(2), F(2)), PRODUCT_1_3_3)
    bud = _Budget(10)
    assert delta_m(lat7, PRODUCT_1_3_3, budget=bud).complete and bud.used == 6
    assert covolume_sq(lat7, delta_m(lat7, PRODUCT_1_3_3).witness) == F(1, 4096)


def test_budget_bounds_many_blocks():
    """16 one-dim blocks under diag(2, ½, 3, ⅓, …, 19, 1/19) have 2^16 − 2
    block sums, but the budget is charged before each kernel is built, so a
    budget of k builds at most k of them."""
    n = 16
    diag = [x for p in (2, 3, 5, 7, 11, 13, 17, 19) for x in (F(p), F(1, p))]
    sc = make_scenario(n, [[i, i + 1] for i in range(n)],
                       [[[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]])
    assert sc.full_block_algebra
    lat = random_upper_triangular_lattices(n, 1)[0]
    assert not delta_m(lat, sc, budget=1).complete
    assert len(_frame(lat, sc).block_sums) == 1
    # above the line of block 0, only the sums holding block 0 are built
    lat = make_lattice(lat.basis)
    base = real_coordinate_subspace(lat, {0})
    assert not stable_subspaces_within(lat, sc, 1, base=base, budget=3)[1]
    assert sorted(_frame(lat, sc).block_sums) == [0b11, 0b101, 0b111]


def test_protect_budget_on_block_sums():
    cfg = PushoutConfig(eta0_override=F(1, 4))
    # delta_m stops after the first of SL4's two block sums
    with pytest.raises(IncompleteSearch, match="upper bound"):
        protect(sl4_torus_lattice(F(1, 2)), SL4, cfg, F(2), budget=1)
    # delta_m takes 6 units, and the guard search above the witness {e1}
    # measures two block sums, the second over the budget of 7
    lat7 = block_scalar_lattice((F(1, 64), F(2), F(2)), PRODUCT_1_3_3)
    with pytest.raises(IncompleteSearch, match="guard"):
        protect(lat7, PRODUCT_1_3_3, cfg, F(2), budget=7)
    assert protect(lat7, PRODUCT_1_3_3, cfg, F(2), budget=8).w_infinity.dim == 1


def test_protect_reads_no_floor_from_an_upper_bound():
    """At budget 1 the chain search stops with the whole space as its upper
    bound, which meets the floor 1/4; the complete δ² is 1/16, below it. So
    protect must refuse the incomplete δ, not answer from it."""
    lat = random_upper_triangular_lattices(7, 10)[3]
    assert not delta_m(lat, DIAGONAL_PAIR, budget=1).complete
    with pytest.raises(IncompleteSearch, match="upper bound"):
        protect(lat, DIAGONAL_PAIR, PushoutConfig(), F(2), eta0_sq=F(1, 4), budget=1)
    d = delta_m(make_lattice(lat.basis), DIAGONAL_PAIR)
    assert d.complete and d.delta_sq_vs(F(1, 16)) == 0


def test_drive_on_block_sums_matches_the_chain_search(monkeypatch):
    cfg = PushoutConfig(eta0_override=F(1, 4))
    for lat in (sl4_torus_lattice(F(1, 8)),
                block_scalar_lattice((F(1, 64), F(2), F(2)), PRODUCT_1_3_3)):
        sc = SL4 if lat.n == 4 else PRODUCT_1_3_3
        cert = drive(lat, sc, cfg)
        assert cert.steps
        assert cert == chain(monkeypatch, lambda: drive(make_lattice(lat.basis), sc, cfg))
