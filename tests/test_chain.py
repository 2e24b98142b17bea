import gc
import hashlib
import random
import tracemalloc
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnmc.chain import (
    MarkovChain,
    build_mc,
    check_state_cap,
    descend,
    final_states,
    prefix_bound,
    size_bound,
)
from bnmc.errors import MalformedQueryError, StateCapError
from bnmc.export import export_dot, export_jani
from bnmc.gen import random_network
from bnmc.network import Cpt, Variable, joint_probability, network_from_cpts
from bnmc.reach import ReachQuery, conditional_query

from conftest import chain_bn, single_var_bn


def _successors(mc):
    return tuple(mc.successors(idx) for idx in range(len(mc.states)))


def test_dpg_has_fifteen_states(student_mood_dpg):
    mc = build_mc(student_mood_dpg, keep_zero_edges=True)
    assert len(mc.states) == 15
    assert size_bound(student_mood_dpg) == 15


def test_leftmost_path_probabilities(student_mood_dpg):
    # Follow value 1 at every step: Dif=1, Prep=1, Grade=1.
    mc = build_mc(student_mood_dpg)
    idx = mc.initial
    seen = []
    for depth in range(3):
        for p, t in mc.successors(idx):
            if mc.states[t][depth] == 1:
                seen.append(p)
                idx = t
                break
    assert seen == [0.4, 0.3, 0.95]
    assert mc.is_final(idx)


def test_single_variable_chain():
    mc = build_mc(single_var_bn(0.3))
    assert len(mc.states) == 3
    assert mc.successors(0) == ((0.7, 1), (0.3, 2))
    assert mc.successors(1) == ((1.0, 1),)
    assert mc.successors(2) == ((1.0, 2),)


def test_empty_network_chain():
    mc = build_mc(network_from_cpts("empty", [], []))
    assert mc.states == ((),)
    assert mc.is_final(0)
    assert conditional_query(mc, ReachQuery(evidence={}, hypothesis={})) == 1.0


def test_initial_state_all_dont_care(student_mood):
    mc = build_mc(student_mood)
    assert mc.initial == 0
    assert mc.states[0] == ()
    assert mc.render_state(0) == "(*,*,*,*)"


def test_initial_state_is_not_a_field(student_mood):
    mc = build_mc(student_mood)
    assert "initial" not in {f.name for f in fields(mc)}
    # `masses` is filled by queries, not passed in.
    values = {f.name: getattr(mc, f.name) for f in fields(mc) if f.init}
    assert MarkovChain(**values) == mc
    with pytest.raises(TypeError):
        MarkovChain(**values, initial=5)


def test_size_bound_formula():
    assert size_bound(single_var_bn()) == 3  # 1 + d with d=2
    v0 = Variable(id=0, name="a", domain=("0", "1"))
    v1 = Variable(id=1, name="b", domain=("x", "y", "z"))
    bn = network_from_cpts(
        "pair",
        [v0, v1],
        [
            Cpt(owner=0, parents=(), rows={(): (0.5, 0.5)}),
            Cpt(
                owner=1,
                parents=(),
                rows={(): (0.2, 0.3, 0.5)},
            ),
        ],
    )
    assert size_bound(bn) == 1 + 2 + 6


def test_zero_edges_pruned_by_default():
    v0 = Variable(id=0, name="a", domain=("0", "1"))
    bn = network_from_cpts(
        "zero", [v0], [Cpt(owner=0, parents=(), rows={(): (0.0, 1.0)})]
    )
    pruned = build_mc(bn)
    assert len(pruned.states) == 2
    kept = build_mc(bn, keep_zero_edges=True)
    assert len(kept.states) == 3
    assert (0.0, 1) in kept.successors(0)


def test_state_cap_refusal():
    bn = random_network(random.Random(0), n_vars=30, min_domain=2, max_domain=2)
    assert size_bound(bn) == 2**31 - 1
    with pytest.raises(StateCapError, match="cap"):
        build_mc(bn)


def test_state_cap_refusal_prints_bounds_above_2_to_the_64_briefly():
    # 2^15001 - 1 has more decimal digits than int-to-str conversion allows.
    with pytest.raises(StateCapError) as refused:
        check_state_cap(prefix_bound([2] * 15000), 10**7)
    assert "more than 2^64" in str(refused.value)
    assert len(str(refused.value)) < 200
    with pytest.raises(StateCapError, match=f"up to {2**64} states"):
        check_state_cap(2**64, 10**7)


def test_build_deterministic(student_mood):
    a = build_mc(student_mood)
    b = build_mc(student_mood)
    assert a.states == b.states
    assert _successors(a) == _successors(b)


def test_final_states_with_predicate(student_mood_dpg):
    mc = build_mc(student_mood_dpg)
    grade = student_mood_dpg.by_name("Grade").id
    goal = final_states(mc, {grade: 0})
    assert len(goal) == 4
    assert all(mc.states[i][2] == 0 for i in goal)


def test_final_states_empty_predicate(student_mood_dpg):
    mc = build_mc(student_mood_dpg)
    assert final_states(mc, {}) == set(mc.final_indices())
    assert len(final_states(mc, {})) == 8


def test_final_states_value_out_of_range(student_mood_dpg):
    mc = build_mc(student_mood_dpg)
    with pytest.raises(MalformedQueryError):
        final_states(mc, {0: 5})


def test_outgoing_probabilities_sum_to_one(student_mood):
    mc = build_mc(student_mood)
    for row in _successors(mc):
        assert sum(p for p, _ in row) == pytest.approx(1.0, abs=1e-9)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_state_count_within_bound(seed):
    bn = random_network(random.Random(seed), max_vars=5, max_domain=3, zero_entry_prob=0.3)
    mc = build_mc(bn)
    assert len(mc.states) <= size_bound(bn)
    full = build_mc(bn, keep_zero_edges=True)
    assert len(full.states) == size_bound(bn)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_path_product_equals_joint(seed):
    bn = random_network(random.Random(seed), max_vars=5, max_domain=3)
    mc = build_mc(bn)
    for idx in mc.final_indices():
        full = dict(zip(mc.order, mc.states[idx]))
        expected = joint_probability(bn, full)
        assert descend(mc, full) == pytest.approx(expected, rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("keep_zero_edges", [False, True])
def test_final_indices_are_every_final_state(keep_zero_edges):
    rng = random.Random(73)
    chains = [build_mc(network_from_cpts("empty", [], []))]
    for _ in range(20):
        bn = random_network(rng, max_vars=5, max_domain=3, zero_entry_prob=0.3)
        chains.append(build_mc(bn, keep_zero_edges=keep_zero_edges))
    for mc in chains:
        expected = [i for i in range(len(mc.states)) if mc.is_final(i)]
        assert list(mc.final_indices()) == expected


def test_children_bind_next_variable(student_mood):
    mc = build_mc(student_mood)
    for idx, row in enumerate(_successors(mc)):
        if mc.is_final(idx):
            continue
        parent = mc.states[idx]
        for value, (_, target) in enumerate(row):
            assert mc.states[target] == parent + (value,)


def test_build_mc_pinned_digest():
    # The Jani and dot exports of seeded networks, pinned so that a rewrite
    # of build_mc or of the state layout leaves them byte-identical.
    rng = random.Random(101)
    digest = hashlib.sha256()
    for i in range(20):
        bn = random_network(rng, max_vars=6, max_domain=3, zero_entry_prob=0.3)
        mc = build_mc(bn, keep_zero_edges=bool(i % 2))
        digest.update(export_jani(mc).encode())
        digest.update(export_dot(mc).encode())
    assert digest.hexdigest() == (
        "2a1993f0059a0c45cb905d2c0712dea7691d0851a04992d899ae91d143b6eeea"
    )


def test_chain_retains_under_256_bytes_per_state():
    # A state costs its tuple and, per non-final state, a first-child index
    # and a reference to its CPT row's shared edge table; one (p, target)
    # pair per edge would cost more.
    bn = chain_bn(14)
    gc.collect()
    tracemalloc.start()
    try:
        mc = build_mc(bn)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(mc.states) == 2**15 - 1
    assert retained / len(mc.states) < 256
