import dataclasses
import gc
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnmc import chain, reach, symbolic
from bnmc.chain import build_mc, final_states
from bnmc.errors import IllConditionedQueryError, MalformedQueryError
from bnmc.gen import random_network, random_query
from bnmc.network import Cpt, Variable, network_from_cpts, subnetwork
from bnmc.oracle import oracle_infer
from bnmc.reach import (
    ILL_CONDITIONED_EPS,
    ReachQuery,
    ancestral_query,
    check_prop2,
    conditional,
    conditional_query,
    reach_probability,
)
from bnmc.symbolic import compile_network, infer


def scanned_goal(mc, binding):
    """Final states of a chain whose slots extend `binding`, by a full scan."""
    return {
        idx
        for idx, state in enumerate(mc.states)
        if mc.is_final(idx)
        and all(state[mc.position[v]] == d for v, d in binding.items())
    }


def test_reach_quoted_evidence_probability(student_mood):
    mc = build_mc(student_mood)
    prep = student_mood.by_name("Prep").id
    assert reach_probability(mc, final_states(mc, {prep: 1})) == pytest.approx(
        0.3, abs=1e-12
    )


def test_reach_all_finals_is_one(student_mood):
    mc = build_mc(student_mood)
    assert reach_probability(mc, set(mc.final_indices())) == pytest.approx(1.0, abs=1e-12)


def test_reach_empty_goal_is_zero(student_mood):
    mc = build_mc(student_mood)
    assert reach_probability(mc, set()) == 0.0


def test_reach_rejects_unknown_state(student_mood):
    mc = build_mc(student_mood)
    with pytest.raises(ValueError):
        reach_probability(mc, {10_000})


def test_conditional_query_quoted_value(student_mood):
    mc = build_mc(student_mood)
    q = ReachQuery(evidence={1: 1}, hypothesis={0: 0, 2: 0, 3: 0})
    assert conditional_query(mc, q) == pytest.approx(0.27, abs=1e-9)


def test_conditional_query_empty_is_one(student_mood):
    mc = build_mc(student_mood)
    assert conditional_query(mc, ReachQuery()) == 1.0


def test_conditional_query_ill_conditioned():
    # Forced-zero evidence: a child value impossible under every parent value.
    a = Variable(id=0, name="a", domain=("0", "1"))
    b = Variable(id=1, name="b", domain=("0", "1"))
    bn = network_from_cpts(
        "impossible",
        [a, b],
        [
            Cpt(owner=0, parents=(), rows={(): (0.5, 0.5)}),
            Cpt(owner=1, parents=(0,), rows={(0,): (1.0, 0.0), (1,): (1.0, 0.0)}),
        ],
    )
    mc = build_mc(bn)
    # The second call reads the zero mass from the memo and refuses again.
    for _ in range(2):
        with pytest.raises(IllConditionedQueryError):
            conditional_query(mc, ReachQuery(evidence={1: 1}))
    assert mc.masses == {((1, 1),): 0.0}


@pytest.mark.parametrize(
    "denominator, refused",
    [(ILL_CONDITIONED_EPS, False), (ILL_CONDITIONED_EPS * (1 - 1e-15), True)],
)
def test_conditional_refuses_below_epsilon(denominator, refused):
    q = ReachQuery(evidence={0: 1}, hypothesis={1: 0})
    calls = []

    def mass(binding):
        calls.append(dict(binding))
        return denominator if binding == {0: 1} else denominator / 4

    if refused:
        with pytest.raises(IllConditionedQueryError):
            conditional(mass, q)
        assert calls == [{0: 1}]
    else:
        assert conditional(mass, q) == 0.25
        assert calls == [{0: 1}, {0: 1, 1: 0}]


def test_query_rejects_conflicting_bindings():
    with pytest.raises(MalformedQueryError, match="bound to"):
        ReachQuery(evidence={0: 1}, hypothesis={0: 0})


def test_query_allows_consistent_overlap(student_mood):
    mc = build_mc(student_mood)
    q = ReachQuery(evidence={1: 1}, hypothesis={1: 1, 2: 0})
    value = conditional_query(mc, q)
    plain = conditional_query(mc, ReachQuery(evidence={1: 1}, hypothesis={2: 0}))
    assert value == pytest.approx(plain, abs=1e-12)


def test_reach_monotone_in_goal(student_mood):
    mc = build_mc(student_mood)
    finals = sorted(mc.final_indices())
    smaller = set(finals[:4])
    larger = set(finals[:9])
    assert reach_probability(mc, smaller) <= reach_probability(mc, larger) + 1e-15


def test_reach_additive_over_disjoint_final_goals(student_mood):
    mc = build_mc(student_mood)
    finals = sorted(mc.final_indices())
    g1, g2 = set(finals[:5]), set(finals[5:11])
    combined = reach_probability(mc, g1 | g2)
    assert combined == pytest.approx(
        reach_probability(mc, g1) + reach_probability(mc, g2), abs=1e-12
    )


def test_check_prop2_fixture_queries(student_mood, rng):
    mc = build_mc(student_mood)
    for _ in range(20):
        q = random_query(rng, student_mood)
        assert check_prop2(mc, q)


def test_check_prop2_empty_query(student_mood):
    mc = build_mc(student_mood)
    assert check_prop2(mc, ReachQuery())


def test_check_prop2_random_networks():
    outer = random.Random(77)
    for _ in range(10):
        bn = random_network(outer, n_vars=4, max_domain=3, zero_entry_prob=0.2)
        mc = build_mc(bn)
        for _ in range(5):
            q = random_query(outer, bn)
            assert check_prop2(mc, q)


def test_check_prop2_refuses_a_chain_that_forgets_a_value():
    # Proposition 2 needs a tree-like chain. With a=0 overwritten by a=1 in
    # the state (0, 0), the path to it meets a=0 and then b=0, never both at
    # once, so the left side counts it and the right side does not.
    a = Variable(id=0, name="a", domain=("0", "1"))
    b = Variable(id=1, name="b", domain=("0", "1"))
    root = {(): (0.5, 0.5)}
    cpts = [Cpt(owner=0, parents=(), rows=root), Cpt(owner=1, parents=(), rows=root)]
    bn = network_from_cpts("forgets", [a, b], cpts)
    mc = build_mc(bn)
    assert mc.states[3] == (0, 0)
    forgets = dataclasses.replace(mc, states=(*mc.states[:3], (1, 0), *mc.states[4:]))
    q = ReachQuery(evidence={1: 0}, hypothesis={0: 0})
    assert check_prop2(mc, q)
    assert not check_prop2(forgets, q)


def test_check_prop2_on_a_tree_of_131072_final_states():
    # One forward pass over the tree: no cap on the number of paths.
    from conftest import chain_bn

    mc = build_mc(chain_bn(17))
    assert len(mc.final_indices()) == 2**17
    assert check_prop2(mc, ReachQuery(evidence={16: 1}, hypothesis={0: 0}))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_conditional_matches_oracle(seed):
    rng = random.Random(seed)
    bn = random_network(rng, max_vars=5, max_domain=3, zero_entry_prob=0.2)
    mc = build_mc(bn)
    for _ in range(5):
        q = random_query(rng, bn)
        try:
            expected = oracle_infer(bn, q)
        except IllConditionedQueryError:
            with pytest.raises(IllConditionedQueryError):
                conditional_query(mc, q)
            continue
        assert conditional_query(mc, q) == pytest.approx(expected, abs=1e-9)


@pytest.mark.parametrize("keep_zero_edges", [False, True])
def test_descent_matches_backward_sweep(keep_zero_edges):
    rng = random.Random(83)
    cases = [(network_from_cpts("empty", [], []), [ReachQuery()])]
    for _ in range(30):
        bn = random_network(rng, max_vars=5, max_domain=3, zero_entry_prob=0.3)
        cases.append((bn, [random_query(rng, bn) for _ in range(5)]))
    refused = 0
    for bn, queries in cases:
        mc = build_mc(bn, keep_zero_edges=keep_zero_edges)
        for q in queries:
            for binding in (q.evidence, q.combined()):
                assert final_states(mc, binding) == scanned_goal(mc, binding)
            try:
                expected = conditional(
                    lambda b: reach_probability(mc, scanned_goal(mc, b)), q
                )
            except IllConditionedQueryError:
                refused += 1
                with pytest.raises(IllConditionedQueryError):
                    conditional_query(mc, q)
                continue
            assert abs(conditional_query(mc, q) - expected) <= 1e-15
    assert refused > 0


def test_conditional_query_needs_no_backward_sweep(student_mood, monkeypatch):
    def refuse(mc, goal):
        raise AssertionError("backward sweep called")

    monkeypatch.setattr(reach, "reach_probability", refuse)
    mc = build_mc(student_mood)
    q = ReachQuery(evidence={1: 1}, hypothesis={0: 0, 2: 0, 3: 0})
    assert conditional_query(mc, q) == pytest.approx(0.27, abs=1e-9)


def test_ancestral_query_keeps_the_network_when_nothing_is_barren(student_mood):
    q = ReachQuery(evidence={1: 1}, hypothesis={3: 0})  # Mood's ancestors: all four
    bn, pruned = ancestral_query(student_mood, q)
    assert bn is student_mood and pruned is q


def test_ancestral_query_remaps_to_the_ancestor_subnetwork(student_mood, student_mood_dpg):
    # Ancestors of Prep and Grade: Dif, Prep, Grade; Mood is barren.
    q = ReachQuery(evidence={2: 0}, hypothesis={1: 1})
    bn, pruned = ancestral_query(student_mood, q)
    assert bn == student_mood_dpg
    assert pruned == ReachQuery(evidence={2: 0}, hypothesis={1: 1})
    assert conditional_query(build_mc(bn), pruned) == pytest.approx(
        oracle_infer(student_mood, q), abs=1e-15
    )
    # Two roots and their descendant's parents, with ids that move.
    bn, pruned = ancestral_query(student_mood, ReachQuery(hypothesis={1: 0}))
    assert [v.name for v in bn.variables] == ["Prep"]
    assert pruned == ReachQuery(hypothesis={0: 0})
    bn, pruned = ancestral_query(student_mood, ReachQuery())
    assert bn.variables == () and pruned == ReachQuery()


@pytest.mark.parametrize("var_id", [-1, 4])
def test_ancestral_query_refuses_an_unknown_id(student_mood, var_id):
    # The walk indexes CPTs unchecked, where -1 would name the last one.
    for q in (ReachQuery(evidence={var_id: 0}), ReachQuery(hypothesis={var_id: 0})):
        with pytest.raises(MalformedQueryError, match=f"unknown variable id {var_id}"):
            ancestral_query(student_mood, q)


def test_ancestral_query_of_a_long_chain_head():
    from conftest import chain_bn

    bn = chain_bn(40)
    sub, q = ancestral_query(bn, ReachQuery(evidence={3: 1}, hypothesis={0: 0}))
    assert sub == subnetwork(bn, range(4))
    assert q == ReachQuery(evidence={3: 1}, hypothesis={0: 0})
    assert len(build_mc(sub).states) == 31


def test_mass_stops_at_the_deepest_bound_layer():
    # Only v0 is bound, so each mass stops at the root's children: the answer
    # is the root row's entry itself, with no row sums of the layers below.
    from conftest import chain_bn

    bn = chain_bn(12, seed=1)
    mc = build_mc(bn)
    assert conditional_query(mc, ReachQuery(hypothesis={0: 0})) == bn.cpts[0].rows[()][0]


# Each model-backed engine: how it is built, how it answers, and the module
# attribute that computes one mass.
MEMO_ENGINES = {
    "tree": (build_mc, conditional_query, (chain, "descend")),
    "symbolic": (compile_network, infer, (symbolic, "_restricted_mass")),
}


@pytest.mark.parametrize("engine", MEMO_ENGINES)
def test_repeated_query_reads_its_masses_from_the_model(student_mood, monkeypatch, engine):
    build, answer, (module, name) = MEMO_ENGINES[engine]
    model = build(student_mood)
    q = ReachQuery(evidence={1: 1}, hypothesis={0: 0, 2: 0, 3: 0})
    answer(model, q)
    fresh = answer(build(student_mood), q)

    def refuse(*args, **kwargs):
        raise AssertionError(f"{name} called on a remembered binding")

    monkeypatch.setattr(module, name, refuse)
    assert answer(model, q).hex() == fresh.hex()
    # The combined binding, its items in another order, is the same key.
    assert answer(model, ReachQuery(evidence={0: 0, 1: 1, 2: 0, 3: 0})) == 1.0


@pytest.mark.parametrize("engine", MEMO_ENGINES)
def test_a_second_hypothesis_computes_only_its_combined_mass(student_mood, monkeypatch, engine):
    build, answer, (module, name) = MEMO_ENGINES[engine]
    model = build(student_mood)
    original, calls = getattr(module, name), []

    def counted(model, binding, **kwargs):
        calls.append(dict(binding))
        return original(model, binding, **kwargs)

    monkeypatch.setattr(module, name, counted)
    answer(model, ReachQuery(evidence={1: 1}, hypothesis={0: 0}))
    answer(model, ReachQuery(evidence={1: 1}, hypothesis={2: 0}))
    assert calls == [{1: 1}, {1: 1, 0: 0}, {1: 1, 2: 0}]
    assert model.masses.keys() == {((1, 1),), ((0, 0), (1, 1)), ((1, 1), (2, 0))}


def test_tree_queries_grow_no_instance_state(student_mood):
    mc = build_mc(student_mood)
    fields = dict(vars(mc))
    conditional_query(mc, ReachQuery(evidence={1: 1}, hypothesis={0: 0}))
    conditional_query(mc, ReachQuery(evidence={2: 0}, hypothesis={3: 1}))
    assert vars(mc).keys() == fields.keys()
    assert all(vars(mc)[key] is value for key, value in fields.items())
    assert len(mc.masses) == 4


def test_tree_freed_without_cycle_collector(student_mood):
    gc.disable()
    try:
        mc = build_mc(student_mood)
        conditional_query(mc, ReachQuery(evidence={1: 1}, hypothesis={0: 0}))
        tree = weakref.ref(mc)
        del mc
        assert tree() is None
    finally:
        gc.enable()
