import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnmc import reach
from bnmc.chain import build_mc, final_states
from bnmc.errors import IllConditionedQueryError, MalformedQueryError, PathCapError
from bnmc.gen import random_network, random_query
from bnmc.network import Cpt, Variable, network_from_cpts
from bnmc.oracle import oracle_infer
from bnmc.reach import (
    ILL_CONDITIONED_EPS,
    ReachQuery,
    check_prop2,
    conditional,
    conditional_query,
    reach_probability,
)


def scanned_goal(mc, binding):
    """Final states of a chain whose slots extend `binding`, by a full scan."""
    return {
        idx
        for idx, state in enumerate(mc.states)
        if mc.is_final(idx)
        and all(state[mc.position_of(v)] == d for v, d in binding.items())
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
    with pytest.raises(IllConditionedQueryError):
        conditional_query(mc, ReachQuery(evidence={1: 1}))


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


def test_check_prop2_path_cap(student_mood):
    mc = build_mc(student_mood)
    with pytest.raises(PathCapError):
        check_prop2(mc, ReachQuery(), path_cap=3)


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
