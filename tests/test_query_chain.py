import random
from itertools import product
from math import fsum, prod

import pytest

from bnmc.chain import build_mc, query_bound, query_layers, query_plan, retire_positions
from bnmc.errors import IllConditionedQueryError, StateCapError
from bnmc.gen import random_network, random_query
from bnmc.network import ancestors, subnetwork, topological_order
from bnmc.reach import ReachQuery, conditional_query, query_chain_conditional

from conftest import and_chain_bn, chain_bn, permuted_ids, single_var_bn


def _networks(seed, count=30):
    rng = random.Random(seed)
    for zero_entry_prob in (0.0, 0.1, 0.3):
        for _ in range(count):
            bn = random_network(rng, max_vars=7, max_domain=3, zero_entry_prob=zero_entry_prob)
            yield rng, bn
            yield rng, permuted_ids(bn, rng)


def _answer(fn):
    try:
        return fn()
    except IllConditionedQueryError:
        return None


def test_query_chain_matches_the_tree():
    refused = 0
    for rng, bn in _networks(7):
        mc = build_mc(bn)
        for _ in range(3):
            q = random_query(rng, bn, max_evidence=3)
            tree = _answer(lambda: conditional_query(mc, q))
            layered = _answer(lambda: query_chain_conditional(bn, q))
            assert (tree is None) == (layered is None), q
            if tree is None:
                refused += 1
            else:
                assert abs(tree - layered) <= 1e-12
    assert refused > 0


def test_query_plan_is_topological_with_roots_just_before_their_first_child():
    pick = random.Random(5)
    for _, bn in _networks(3, count=20):
        order, last = query_plan(bn)
        n = len(bn.variables)
        assert sorted(order) == list(range(n))
        parents = [cpt.parents for cpt in bn.cpts]
        children = [[c for c, ps in enumerate(parents) if v in ps] for v in range(n)]
        # The plan filtered to an ancestor-closed set, as a symbolic mass
        # filters it to a binding's ancestors, retires each variable at its
        # last kept child.
        kept = ancestors(bn, pick.sample(range(n), pick.randint(0, n)))
        plan = [v for v in order if v in kept]
        for keep, sub, retire in (
            (set(range(n)), order, last),
            (kept, plan, retire_positions(bn, plan)),
        ):
            position = {v: i for i, v in enumerate(sub)}
            assert retire.keys() == keep
            for v in sub:
                assert retire[v] == max(
                    (position[c] for c in children[v] if c in keep), default=position[v]
                )
        position = {v: i for i, v in enumerate(order)}
        inner = [v for v in topological_order(bn) if parents[v]]
        assert [v for v in order if parents[v]] == inner
        for v in order:
            assert all(position[u] < position[v] for u in parents[v])
            if parents[v]:
                continue
            if not children[v]:
                assert position[v] > max((position[u] for u in inner), default=-1)
                continue
            first = min(position[c] for c in children[v])
            # Only other parents of that child sit between a root and it.
            between = order[position[v] + 1 : first]
            assert all(u in parents[order[first]] and not parents[u] for u in between)


def test_roots_first_and_chain_is_interleaved():
    n = 50
    bn = and_chain_bn(n)
    order, _ = query_plan(bn)
    assert order == [v for i in range(n) for v in (i, n + i)]
    # Frontiers hold one or two values: at most 2 * 4 states a layer.
    assert query_bound(bn, *query_plan(bn)) <= 2 * n * 8 + 2


def test_query_layers_hold_only_their_frontier():
    for rng, bn in _networks(11, count=15):
        q = random_query(rng, bn, max_evidence=3)
        order, last = query_plan(bn)
        layers = list(query_layers(bn, q.evidence, q.hypothesis))
        assert len(layers) == len(order) + 1
        # A layer's states are dict keys, so distinct.
        assert sum(len(layer) for _, layer in layers) <= query_bound(bn, order, last)
        total = 1.0
        for k, (frontier, layer) in enumerate(layers):
            # The placed variables with a child still to come, in some order.
            assert sorted(frontier) == sorted(
                u for u in order[:k] if any(u in bn.cpts[c].parents for c in order[k:])
            )
            sizes = [len(bn.variables[u].domain) for u in frontier]
            assert len(layer) <= 2 * prod(sizes)
            for values, agrees in layer:
                assert len(values) == len(frontier) and type(agrees) is bool
                assert all(0 <= d < size for d, size in zip(values, sizes))
            mass = fsum(layer.values())
            if not q.evidence:
                # With no evidence every layer is a distribution.
                assert abs(mass - 1.0) <= 1e-12
            # An evidence variable passes on only its value's share.
            assert mass <= total * (1 + 1e-12)
            total = mass


def test_query_layer_masses_are_marginals_of_the_placed_variables():
    # Each state's mass is the probability of the assignments to the placed
    # variables that agree with the evidence and give the state's frontier
    # values and hypothesis flag; states with no such assignment are absent.
    for rng, bn in _networks(13, count=8):
        q = random_query(rng, bn, max_evidence=3)
        order, _ = query_plan(bn)
        domains = [range(len(v.domain)) for v in bn.variables]
        for k, (frontier, layer) in enumerate(query_layers(bn, q.evidence, q.hypothesis)):
            placed = order[:k]
            expected: dict = {}
            for values in product(*(domains[u] for u in placed)):
                a = dict(zip(placed, values))
                if any(a[u] != d for u, d in q.evidence.items() if u in a):
                    continue
                p = prod(
                    bn.cpts[u].rows[tuple(a[w] for w in bn.cpts[u].parents)][a[u]] for u in placed
                )
                if p != 0.0:
                    key = (
                        tuple(a[u] for u in frontier),
                        all(a[u] == d for u, d in q.hypothesis.items() if u in a),
                    )
                    expected[key] = expected.get(key, 0.0) + p
            assert layer.keys() == expected.keys()
            assert all(abs(layer[key] - m) <= 1e-12 for key, m in expected.items())


def test_single_variable_layers_are_pinned():
    bn = single_var_bn(0.3)
    # x has no child, so no value is held; an evidence disagreement and a
    # zero entry pass on no mass.
    assert list(query_layers(bn, {0: 1}, {})) == [((), {((), True): 1.0}), ((), {((), True): 0.3})]
    assert list(query_layers(bn, {}, {0: 1})) == [
        ((), {((), True): 1.0}),
        ((), {((), False): 0.7, ((), True): 0.3}),
    ]
    assert list(query_layers(single_var_bn(0.0), {0: 1}, {})) == [
        ((), {((), True): 1.0}),
        ((), {}),
    ]
    assert query_chain_conditional(bn, ReachQuery(evidence={0: 1})) == 1.0
    assert query_chain_conditional(bn, ReachQuery(hypothesis={0: 1})) == 0.3


def test_zero_evidence_is_refused():
    bn = single_var_bn(0.0)
    with pytest.raises(IllConditionedQueryError):
        query_chain_conditional(bn, ReachQuery(evidence={0: 1}))


def test_empty_network_answers_one():
    bn = subnetwork(chain_bn(3), [])
    assert query_chain_conditional(bn, ReachQuery()) == 1.0


def test_cap_refuses_by_the_structural_bound():
    bn = chain_bn(12)
    bound = query_bound(bn, *query_plan(bn))
    assert bound == 11 * 4 + 2 + 2
    layers = list(query_layers(bn, {11: 1}, {0: 0}, state_cap=bound))
    assert sum(len(layer) for _, layer in layers) <= bound
    # The refusal comes before the first layer.
    with pytest.raises(StateCapError, match=f"up to {bound} states, above the cap of {bound - 1}"):
        next(query_layers(bn, {11: 1}, {0: 0}, state_cap=bound - 1))
