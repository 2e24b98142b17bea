import random
from dataclasses import replace
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnmc.errors import CycleError, MalformedQueryError
from bnmc.gen import random_network
from bnmc.network import (
    BayesianNetwork,
    Cpt,
    Variable,
    joint_probability,
    markov_blanket,
    network_from_cpts,
    stats,
    subnetwork,
    topological_order,
    validate,
)

from conftest import permuted_ids, single_var_bn


def test_validate_fixture_clean(student_mood):
    assert validate(student_mood) == []


def test_validate_single_variable():
    assert validate(single_var_bn(0.5)) == []


def test_validate_reports_bad_row_sum():
    v = Variable(id=0, name="x", domain=("a", "b"))
    cpt = Cpt(owner=0, parents=(), rows={(): (0.4, 0.5)})
    bn = network_from_cpts("bad", [v], [cpt])
    problems = validate(bn)
    assert len(problems) == 1
    assert "sum" in problems[0] and "x" in problems[0]


def test_validate_rejects_nan_entries():
    v = Variable(id=0, name="x", domain=("a", "b"))
    cpt = Cpt(owner=0, parents=(), rows={(): (float("nan"), 0.5)})
    problems = validate(network_from_cpts("nan", [v], [cpt]))
    assert any("outside [0, 1]" in p for p in problems)
    assert any("sum" in p for p in problems)


def test_validate_reports_missing_row(student_mood):
    grade = student_mood.cpts[2]
    rows = dict(grade.rows)
    rows.pop((1, 1))
    broken = BayesianNetwork(
        name=student_mood.name,
        variables=student_mood.variables,
        cpts=student_mood.cpts[:2] + (Cpt(2, grade.parents, rows),) + student_mood.cpts[3:],
    )
    problems = validate(broken)
    assert any("missing CPT row" in p for p in problems)


def test_validate_counts_missing_rows_without_listing_them():
    # 2^26 parent combinations and one row: one message, naming the first
    # missing row and how many are missing.
    n = 26
    variables = [Variable(id=i, name=f"v{i}", domain=("0", "1")) for i in range(n + 1)]
    cpts = [Cpt(owner=i, parents=(), rows={(): (0.5, 0.5)}) for i in range(n)]
    cpts.append(Cpt(owner=n, parents=tuple(range(n)), rows={(0,) * n: (0.5, 0.5)}))
    assert validate(network_from_cpts("wide", variables, cpts)) == [
        f"variable v{n}: missing CPT row for parents {(0,) * (n - 1) + (1,)} "
        f"({2**n - 1} of {2**n} missing)"
    ]


def test_validate_reports_unexpected_rows_apart_from_missing_ones():
    variables = [Variable(id=i, name=n, domain=("0", "1")) for i, n in enumerate("ab")]
    rows = {(0,): (0.5, 0.5), (2,): (0.5, 0.5)}
    cpts = [Cpt(owner=0, parents=(), rows={(): (0.5, 0.5)}), Cpt(owner=1, parents=(0,), rows=rows)]
    assert validate(network_from_cpts("odd", variables, cpts)) == [
        "variable b: missing CPT row for parents (1,) (1 of 2 missing)",
        "variable b: unexpected CPT row for parents (2,)",
    ]


def test_validate_reports_cycle():
    a = Variable(id=0, name="a", domain=("0", "1"))
    b = Variable(id=1, name="b", domain=("0", "1"))
    row = {(0,): (0.5, 0.5), (1,): (0.5, 0.5)}
    bn = network_from_cpts(
        "cyclic",
        [a, b],
        [Cpt(owner=0, parents=(1,), rows=dict(row)), Cpt(owner=1, parents=(0,), rows=dict(row))],
    )
    assert any("cycle" in p for p in validate(bn))


@pytest.mark.parametrize(
    "parents, message",
    [
        ({1: (5,)}, "variable v1: CPT parents (5,) must be distinct known ids, ascending"),
        ({1: (-1,)}, "variable v1: CPT parents (-1,) must be distinct known ids, ascending"),
        ({2: (0, 0)}, "variable v2: CPT parents (0, 0) must be distinct known ids, ascending"),
        ({2: (1, 0)}, "variable v2: CPT parents (1, 0) must be distinct known ids, ascending"),
        ({1: (1,)}, "cycle detected involving edge v1 -> v1"),
    ],
    ids=["unknown", "negative", "repeated", "unsorted", "self"],
)
def test_validate_reports_malformed_parents_without_raising(parents, message):
    variables = [Variable(id=i, name=f"v{i}", domain=("0", "1")) for i in range(3)]
    cpts = []
    for i in range(3):
        ps = parents.get(i, ())
        rows = {key: (0.5, 0.5) for key in product(range(2), repeat=len(ps))}
        cpts.append(Cpt(owner=i, parents=ps, rows=rows))
    assert validate(network_from_cpts("x", variables, cpts)) == [message]


def _three_binaries() -> BayesianNetwork:
    variables = tuple(Variable(id=i, name=f"v{i}", domain=("0", "1")) for i in range(3))
    cpts = (
        Cpt(owner=0, parents=(), rows={(): (0.5, 0.5)}),
        Cpt(owner=1, parents=(0,), rows={(0,): (0.5, 0.5), (1,): (0.2, 0.8)}),
        Cpt(owner=2, parents=(), rows={(): (0.5, 0.5)}),
    )
    return BayesianNetwork(name="x", variables=variables, cpts=cpts)


def _with_v2(bn: BayesianNetwork, **changes) -> BayesianNetwork:
    return replace(bn, variables=(*bn.variables[:2], replace(bn.variables[2], **changes)))


@pytest.mark.parametrize(
    "edit, messages",
    [
        (lambda bn: _with_v2(bn, id=5), ["variable ids must be dense 0..2, got [0, 1, 5]"]),
        (
            lambda bn: replace(
                _with_v2(bn, domain=()),
                cpts=(*bn.cpts[:2], Cpt(owner=2, parents=(), rows={(): ()})),
            ),
            ["variable v2: empty domain", "variable v2, row (): probabilities sum to 0"],
        ),
        (lambda bn: _with_v2(bn, domain=("a", "a")), ["variable v2: duplicate domain labels"]),
        (lambda bn: _with_v2(bn, name="v0"), ["duplicate variable names"]),
        (lambda bn: replace(bn, cpts=bn.cpts[:2]), ["expected 3 CPTs, got 2"]),
        (
            lambda bn: replace(bn, cpts=(bn.cpts[1], bn.cpts[0], bn.cpts[2])),
            ["CPTs must be ordered by owner id, exactly one per variable"],
        ),
        (
            lambda bn: replace(
                bn,
                cpts=(
                    bn.cpts[0],
                    Cpt(owner=1, parents=(0,), rows={(0,): (0.5, 0.5), (1,): (0.2, 0.3, 0.5)}),
                    bn.cpts[2],
                ),
            ),
            ["variable v1, row (1,): 3 entries for domain size 2"],
        ),
    ],
    ids=["sparse-ids", "empty-domain", "duplicate-labels", "duplicate-names",
         "cpt-count", "cpt-order", "row-width"],
)
def test_validate_reports_networks_built_in_code(edit, messages):
    assert validate(_three_binaries()) == []
    assert validate(edit(_three_binaries())) == messages


def test_topological_order_fixture(student_mood):
    # Kahn with ascending-id tie-break: both roots first, then Grade, Mood.
    assert topological_order(student_mood) == [0, 1, 2, 3]


def test_topological_order_edgeless():
    variables = [Variable(id=i, name=f"v{i}", domain=("0",)) for i in range(3)]
    cpts = [Cpt(owner=i, parents=(), rows={(): (1.0,)}) for i in range(3)]
    bn = network_from_cpts("edgeless", variables, cpts)
    assert topological_order(bn) == [0, 1, 2]


def test_topological_order_cycle_names_edge():
    a = Variable(id=0, name="a", domain=("0", "1"))
    b = Variable(id=1, name="b", domain=("0", "1"))
    row = {(0,): (0.5, 0.5), (1,): (0.5, 0.5)}
    bn = network_from_cpts(
        "cyclic",
        [a, b],
        [Cpt(owner=0, parents=(1,), rows=dict(row)), Cpt(owner=1, parents=(0,), rows=dict(row))],
    )
    with pytest.raises(CycleError, match=r"\d+ -> \d+"):
        topological_order(bn)


def test_joint_probability_quoted_value(student_mood):
    # Dif=0, Prep=1, Grade=0, Mood=0: 0.6 * 0.3 * 0.5 * 0.9
    assert joint_probability(student_mood, {0: 0, 1: 1, 2: 0, 3: 0}) == pytest.approx(
        0.081, abs=1e-12
    )


def test_joint_probability_deterministic_chain():
    variables = [Variable(id=i, name=f"v{i}", domain=("0", "1")) for i in range(3)]
    cpts = [Cpt(owner=0, parents=(), rows={(): (0.0, 1.0)})]
    for i in (1, 2):
        cpts.append(
            Cpt(owner=i, parents=(i - 1,), rows={(0,): (1.0, 0.0), (1,): (0.0, 1.0)})
        )
    bn = network_from_cpts("det", variables, cpts)
    assert joint_probability(bn, {0: 1, 1: 1, 2: 1}) == 1.0
    assert joint_probability(bn, {0: 1, 1: 0, 2: 1}) == 0.0


def test_joint_probability_rejects_partial(student_mood):
    with pytest.raises(MalformedQueryError, match="missing"):
        joint_probability(student_mood, {0: 0})


def test_joint_probabilities_sum_to_one():
    rng = random.Random(5)
    bn = random_network(rng, n_vars=5, max_domain=3)
    sizes = [len(v.domain) for v in bn.variables]
    total = sum(
        joint_probability(bn, dict(enumerate(values)))
        for values in product(*(range(s) for s in sizes))
    )
    assert total == pytest.approx(1.0, abs=1e-9)


def test_joint_probability_relabeling_invariant():
    rng = random.Random(11)
    bn = random_network(rng, n_vars=4, max_domain=3)
    order = list(range(4))
    rng.shuffle(order)  # new id of old variable i is order[i]
    remap = {old: new for old, new in enumerate(order)}
    variables = tuple(
        sorted(
            (Variable(id=remap[v.id], name=v.name, domain=v.domain) for v in bn.variables),
            key=lambda v: v.id,
        )
    )
    cpts_by_new = {}
    for cpt in bn.cpts:
        new_parents = tuple(sorted(remap[p] for p in cpt.parents))
        old_parent_of_new = {remap[p]: p for p in cpt.parents}
        old_pos = {p: i for i, p in enumerate(cpt.parents)}
        rows = {}
        for key, row in cpt.rows.items():
            new_key = tuple(key[old_pos[old_parent_of_new[np]]] for np in new_parents)
            rows[new_key] = row
        cpts_by_new[remap[cpt.owner]] = Cpt(
            owner=remap[cpt.owner], parents=new_parents, rows=rows
        )
    relabeled = network_from_cpts(
        bn.name, variables, [cpts_by_new[i] for i in range(4)]
    )
    assert validate(relabeled) == []
    for values in product(*(range(len(v.domain)) for v in bn.variables)):
        original = joint_probability(bn, dict(enumerate(values)))
        moved = joint_probability(
            relabeled, {remap[i]: d for i, d in enumerate(values)}
        )
        assert moved == pytest.approx(original, abs=1e-15)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_topological_order_respects_edges(seed):
    bn = random_network(random.Random(seed), max_vars=6)
    order = topological_order(bn)
    assert sorted(order) == [v.id for v in bn.variables]
    position = {v: i for i, v in enumerate(order)}
    assert all(position[p] < position[cpt.owner] for cpt in bn.cpts for p in cpt.parents)


def test_markov_blanket_fixture(student_mood):
    # Grade: parents Dif, Prep; child Mood; no spouses beyond parents.
    assert markov_blanket(student_mood, 2) == {0, 1, 3}


def test_markov_blanket_isolated():
    bn = single_var_bn()
    assert markov_blanket(bn, 0) == set()


def test_markov_blanket_spouses():
    a = Variable(id=0, name="a", domain=("0", "1"))
    b = Variable(id=1, name="b", domain=("0", "1"))
    c = Variable(id=2, name="c", domain=("0", "1"))
    root = {(): (0.5, 0.5)}
    joint_rows = {k: (0.5, 0.5) for k in product(range(2), repeat=2)}
    bn = network_from_cpts(
        "vee",
        [a, b, c],
        [
            Cpt(owner=0, parents=(), rows=dict(root)),
            Cpt(owner=1, parents=(), rows=dict(root)),
            Cpt(owner=2, parents=(0, 1), rows=joint_rows),
        ],
    )
    assert markov_blanket(bn, 0) == {1, 2}


def test_markov_blanket_unknown_id(student_mood):
    with pytest.raises(MalformedQueryError):
        markov_blanket(student_mood, 9)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_markov_blanket_symmetry(seed):
    bn = random_network(random.Random(seed), max_vars=6)
    for v in bn.variables:
        for w in bn.variables:
            assert (w.id in markov_blanket(bn, v.id)) == (
                v.id in markov_blanket(bn, w.id)
            )


def test_blankets_and_stats_match_the_edge_list_definition():
    # The textbook definitions, over an explicit list of (parent, child) edges.
    for seed in range(100):
        rng = random.Random(seed)
        bn = random_network(rng, max_vars=8, edge_prob=rng.random())
        for net in (bn, permuted_ids(bn, rng)):
            edges = [(p, cpt.owner) for cpt in net.cpts for p in cpt.parents]
            sizes = []
            for v in net.variables:
                parents = {p for p, c in edges if c == v.id}
                children = {c for p, c in edges if p == v.id}
                spouses = {p for p, c in edges if c in children and p != v.id}
                assert markov_blanket(net, v.id) == parents | children | spouses
                sizes.append(len(parents | children | spouses))
            s = stats(net)
            assert s.vertex_count == len(net.variables)
            assert s.edge_count == len(set(edges))
            assert s.max_in_degree == max(sum(c == v.id for _, c in edges) for v in net.variables)
            assert s.avg_markov_blanket == Fraction(sum(sizes), len(sizes))


def test_stats_fixture(student_mood):
    s = stats(student_mood)
    assert s.vertex_count == 4
    assert s.edge_count == 3
    assert s.max_in_degree == 2
    assert s.max_domain_size == 2
    assert s.avg_markov_blanket == Fraction(2)
    # Free parameters: 1 (Dif) + 1 (Prep) + 4 (Grade) + 2 (Mood).
    assert s.parameter_count == 8


def test_stats_empty_network():
    bn = network_from_cpts("empty", [], [])
    s = stats(bn)
    assert (s.vertex_count, s.edge_count, s.max_in_degree, s.max_domain_size) == (0, 0, 0, 0)
    assert s.avg_markov_blanket == 0
    assert s.parameter_count == 0


def test_stats_eight_variable_diamond_shape():
    # Two roots, a two-parent collider feeding two sinks, plus a side path:
    # the classic chest-clinic wiring. Statistics depend on structure only.
    edges = [(0, 2), (1, 3), (1, 4), (2, 5), (3, 5), (5, 6), (5, 7), (4, 7)]
    parents = {i: tuple(sorted(p for p, c in edges if c == i)) for i in range(8)}
    variables = [Variable(id=i, name=f"n{i}", domain=("0", "1")) for i in range(8)]
    cpts = []
    for i in range(8):
        keys = [()]
        for _ in parents[i]:
            keys = [k + (d,) for k in keys for d in range(2)]
        cpts.append(
            Cpt(owner=i, parents=parents[i], rows={k: (0.5, 0.5) for k in keys})
        )
    bn = network_from_cpts("synthetic8", variables, cpts)
    assert validate(bn) == []
    s = stats(bn)
    assert (s.vertex_count, s.edge_count, s.max_in_degree, s.max_domain_size) == (8, 8, 2, 2)
    assert s.avg_markov_blanket == Fraction(20, 8)
    assert s.parameter_count == 18


def test_subnetwork_requires_parent_closure(student_mood):
    with pytest.raises(ValueError, match="closed under parents"):
        subnetwork(student_mood, [2])  # Grade without Dif, Prep


def test_subnetwork_dpg(student_mood_dpg):
    assert [v.name for v in student_mood_dpg.variables] == ["Dif", "Prep", "Grade"]
    assert validate(student_mood_dpg) == []
