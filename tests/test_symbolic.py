import gc
import hashlib
import random
import weakref
from itertools import product

import pytest

from bnmc.bif import document_to_network, parse_bif_document, write_bif
from bnmc.chain import query_plan
from bnmc.errors import IllConditionedQueryError
from bnmc.gen import random_network, random_query
from bnmc.network import (
    Cpt,
    Variable,
    joint_probability,
    network_from_cpts,
    topological_order,
)
from bnmc.oracle import oracle_infer
from bnmc.reach import ReachQuery
from bnmc.symbolic import (
    _restricted_mass,
    bench_evidence,
    bits_of_assignment,
    compile_network,
    infer,
)


def three_valued_bn():
    v = Variable(id=0, name="w", domain=("a", "b", "c"))
    return network_from_cpts(
        "tri", [v], [Cpt(owner=0, parents=(), rows={(): (0.2, 0.3, 0.5)})]
    )


def test_encoding_widths():
    sym = compile_network(three_valued_bn())
    assert sym.manager.variables == ("w[0]", "w[1]")
    assert sym.levels[0] == range(2)
    assert bits_of_assignment(sym, {0: 2}) == {"w[0]": 1, "w[1]": 0}


def test_compile_joint_quoted_path_value(student_mood_dpg):
    sym = compile_network(student_mood_dpg)
    e = bits_of_assignment(sym, {0: 1, 1: 1, 2: 1})
    assert sym.manager.evaluate(sym.joint, e) == pytest.approx(0.114, abs=1e-12)


def test_compile_independent_pair_matches_product():
    a = Variable(id=0, name="a", domain=("0", "1"))
    b = Variable(id=1, name="b", domain=("0", "1"))
    bn = network_from_cpts(
        "pair",
        [a, b],
        [
            Cpt(owner=0, parents=(), rows={(): (0.25, 0.75)}),
            Cpt(owner=1, parents=(), rows={(): (0.4, 0.6)}),
        ],
    )
    sym = compile_network(bn)
    for va, vb in product(range(2), repeat=2):
        e = bits_of_assignment(sym, {0: va, 1: vb})
        expected = joint_probability(bn, {0: va, 1: vb})
        assert sym.manager.evaluate(sym.joint, e) == pytest.approx(expected, abs=1e-15)


def test_invalid_bit_pattern_is_zero():
    sym = compile_network(three_valued_bn())
    assert sym.manager.evaluate(sym.joint, {"w[0]": 1, "w[1]": 1}) == 0.0


def test_joint_normalizes_with_invalid_patterns():
    rng = random.Random(23)
    for _ in range(10):
        bn = random_network(rng, max_vars=4, max_domain=4)
        sym = compile_network(bn)
        total = sym.manager.sum_abstract(sym.joint, sym.manager.variables)
        assert sym.manager.terminal_value(total) == pytest.approx(1.0, abs=1e-9)


def test_infer_quoted_conditional(student_mood):
    sym = compile_network(student_mood)
    q = ReachQuery(evidence={1: 1}, hypothesis={0: 0, 2: 0, 3: 0})
    assert infer(sym, q) == pytest.approx(0.27, abs=1e-9)


def test_infer_full_hypothesis_no_evidence(student_mood):
    sym = compile_network(student_mood)
    q = ReachQuery(hypothesis={0: 0, 1: 1, 2: 0, 3: 0})
    assert infer(sym, q) == pytest.approx(0.081, abs=1e-12)


def test_infer_ill_conditioned():
    a = Variable(id=0, name="a", domain=("0", "1"))
    bn = network_from_cpts(
        "point", [a], [Cpt(owner=0, parents=(), rows={(): (1.0, 0.0)})]
    )
    sym = compile_network(bn)
    with pytest.raises(IllConditionedQueryError):
        infer(sym, ReachQuery(evidence={0: 1}))


def test_infer_matches_oracle_on_random_networks():
    rng = random.Random(31)
    for _ in range(20):
        bn = random_network(rng, max_vars=6, max_domain=4, zero_entry_prob=0.15)
        sym = compile_network(bn)
        for _ in range(5):
            q = random_query(rng, bn)
            try:
                expected = oracle_infer(bn, q)
            except IllConditionedQueryError:
                with pytest.raises(IllConditionedQueryError):
                    infer(sym, q)
                continue
            assert infer(sym, q) == pytest.approx(expected, abs=1e-9)


def test_elimination_matches_oracle_on_random_networks():
    rng = random.Random(67)
    sizes, ill = set(), 0
    for _ in range(30):
        bn = random_network(rng, max_vars=6, max_domain=5, zero_entry_prob=0.3)
        sizes.update(len(v.domain) for v in bn.variables)
        sym = compile_network(bn)
        for _ in range(4):
            q = random_query(rng, bn, max_evidence=3)
            try:
                expected = oracle_infer(bn, q)
            except IllConditionedQueryError:
                ill += 1
                with pytest.raises(IllConditionedQueryError):
                    infer(sym, q)
                continue
            assert abs(infer(sym, q) - expected) <= 1e-12
    assert {3, 5} <= sizes and ill > 0


def test_inference_never_builds_the_joint(student_mood):
    sym = compile_network(student_mood)
    infer(sym, ReachQuery(evidence={1: 1}, hypothesis={0: 0}))
    live = sym.manager.live_nodes
    joint = sym.joint
    assert sym.manager.live_nodes > live
    live = sym.manager.live_nodes
    assert sym.joint == joint and sym.manager.live_nodes == live


def test_compiled_model_grows_no_instance_state(student_mood):
    sym = compile_network(student_mood)
    fields = set(vars(sym))
    infer(sym, ReachQuery(evidence={1: 1}, hypothesis={0: 0}))
    infer(sym, ReachQuery(evidence={2: 0}, hypothesis={3: 1}))
    sym.joint, sym.joint
    assert set(vars(sym)) == fields


def test_repeated_query_is_memoized(student_mood):
    sym = compile_network(student_mood)
    q = ReachQuery(evidence={1: 1}, hypothesis={0: 0, 2: 0})
    first = infer(sym, q)
    live, masses = sym.manager.live_nodes, dict(sym.masses)
    assert infer(sym, q) == first
    assert sym.manager.live_nodes == live and sym.masses == masses


def test_empty_query_is_exactly_one_and_builds_nothing(student_mood):
    sym = compile_network(student_mood)
    live = sym.manager.live_nodes
    assert infer(sym, ReachQuery()) == 1.0
    assert sym.manager.live_nodes == live


def test_barren_tail_builds_no_node():
    """A mass on the head of a chain does the same work whatever the tail."""
    from conftest import chain_bn, chain_forward

    head = chain_bn(8)  # chain_bn(n) starts with the same seeded CPTs
    growth = []
    for tail in (10, 40):
        sym = compile_network(chain_bn(8 + tail))
        live = sym.manager.live_nodes
        mass = _restricted_mass(sym, {0: 0, 7: 1})
        growth.append(sym.manager.live_nodes - live)
        assert abs(mass - chain_forward(head, (0,))) <= 1e-12
    assert growth[0] == growth[1] > 0


def test_long_chain_matches_forward_pass():
    from conftest import chain_bn, chain_forward

    bn = chain_bn(60)
    got = infer(compile_network(bn), ReachQuery(evidence={59: 1}, hypothesis={0: 0}))
    assert abs(got - chain_forward(bn, (0,)) / chain_forward(bn, (0, 1))) <= 1e-12


def test_and_chain_elimination_follows_the_query_plan():
    # In the plan each root sits just before its gate, so every message is
    # over at most two variables; a message over all the roots would take
    # tens of thousands of nodes.
    from conftest import and_chain_bn

    n = 200
    sym = compile_network(and_chain_bn(n))
    assert list(sym.plan) == query_plan(sym.network)[0]
    assert abs(infer(sym, ReachQuery(hypothesis={2 * n - 1: 1})) - 0.9**n) <= 1e-12 * 0.9**n
    assert sym.manager.live_nodes < 10_000


def test_compile_enumerate_equivalence():
    rng = random.Random(41)
    for _ in range(10):
        bn = random_network(rng, max_vars=5, max_domain=4)
        sym = compile_network(bn)
        assert len(sym.manager.variables) <= 16
        for values in product(*(range(len(v.domain)) for v in bn.variables)):
            assignment = dict(enumerate(values))
            lhs = sym.manager.evaluate(sym.joint, bits_of_assignment(sym, assignment))
            assert lhs == pytest.approx(
                joint_probability(bn, assignment), abs=1e-12
            )


def test_joint_node_count_sane(student_mood):
    # Terminal-inclusive count can never exceed the full decision tree.
    sym = compile_network(student_mood)
    bits = len(sym.manager.variables)
    assert sym.manager.node_count(sym.joint) <= 2 ** (bits + 1) - 1


def test_dpg_joint_not_larger_than_explicit_tree(student_mood_dpg):
    sym = compile_network(student_mood_dpg)
    assert sym.manager.node_count(sym.joint) <= 15


def test_repetitive_structure_shares_subgraphs():
    # Ten i.i.d. biased coins: the joint depends only on the number of ones.
    # Exact-bits terminal hashing keeps rounding near-duplicates apart, so
    # the collapse is to ~n^2 nodes rather than n+1 terminals, still far
    # below the 2^(n+1)-1 node decision tree.
    n = 10
    variables = [Variable(id=i, name=f"c{i}", domain=("0", "1")) for i in range(n)]
    cpts = [Cpt(owner=i, parents=(), rows={(): (0.7, 0.3)}) for i in range(n)]
    bn = network_from_cpts("coins", variables, cpts)
    sym = compile_network(bn)
    assert sym.manager.node_count(sym.joint) <= 250
    total = sym.manager.sum_abstract(sym.joint, sym.manager.variables)
    assert sym.manager.terminal_value(total) == pytest.approx(1.0, abs=1e-9)


def test_compile_respects_topological_bit_order(student_mood):
    """The bits follow the topological order; elimination follows the plan.

    On the AND chain the two differ: the plan interleaves x_i and y_i, while
    every root precedes every gate in the topological order.
    """
    from conftest import and_chain_bn

    for bn in (student_mood, and_chain_bn(4)):
        sym = compile_network(bn)
        order = topological_order(bn)
        expected = [f"{bn.variables[i].name}[0]" for i in order]
        assert list(sym.manager.variables) == expected
        assert sym.plan == tuple(query_plan(sym.network)[0])
    assert [bn.variables[i].name for i in sym.plan] == [
        "x0", "y0", "x1", "y1", "x2", "y2", "x3", "y3"
    ]
    assert list(sym.plan) != order


def test_table_diagrams_pinned_digest():
    """Every CPT diagram of seeded networks, byte for byte.

    The networks have domains of 1 to 5 values. Each is compiled twice: as
    generated (ids already topological) and with its variables declared in
    reverse, so that ids, CPT parent order and topological order disagree.
    The digest was taken from an earlier implementation that decoded every
    leaf's bits one by one.
    """
    rng = random.Random(2027)
    digest = hashlib.sha256()
    sizes, reordered = set(), 0
    for _ in range(60):
        bn = random_network(rng, max_vars=6, min_domain=1, max_domain=5, edge_prob=0.5)
        doc = parse_bif_document(write_bif(bn))
        doc.variables.reverse()
        for net in (bn, document_to_network(doc)):
            sizes.update(len(v.domain) for v in net.variables)
            sym = compile_network(net)
            order = topological_order(net)
            reordered += order != sorted(order)
            for var_id in order:
                digest.update(sym.manager.to_dot(sym.cpt_refs[var_id]).encode())
    assert {1, 2, 3, 4, 5} <= sizes and reordered > 30
    assert digest.hexdigest() == (
        "6e051d2c5c2da94414314d4b6fb8411d2052eb971b684784b7edffe1dd315ea5"
    )


def test_restricted_masses_pinned_digest():
    """Evidence and combined masses of seeded queries, bit for bit.

    The networks have structural zeros and domains of 2 to 4 values; half
    of them have their ids shuffled, so a CPT may precede its parents'. The
    digest was taken from the elimination that built each bucket's full
    product before summing bits out of it.
    """
    from conftest import permuted_ids

    rng = random.Random(2028)
    digest = hashlib.sha256()
    masses, zeros, permuted = 0, 0, 0
    for trial in range(150):
        bn = random_network(rng, max_vars=7, max_domain=4, edge_prob=0.5, zero_entry_prob=0.3)
        if trial % 2:
            bn, permuted = permuted_ids(bn, rng), permuted + 1
        sym = compile_network(bn)
        for _ in range(6):
            q = random_query(rng, bn, max_evidence=3, max_hypothesis=3)
            for binding in (q.evidence, q.combined()):
                mass = _restricted_mass(sym, binding)
                digest.update(mass.hex().encode() + b"\n")
                masses, zeros = masses + 1, zeros + (mass == 0.0)
    assert masses == 1800 and zeros > 50 and permuted == 75
    assert digest.hexdigest() == "21fc631152375b276c817992f27cc53fe76e43b591a8001e9981d0706400875a"


def test_table_leaves_count_table_entries_not_bit_patterns(monkeypatch):
    """A ternary child of six ternary parents costs its 3^7 table entries.

    Padding every value tuple to its 2-bit patterns would cost 4^7 leaves.
    """
    from bnmc.mtbdd import MtbddManager

    roots = [Variable(id=i, name=f"p{i}", domain=("a", "b", "c")) for i in range(6)]
    child = Variable(id=6, name="c", domain=("a", "b", "c"))
    cpts = [Cpt(owner=i, parents=(), rows={(): (0.2, 0.3, 0.5)}) for i in range(6)]
    rows = {
        values: (0.1, 0.2, 0.7) if sum(values) % 2 else (0.6, 0.4, 0.0)
        for values in product(range(3), repeat=6)
    }
    cpts.append(Cpt(owner=6, parents=tuple(range(6)), rows=rows))
    bn = network_from_cpts("star", [*roots, child], cpts)
    calls = 0
    terminal = MtbddManager.terminal

    def counted(self, value):
        nonlocal calls
        calls += 1
        return terminal(self, value)

    monkeypatch.setattr(MtbddManager, "terminal", counted)
    sym = compile_network(bn)
    entries = sum(len(c.rows) * len(bn.variables[c.owner].domain) for c in bn.cpts)
    assert entries + len(bn.cpts) == 2212
    assert calls <= 2212
    monkeypatch.undo()
    assignment = {**{i: i % 3 for i in range(6)}, 6: 2}
    assert infer(sym, ReachQuery(evidence={}, hypothesis=assignment)) == pytest.approx(
        joint_probability(bn, assignment), abs=1e-15
    )


def test_manager_freed_without_cycle_collector(student_mood):
    gc.disable()
    try:
        sym = compile_network(student_mood)
        infer(sym, ReachQuery(evidence={1: 1}, hypothesis={0: 0}))
        manager = weakref.ref(sym.manager)
        del sym
        assert manager() is None
    finally:
        gc.enable()


def test_63_bit_network_compiles_and_answers():
    variables = [Variable(id=i, name=f"v{i}", domain=("0", "1")) for i in range(63)]
    cpts = [Cpt(owner=i, parents=(), rows={(): (0.5, 0.5)}) for i in range(63)]
    sym = compile_network(network_from_cpts("wide", variables, cpts))
    assert len(sym.manager.variables) == 63
    assert infer(sym, ReachQuery(evidence={62: 0}, hypothesis={0: 1})) == 0.5


def test_matches_oracle_on_networks_wider_than_62_bits():
    # All but a few variables bound, so the oracle enumerates only the free
    # ones while the diagrams span every bit.
    rng = random.Random(1862)
    widths, ill = [], 0
    for _ in range(10):
        bn = random_network(
            rng, n_vars=70, min_domain=2, max_domain=3, edge_prob=0.05,
            zero_entry_prob=0.01,
        )
        sym = compile_network(bn)
        widths.append(len(sym.manager.variables))
        for _ in range(3):
            ids = list(range(70))
            rng.shuffle(ids)
            bound = {i: rng.randrange(len(bn.variables[i].domain)) for i in ids[4:]}
            hyp = set(ids[4 : 4 + rng.randint(1, 2)])
            q = ReachQuery(
                evidence={i: d for i, d in bound.items() if i not in hyp},
                hypothesis={i: d for i, d in bound.items() if i in hyp},
            )
            try:
                expected = oracle_infer(bn, q)
            except IllConditionedQueryError:
                ill += 1
                with pytest.raises(IllConditionedQueryError):
                    infer(sym, q)
                continue
            assert abs(infer(sym, q) - expected) <= 1e-12
    assert min(widths) > 62 and 0 < ill < 30


# -- evidence-strategy bench -------------------------------------------------------


def test_bench_zero_evidence_is_marginal(student_mood):
    sym = compile_network(student_mood)
    record = bench_evidence(sym, "first", 0, seed=5)
    assert not record.ill_conditioned
    assert 0.0 <= record.result <= 1.0
    assert record.evidence_count == 0
    assert record.network == "student_mood"


def test_bench_last_strategy_near_full_evidence(student_mood):
    sym = compile_network(student_mood)
    record = bench_evidence(sym, "last", 3, seed=11)
    assert record.ill_conditioned or 0.0 <= record.result <= 1.0


def test_bench_deterministic_given_seed(student_mood):
    sym = compile_network(student_mood)
    a = bench_evidence(sym, "random", 2, seed=99)
    b = bench_evidence(sym, "random", 2, seed=99)
    assert (a.result, a.ill_conditioned) == (b.result, b.ill_conditioned)
    assert a.csv_row()[:4] == b.csv_row()[:4]


def test_bench_rejects_full_evidence(student_mood):
    sym = compile_network(student_mood)
    with pytest.raises(ValueError, match="hypothesis"):
        bench_evidence(sym, "first", 4, seed=0)
    with pytest.raises(ValueError, match="out of range"):
        bench_evidence(sym, "first", 9, seed=0)
    with pytest.raises(ValueError, match="strategy"):
        bench_evidence(sym, "sideways", 1, seed=0)


def test_bench_long_chain_records_timings_per_row():
    from conftest import chain_bn

    sym = compile_network(chain_bn(16))
    for strategy in ("first", "last"):
        for count in (1, 4, 8):
            record = bench_evidence(sym, strategy, count, seed=2)
            assert record.query_time_ns > 0
            assert record.ill_conditioned or 0.0 <= record.result <= 1.0


def test_bench_first_and_last_select_prefix_suffix():
    bn = random_network(random.Random(55), n_vars=6, min_domain=2, max_domain=2)
    sym = compile_network(bn)
    # Reconstruct the selection with the documented RNG contract.
    record = bench_evidence(sym, "first", 2, seed=123)
    rng = random.Random(123)
    order = topological_order(bn)
    expected_evidence = {var_id: rng.randrange(2) for var_id in order[:2]}
    rest = [v for v in order if v not in expected_evidence]
    hyp_var = rng.choice(rest)
    hypothesis = {hyp_var: rng.randrange(2)}
    expected = infer(sym, ReachQuery(evidence=expected_evidence, hypothesis=hypothesis))
    assert record.result == pytest.approx(expected, abs=1e-15)
