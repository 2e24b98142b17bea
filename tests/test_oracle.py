import ast
import random
import sys
import tracemalloc
from itertools import product
from math import fsum
from pathlib import Path

import pytest

from bnmc import oracle
from bnmc.errors import (
    EnumerationCapError,
    IllConditionedQueryError,
    MalformedQueryError,
)
from bnmc.gen import random_network, random_query
from bnmc.network import Cpt, Variable, network_from_cpts
from bnmc.oracle import oracle_infer
from bnmc.reach import ILL_CONDITIONED_EPS, ReachQuery

from conftest import chain_bn, copy_chain_bn, enumerate_mass, permuted_ids


def test_oracle_quoted_value(student_mood):
    q = ReachQuery(evidence={1: 1}, hypothesis={0: 0, 2: 0, 3: 0})
    assert oracle_infer(student_mood, q) == pytest.approx(0.27, abs=1e-9)


def test_oracle_empty_query(student_mood):
    assert oracle_infer(student_mood, ReachQuery()) == 1.0


def test_oracle_conflicting_query_rejected():
    with pytest.raises(MalformedQueryError):
        ReachQuery(evidence={0: 0}, hypothesis={0: 1})


def test_oracle_matches_independent_enumeration(student_mood):
    q = ReachQuery(evidence={2: 0}, hypothesis={3: 0})
    expected = enumerate_mass(student_mood, {2: 0, 3: 0}) / enumerate_mass(
        student_mood, {2: 0}
    )
    assert oracle_infer(student_mood, q) == pytest.approx(expected, abs=1e-12)


def test_oracle_bit_equal_to_filtered_full_enumeration():
    rng = random.Random(79)
    cases = []
    for _ in range(20):
        bn = random_network(rng, max_vars=5, max_domain=3)
        cases.append((bn, random_query(rng, bn)))
    # Structural zeros and domains up to 4, each network also asked with the
    # empty binding and with every variable bound.
    for _ in range(20):
        bn = random_network(
            rng, max_vars=5, max_domain=4, edge_prob=0.6, zero_entry_prob=0.3
        )
        full = {v.id: rng.randrange(len(v.domain)) for v in bn.variables}
        evidence = {i: d for i, d in full.items() if rng.random() < 0.5}
        hypothesis = {i: d for i, d in full.items() if i not in evidence}
        cases += [
            (bn, random_query(rng, bn)),
            (bn, ReachQuery()),
            (bn, ReachQuery(evidence=evidence, hypothesis=hypothesis)),
        ]
    cases.append((network_from_cpts("empty", [], []), ReachQuery()))
    # Shuffled ids: a CPT may be declared before the CPT of a parent.
    for _ in range(40):
        bn = permuted_ids(
            random_network(rng, max_vars=6, max_domain=3, edge_prob=0.6, zero_entry_prob=0.2),
            rng,
        )
        cases += [(bn, random_query(rng, bn)), (bn, ReachQuery())]
    # Parentless, one-parent and multi-parent CPTs all occur.
    assert {min(len(c.parents), 2) for bn, _ in cases for c in bn.cpts} == {0, 1, 2}
    assert sum(any(u > c.owner for c in bn.cpts for u in c.parents) for bn, _ in cases) > 20

    for bn, q in cases:

        def mass(binding):
            terms = []
            for values in product(*(range(len(v.domain)) for v in bn.variables)):
                if all(values[i] == d for i, d in binding.items()):
                    p = 1.0
                    for cpt in bn.cpts:
                        p *= cpt.rows[tuple(values[u] for u in cpt.parents)][values[cpt.owner]]
                    terms.append(p)
            return fsum(terms)

        if mass(q.evidence) < ILL_CONDITIONED_EPS:
            with pytest.raises(IllConditionedQueryError):
                oracle_infer(bn, q)
            continue
        assert oracle_infer(bn, q) == mass(q.combined()) / mass(q.evidence)


def test_oracle_ill_conditioned():
    a = Variable(id=0, name="a", domain=("0", "1"))
    bn = network_from_cpts(
        "point", [a], [Cpt(owner=0, parents=(), rows={(): (1.0, 0.0)})]
    )
    with pytest.raises(IllConditionedQueryError):
        oracle_infer(bn, ReachQuery(evidence={0: 1}))


def test_oracle_size_cap(student_mood):
    with pytest.raises(EnumerationCapError):
        oracle_infer(student_mood, ReachQuery(), enum_cap=8)


def test_oracle_cap_counts_assignments_consistent_with_evidence():
    # 2^24 full assignments, but with v1..v23 bound only v0 is enumerated.
    bn = chain_bn(24)
    q = ReachQuery(evidence={i: i % 2 for i in range(1, 24)}, hypothesis={0: 0})
    # v0 depends on the evidence only through v1: P(v0=0 | v1=1).
    prior, child = bn.cpts[0].rows[()], bn.cpts[1].rows
    joint = [prior[u] * child[(u,)][1] for u in range(2)]
    expected = joint[0] / sum(joint)
    assert oracle_infer(bn, q) == pytest.approx(expected, abs=1e-12)
    assert oracle_infer(bn, q, enum_cap=2) == oracle_infer(bn, q)
    with pytest.raises(EnumerationCapError):
        oracle_infer(bn, q, enum_cap=1)


def test_oracle_refuses_malformed_query_before_counting():
    # Both queries leave at least 2^29 assignments free, above the default cap.
    bn = chain_bn(30)
    for q in (ReachQuery(evidence={0: 5}), ReachQuery(evidence={99: 0})):
        with pytest.raises(MalformedQueryError):
            oracle_infer(bn, q)


def test_oracle_answers_a_3000_variable_copy_chain_exactly():
    # 2998 evidence variables leave v0 and v2999 free: four assignments.
    bn = copy_chain_bn(3000)
    evidence = {i: 1 for i in range(1, 2999)}
    assert oracle_infer(bn, ReachQuery(evidence=evidence, hypothesis={2999: 1})) == 1.0
    assert oracle_infer(bn, ReachQuery(evidence=evidence, hypothesis={2999: 0})) == 0.0


def test_oracle_refuses_beyond_2_to_the_64_whatever_the_cap():
    bn = chain_bn(1200)
    with pytest.raises(EnumerationCapError, match="2\\^64"):
        oracle_infer(bn, ReachQuery(hypothesis={1199: 1}), enum_cap=10**400)
    # 2^65 assignments are within a cap of 2^65, but not within the ceiling.
    with pytest.raises(EnumerationCapError, match="2\\^64"):
        oracle_infer(chain_bn(66), ReachQuery(evidence={65: 1}), enum_cap=2**65)


def test_oracle_streams_the_enumeration():
    # 2^14 assignments: a list of them would take megabytes and a list of
    # their terms over 400 KiB; the enumeration holds one assignment at a time.
    bn = chain_bn(15)
    q = ReachQuery(evidence={14: 1}, hypothesis={0: 0})
    tracemalloc.start()
    try:
        oracle_infer(bn, q)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024


def test_oracle_imports_no_other_engine():
    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    allowed = {"errors", "network", "reach"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                assert node.level == 1 and node.module in allowed, ast.dump(node)
                continue
            names = [node.module]
        else:
            continue
        for name in names:
            assert name.split(".")[0] in sys.stdlib_module_names, name


def test_package_imports_only_the_standard_library():
    # The package stays pure stdlib: every absolute import is a standard module.
    modules = sorted(Path(oracle.__file__).parent.glob("*.py"))
    assert len(modules) > 10
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, (path.name, name)
