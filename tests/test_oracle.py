import random
from itertools import product
from math import fsum

import pytest

from bnmc.errors import (
    EnumerationCapError,
    IllConditionedQueryError,
    MalformedQueryError,
)
from bnmc.gen import random_network, random_query
from bnmc.network import Cpt, Variable, network_from_cpts
from bnmc.oracle import oracle_infer
from bnmc.reach import ReachQuery

from conftest import enumerate_mass


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
    for _ in range(20):
        bn = random_network(rng, max_vars=5, max_domain=3)
        q = random_query(rng, bn)

        def mass(binding):
            terms = []
            for values in product(*(range(len(v.domain)) for v in bn.variables)):
                if all(values[i] == d for i, d in binding.items()):
                    p = 1.0
                    for cpt in bn.cpts:
                        p *= cpt.rows[tuple(values[u] for u in cpt.parents)][values[cpt.owner]]
                    terms.append(p)
            return fsum(terms)

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
