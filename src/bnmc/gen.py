"""Seeded random networks and queries for cross-engine checks and benchmarks."""

from __future__ import annotations

import random
from functools import reduce
from operator import add

from .network import BayesianNetwork, Cpt, Variable, network_from_cpts
from .reach import ReachQuery


def _left_sum(values: list[float]) -> float:
    # Left to right, as `sum` adds floats before Python 3.12, which compensates:
    # so one seed gives the same network on every supported version.
    return reduce(add, values, 0.0)


def _random_row(rng: random.Random, size: int, zero_entry_prob: float) -> tuple[float, ...]:
    weights = [rng.random() + 1e-3 for _ in range(size)]
    if size > 1 and rng.random() < zero_entry_prob:
        weights[rng.randrange(size)] = 0.0
    total = _left_sum(weights)
    row = [w / total for w in weights]
    # Pin the largest entry so the row sums to exactly 1.0 in binary64.
    top = row.index(max(row))
    row[top] = 1.0 - (_left_sum(row) - row[top])
    return tuple(row)


def random_network(
    rng: random.Random,
    *,
    n_vars: int | None = None,
    max_vars: int = 6,
    min_domain: int = 2,
    max_domain: int = 4,
    edge_prob: float = 0.4,
    zero_entry_prob: float = 0.0,
    name: str = "random",
) -> BayesianNetwork:
    """A random DAG over `n_vars` (or 1..max_vars) discrete variables.

    With `zero_entry_prob` > 0 some CPT rows get a structural zero, which
    makes zero-probability evidence (ill-conditioned queries) reachable.
    """
    n = n_vars if n_vars is not None else rng.randint(1, max_vars)
    variables = tuple(
        Variable(
            id=i,
            name=f"v{i}",
            domain=tuple(str(d) for d in range(rng.randint(min_domain, max_domain))),
        )
        for i in range(n)
    )
    parents: dict[int, list[int]] = {i: [] for i in range(n)}
    for child in range(n):
        for parent in range(child):
            if rng.random() < edge_prob:
                parents[child].append(parent)
    cpts = []
    for i in range(n):
        sizes = [len(variables[p].domain) for p in parents[i]]
        keys = [()]
        for s in sizes:
            keys = [k + (d,) for k in keys for d in range(s)]
        rows = {
            key: _random_row(rng, len(variables[i].domain), zero_entry_prob)
            for key in keys
        }
        cpts.append(Cpt(owner=i, parents=tuple(parents[i]), rows=rows))
    return network_from_cpts(name, variables, cpts)


def random_query(
    rng: random.Random,
    bn: BayesianNetwork,
    *,
    max_evidence: int = 2,
    max_hypothesis: int = 2,
) -> ReachQuery:
    """Random query over disjoint evidence and hypothesis variables."""
    n = len(bn.variables)
    ids = list(range(n))
    rng.shuffle(ids)
    n_ev = rng.randint(0, min(max_evidence, n))
    n_hyp = rng.randint(0, min(max_hypothesis, n - n_ev))
    evidence = {
        i: rng.randrange(len(bn.variables[i].domain)) for i in sorted(ids[:n_ev])
    }
    hypothesis = {
        i: rng.randrange(len(bn.variables[i].domain))
        for i in sorted(ids[n_ev : n_ev + n_hyp])
    }
    return ReachQuery(evidence=evidence, hypothesis=hypothesis)
