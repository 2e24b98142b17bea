"""Seeded inputs of the benchmark workloads.

The generators are copies of `bnmc.gen` and of the test suite's `chain_bn`,
so a change to the package cannot change what the benchmark feeds it. A
structure seed, part of each workload's definition, fixes everything that
sets the amount of work: the DAG, the domain sizes, which CPT rows hold a
structural zero, and the queries. The run seed draws the CPT values. Runs
with different seeds therefore do the same work on different numbers, and
their timings can be compared.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Iterator

from bnmc.network import BayesianNetwork, Cpt, Variable, network_from_cpts


@dataclass(frozen=True)
class Shape:
    """Domain sizes and parent sets (ascending ids) of a DAG over v0..v{n-1},
    and for each variable the CPT rows that hold a structural zero: parent
    key -> index of the zero entry."""

    domains: tuple[int, ...]
    parents: tuple[tuple[int, ...], ...]
    zeros: tuple[dict[tuple[int, ...], int], ...]


@dataclass(frozen=True)
class Request:
    """One query on one network; evidence and hypothesis map id -> value index."""

    bn: BayesianNetwork
    evidence: dict[int, int]
    hypothesis: dict[int, int]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    params: dict
    requests: Callable[[int], Iterator[Request]]
    # The network is set up anew (`setup_repeats` times, the last one kept)
    # at the first request of every session.
    session_size: int
    setup_repeats: int
    # A run ends only after a whole number of rounds. Every round asks the
    # same kind and amount of work, so the metrics do not depend on how many
    # rounds fit in the run.
    round_size: int


def chain_shape(n: int) -> Shape:
    parents = ((),) + tuple((i - 1,) for i in range(1, n))
    return Shape(domains=(2,) * n, parents=parents, zeros=({},) * n)


def _keys(domains, parents):
    """CPT row keys: parent value tuples in `itertools.product` order."""
    return itertools.product(*(range(domains[p]) for p in parents))


def random_shape(
    rng: random.Random,
    *,
    n_vars: int,
    min_domain: int,
    max_domain: int,
    edge_prob: float,
    zero_entry_prob: float = 0.0,
) -> Shape:
    """Domains and edges drawn as `bnmc.gen.random_network` draws them; each
    CPT row holds a zero with probability `zero_entry_prob`, as there."""
    domains = tuple(rng.randint(min_domain, max_domain) for _ in range(n_vars))
    parents = tuple(
        tuple(p for p in range(child) if rng.random() < edge_prob)
        for child in range(n_vars)
    )
    zeros = tuple(
        {
            key: rng.randrange(domains[i])
            for key in _keys(domains, parents[i])
            if domains[i] > 1 and rng.random() < zero_entry_prob
        }
        for i in range(n_vars)
    )
    return Shape(domains=domains, parents=parents, zeros=zeros)


def chain_row(rng: random.Random, size: int, zero: int | None) -> tuple[float, ...]:
    """A `chain_bn` row: generic, bounded away from 0 and 1."""
    p = rng.uniform(0.05, 0.95)
    return (1.0 - p, p)


def random_row(rng: random.Random, size: int, zero: int | None) -> tuple[float, ...]:
    """As `bnmc.gen._random_row`; rows sum to exactly 1.0 in binary64."""
    weights = [rng.random() + 1e-3 for _ in range(size)]
    if zero is not None:
        weights[zero] = 0.0
    total = sum(weights)
    row = [w / total for w in weights]
    top = row.index(max(row))
    row[top] = 1.0 - (sum(row) - row[top])
    return tuple(row)


def network(
    shape: Shape,
    rng: random.Random,
    row: Callable[[random.Random, int, int | None], tuple[float, ...]],
    name: str,
) -> BayesianNetwork:
    variables = [
        Variable(id=i, name=f"v{i}", domain=tuple(str(d) for d in range(size)))
        for i, size in enumerate(shape.domains)
    ]
    cpts = []
    for i, parents in enumerate(shape.parents):
        rows = {
            key: row(rng, shape.domains[i], shape.zeros[i].get(key))
            for key in _keys(shape.domains, parents)
        }
        cpts.append(Cpt(owner=i, parents=parents, rows=rows))
    return network_from_cpts(name, variables, cpts)


def random_query(
    rng: random.Random, domains: tuple[int, ...], max_evidence: int, max_hypothesis: int
) -> tuple[dict[int, int], dict[int, int]]:
    """As `bnmc.gen.random_query`, with at least one evidence and one
    hypothesis variable: disjoint evidence and hypothesis assignments."""
    n = len(domains)
    ids = list(range(n))
    rng.shuffle(ids)
    n_ev = rng.randint(1, min(max_evidence, n - 1))
    n_hyp = rng.randint(1, min(max_hypothesis, n - n_ev))
    evidence = {i: rng.randrange(domains[i]) for i in sorted(ids[:n_ev])}
    hypothesis = {i: rng.randrange(domains[i]) for i in sorted(ids[n_ev : n_ev + n_hyp])}
    return evidence, hypothesis


# -- the workloads -------------------------------------------------------------

# Warm workloads ask DISTINCT queries per session, each REPEATS times in turn.
# The symbolic engine's memos persist within a session, so a fifth of its
# calls meet a query for the first time and the rest repeat one: in every
# run symbolic.p50_ms is a repeated query and symbolic.p90_ms a first one.
DISTINCT, REPEATS = 5, 5

CHAIN = dict(n=10, distinct=DISTINCT, repeats=REPEATS, max_evidence=2, max_hypothesis=2,
             structure_seed=1)

DENSE = dict(
    n_vars=10, min_domain=2, max_domain=3, edge_prob=0.4, zero_entry_prob=0.1,
    distinct=DISTINCT, repeats=REPEATS, max_evidence=3, max_hypothesis=2, structure_seed=28,
)

COLD = dict(
    shapes=50, min_vars=5, max_vars=7, min_domain=2, max_domain=3, edge_prob=0.4,
    zero_entry_prob=0.1, max_evidence=2, max_hypothesis=2, structure_seed=2,
)


def _sessions(bn: BayesianNetwork, queries) -> Iterator[Request]:
    while True:
        for _ in range(REPEATS):
            for ev, hyp in queries:
                yield Request(bn, ev, hyp)


def _chain_deep(seed: int) -> Iterator[Request]:
    p = CHAIN
    shape = chain_shape(p["n"])
    srng = random.Random(p["structure_seed"])
    # The ladder query v{n-1}=1 |- v0=0 and seeded ones.
    queries = [({p["n"] - 1: 1}, {0: 0})] + [
        random_query(srng, shape.domains, p["max_evidence"], p["max_hypothesis"])
        for _ in range(DISTINCT - 1)
    ]
    bn = network(shape, random.Random(f"chain-deep/{seed}"), chain_row, "chain")
    return _sessions(bn, queries)


def _random_dense(seed: int) -> Iterator[Request]:
    p = DENSE
    srng = random.Random(p["structure_seed"])
    shape = random_shape(
        srng, n_vars=p["n_vars"], min_domain=p["min_domain"], max_domain=p["max_domain"],
        edge_prob=p["edge_prob"], zero_entry_prob=p["zero_entry_prob"],
    )
    queries = [
        random_query(srng, shape.domains, p["max_evidence"], p["max_hypothesis"])
        for _ in range(DISTINCT)
    ]
    bn = network(shape, random.Random(f"random-dense/{seed}"), random_row, "dense")
    return _sessions(bn, queries)


def _cold_cli(seed: int) -> Iterator[Request]:
    p = COLD
    srng = random.Random(p["structure_seed"])
    requests = []
    for _ in range(p["shapes"]):
        shape = random_shape(
            srng, n_vars=srng.randint(p["min_vars"], p["max_vars"]),
            min_domain=p["min_domain"], max_domain=p["max_domain"], edge_prob=p["edge_prob"],
            zero_entry_prob=p["zero_entry_prob"],
        )
        requests.append(
            (shape, random_query(srng, shape.domains, p["max_evidence"], p["max_hypothesis"]))
        )
    rng = random.Random(f"cold-cli/{seed}")
    for i in itertools.count():
        shape, (ev, hyp) = requests[i % len(requests)]
        yield Request(network(shape, rng, random_row, f"cold{i}"), ev, hyp)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="chain-deep",
            why="binary chain of treewidth 1 whose chain and MTBDD joint both have "
            "2^(n+1)-1 nodes: joint product and chain build dominate set-up, the "
            "backward sweep dominates explicit queries",
            params=CHAIN,
            requests=_chain_deep,
            session_size=DISTINCT * REPEATS,
            setup_repeats=8,
            round_size=DISTINCT * REPEATS,
        ),
        Workload(
            name="random-dense",
            why="one dense network with wide CPTs, non-power-of-two domains and "
            "structural zeros, queried many times: restrict, sum_abstract and the "
            "oracle dominate; some evidence is ill-conditioned",
            params=DENSE,
            requests=_random_dense,
            session_size=DISTINCT * REPEATS,
            setup_repeats=8,
            round_size=DISTINCT * REPEATS,
        ),
        Workload(
            name="cold-cli",
            why="a new small network with every `bnmc infer --engine all` request: "
            "parse, compile and chain build are paid per request and the query is trivial; "
            "structural zeros make some evidence ill-conditioned",
            params=COLD,
            requests=_cold_cli,
            session_size=1,
            setup_repeats=1,
            round_size=COLD["shapes"],
        ),
    )
}
