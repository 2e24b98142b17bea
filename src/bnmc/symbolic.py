"""Compilation of a network into one MTBDD per CPT, and inference by
bucket elimination over those diagrams.

Every network variable is encoded with ceil(log2 |D|) boolean bits, most
significant first; bit patterns that decode to an index outside the domain
get probability zero in every table diagram, so summing a variable over all
2^w patterns of its bits is exact. The diagram's variable order follows the
network's topological order with the bits of one variable kept adjacent,
and `SymbolicBn.levels` records it. Elimination follows the plan described
below, but the bits keep the topological order: laid out in the plan's
order, they grew the store of a 40-variable random network by 31% over 40
queries and changed it by at most 1% on the `cold-cli` benchmark's
networks.

The mass of a partial assignment never needs the full joint, nor any CPT
outside the ancestors of the bound variables: such a CPT sums out to 1
(barren-node removal: Shachter 1986; Baker and Boult 1990), so it is
skipped and an empty binding has mass exactly 1. Each ancestral CPT
diagram is cofactored by the bound bits in its scope, and each free
variable is summed out where the query chain forgets it, at its last child
in `chain.query_plan` (bucket elimination, Dechter 1996): both engines walk
one plan. A bucket's last factor is multiplied in by the manager's fused
multiply-sum, so no node of that product is built above the summed bits.
Inference never reads the monolithic joint diagram, `SymbolicBn.joint`,
which each read rebuilds from the apply memo.

`compile_network` fixes a model's layout (bit levels and the plan). No cap
bounds the bit count: a query costs what its elimination builds. Each query
appends the nodes it makes to the model's one node store, beside its
entries in the manager's memo tables, and none of them is freed while the
model lives.
"""

from __future__ import annotations

import csv
import random
import time
from dataclasses import dataclass, field
from functools import partial
from itertools import product
from operator import mul
from typing import IO, Iterable, Mapping

from .chain import query_plan, retire_positions
from .errors import IllConditionedQueryError
from .mtbdd import MtbddManager, NodeRef
from .network import BayesianNetwork, ancestors, check_assignment, topological_order
from .reach import ReachQuery, conditional, remembered


def _width(domain_size: int) -> int:
    return (domain_size - 1).bit_length() if domain_size > 1 else 0


def _pattern(value: int, width: int) -> tuple[int, ...]:
    """Bit pattern of a domain value index over `width` bits, msb first."""
    return tuple((value >> (width - 1 - k)) & 1 for k in range(width))


@dataclass(frozen=True)
class SymbolicBn:
    """A compiled network: one table diagram per CPT in one manager.

    Every field but `masses` is fixed by `compile_network`. `infer` fills
    `masses` through `reach.remembered`, as `reach.conditional_query` fills
    `MarkovChain.masses`; like the manager's own memo tables, it must be
    filled by one thread at a time.
    """

    network: BayesianNetwork
    plan: tuple[int, ...]  # the elimination order, `chain.query_plan`'s
    manager: MtbddManager  # holds the bit labels, in level order
    levels: Mapping[int, range]  # variable id -> its bits' levels, msb first
    cpt_refs: Mapping[int, NodeRef]
    # sorted binding items -> mass
    masses: dict[tuple[tuple[int, int], ...], float] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    __hash__ = None

    @property
    def joint(self) -> NodeRef:
        """Product of every CPT diagram in topological order.

        Each read rebuilds it through the apply memo, so every read after
        the first finds each product memoized and allocates no node.
        """
        joint = self.manager.terminal(1.0)
        for var_id in topological_order(self.network):
            joint = self.manager.apply("*", joint, self.cpt_refs[var_id])
        return joint


def _table_diagram(
    mgr: MtbddManager,
    levels: Mapping[int, range],
    bn: BayesianNetwork,
    var_id: int,
) -> NodeRef:
    """Diagram over the owner's and parents' bits yielding the row probability."""
    cpt = bn.cpts[var_id]
    # Parents precede their child in the topological order, so the owner is
    # last in its scope (a stable sort keeps it after a parent of no bits).
    scope = sorted((*cpt.parents, var_id), key=lambda w: levels[w].start)
    sizes = [len(bn.variables[w].domain) for w in scope]
    # One leaf per table entry, in diagram order with the last scope variable
    # fastest: each row's entries in turn, the rows taken in the order of
    # their keys over the level-sorted parents. Then, from the last scope
    # variable up, each run of its `size` values is padded with zeros to its
    # 2^width bit patterns and its bits merged one per pass from the bottom:
    # siblings differ only in the last remaining bit. An iterative build
    # leaves no self-referencing closure to keep `mgr` alive.
    zero = mgr.terminal(0.0)
    keys = product(*map(range, sizes[:-1]))
    if scope[:-1] != list(cpt.parents):
        slots = [scope.index(p) for p in cpt.parents]
        keys = (tuple([key[i] for i in slots]) for key in keys)
    nodes = [mgr.terminal(p) for row in map(cpt.rows.__getitem__, keys) for p in row]
    # Scope variables are merged from the last level up, so both children of
    # a new node lie below its level and `_mk` needs none of `node`'s checks.
    for w, size in zip(reversed(scope), reversed(sizes)):
        pad = [zero] * ((1 << len(levels[w])) - size)
        if pad:
            runs = (nodes[k : k + size] + pad for k in range(0, len(nodes), size))
            nodes = [n for run in runs for n in run]
        for level in reversed(levels[w]):
            nodes = [mgr._mk(level, lo, hi) for lo, hi in zip(nodes[0::2], nodes[1::2])]
    return nodes[0]


def compile_network(bn: BayesianNetwork) -> SymbolicBn:
    """Build one diagram per CPT; no product of them is formed.

    The diagram order keeps each variable's bits adjacent, variables in
    topological order.
    """
    order = topological_order(bn)
    labels: list[str] = []
    levels: dict[int, range] = {}
    for var_id in order:
        v = bn.variables[var_id]
        width = _width(len(v.domain))
        levels[var_id] = range(len(labels), len(labels) + width)
        labels += (f"{v.name}[{k}]" for k in range(width))
    mgr = MtbddManager(labels)
    cpt_refs = {v: _table_diagram(mgr, levels, bn, v) for v in order}
    return SymbolicBn(
        network=bn,
        plan=tuple(query_plan(bn)[0]),
        manager=mgr,
        levels=levels,
        cpt_refs=cpt_refs,
    )


def bits_of_assignment(sym: SymbolicBn, assignment: Mapping[int, int]) -> dict[str, int]:
    """Bit evaluation (label -> 0/1) of an assignment over network variables."""
    labels = sym.manager.variables
    out: dict[str, int] = {}
    for var_id, value in assignment.items():
        levels = sym.levels[var_id]
        out.update(zip(map(labels.__getitem__, levels), _pattern(value, len(levels))))
    return out


def _restricted_mass(sym: SymbolicBn, binding: Mapping[int, int]) -> float:
    """Probability of a partial assignment by bucket elimination.

    Only the CPTs of the binding's ancestors take part: every other CPT sums
    out to 1 (barren-node removal). The ancestors are closed under parents
    and keep the model's plan order; bucket k sums out the free variables
    that `chain.retire_positions` retires at k. A factor (a CPT diagram
    cofactored by the bound bits in its scope) waits in the bucket of its
    earliest-retiring free variable; one with none is a terminal. Bucket k
    runs once plan[k] is placed, as no later factor joins it: its factors
    are multiplied in the order they arrived, the last one inside
    `_multiply_sum`, which sums out the retiring bits (sorted levels from
    `sym.levels`). The kernels are called past the manager's argument
    checks, on references and levels this model built.
    """
    mgr, cpts, levels = sym.manager, sym.network.cpts, sym.levels
    bound = {
        w: tuple(zip(levels[w], _pattern(d, len(levels[w])))) for w, d in binding.items()
    }
    plan = list(filter(ancestors(sym.network, binding).__contains__, sym.plan))
    retire = retire_positions(sym.network, plan)
    buckets: list[list[tuple[NodeRef, frozenset[int]]]] = [[] for _ in plan]
    mass = 1.0

    def place(node: NodeRef, free: frozenset[int]) -> None:
        nonlocal mass
        if free:
            buckets[min(map(retire.__getitem__, free))].append((node, free))
        else:
            mass *= mgr.terminal_value(node)

    for pos, var_id in enumerate(plan):
        scope = (*cpts[var_id].parents, var_id)
        cube = {level: bit for w in scope if w in bound for level, bit in bound[w]}
        place(mgr._cofactor(sym.cpt_refs[var_id], cube), frozenset(scope).difference(binding))
        if buckets[pos]:
            *rest, (last, free) = buckets[pos]
            node = mgr.terminal(1.0)
            for other, other_free in rest:
                node = mgr._apply(mul, node, other)
                free |= other_free
            gone = [w for w in free if retire[w] == pos]
            summed = sorted(b for w in gone for b in levels[w])
            place(mgr._multiply_sum(node, last, summed), free.difference(gone))
    return mass


def infer(sym: SymbolicBn, q: ReachQuery) -> float:
    """Conditional probability from two masses eliminated along the plan,
    each remembered in `sym.masses`."""
    check_assignment(sym.network, q.combined())
    return conditional(remembered(sym.masses, partial(_restricted_mass, sym)), q)


# -- evidence-strategy benchmark ------------------------------------------------

CSV_HEADER = (
    "network",
    "strategy",
    "evidence_count",
    "seed",
    "query_time_ns",
    "result",
    "ill_conditioned",
)

STRATEGIES = ("first", "random", "last")


@dataclass(frozen=True)
class BenchResult:
    network: str
    strategy: str
    evidence_count: int
    seed: int
    query_time_ns: int
    result: float | None
    ill_conditioned: bool

    def csv_row(self) -> tuple[str, ...]:
        return (
            self.network,
            self.strategy,
            str(self.evidence_count),
            str(self.seed),
            str(self.query_time_ns),
            "" if self.result is None else repr(self.result),
            "true" if self.ill_conditioned else "false",
        )


def bench_evidence(
    sym: SymbolicBn, strategy: str, count: int, seed: int
) -> BenchResult:
    """Time one seeded inference with `count` evidence variables.

    Selection and values come from a Mersenne-Twister stream seeded with
    `seed`, so the row is reproducible across platforms; wall time is the
    one field that varies between runs.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; use one of {STRATEGIES}")
    order = topological_order(sym.network)
    n = len(order)
    if not 0 <= count <= n:
        raise ValueError(f"evidence count {count} out of range 0..{n}")
    if count >= n:
        raise ValueError("at least one variable must remain for the hypothesis")
    rng = random.Random(seed)
    if strategy == "first":
        chosen = order[:count]
    elif strategy == "last":
        chosen = order[n - count :]
    else:
        chosen = rng.sample(order, count)
    evidence = {
        var_id: rng.randrange(len(sym.network.variables[var_id].domain))
        for var_id in chosen
    }
    rest = [v for v in order if v not in evidence]
    hyp_var = rng.choice(rest)
    hypothesis = {hyp_var: rng.randrange(len(sym.network.variables[hyp_var].domain))}
    query = ReachQuery(evidence=evidence, hypothesis=hypothesis)

    start = time.perf_counter_ns()
    try:
        result: float | None = infer(sym, query)
        ill = False
    except IllConditionedQueryError:
        result = None
        ill = True
    elapsed = time.perf_counter_ns() - start
    return BenchResult(
        network=sym.network.name,
        strategy=strategy,
        evidence_count=count,
        seed=seed,
        query_time_ns=elapsed,
        result=result,
        ill_conditioned=ill,
    )


def write_csv(results: Iterable[BenchResult], stream: IO[str]) -> None:
    writer = csv.writer(stream)
    writer.writerow(CSV_HEADER)
    for record in results:
        writer.writerow(record.csv_row())
