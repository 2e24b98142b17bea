"""Joint-distribution compilation of a network into an MTBDD, and inference.

Every network variable is encoded with ceil(log2 |D|) boolean bits, most
significant first; bit patterns that decode to an index outside the domain
get probability zero in every table diagram, so the compiled joint still
sums to exactly one over all bit evaluations. The diagram's variable order
follows the network's topological order with the bits of one variable kept
adjacent.
"""

from __future__ import annotations

import csv
import random
import time
from dataclasses import dataclass
from itertools import product
from typing import IO, Iterable, Mapping, Sequence

from .errors import BitWidthError, IllConditionedQueryError
from .mtbdd import MtbddManager, NodeRef
from .network import BayesianNetwork, check_assignment, topological_order
from .reach import ReachQuery, conditional

MAX_TOTAL_BITS = 62


def _width(domain_size: int) -> int:
    return (domain_size - 1).bit_length() if domain_size > 1 else 0


@dataclass(frozen=True)
class BitEncoding:
    order: tuple[str, ...]  # all bit labels, manager order
    bits: Mapping[int, tuple[str, ...]]  # variable id -> labels, msb first
    sizes: Mapping[int, int]  # variable id -> domain size

    @classmethod
    def from_network(
        cls, bn: BayesianNetwork, order: Sequence[int]
    ) -> "BitEncoding":
        labels: list[str] = []
        bits: dict[int, tuple[str, ...]] = {}
        sizes: dict[int, int] = {}
        for var_id in order:
            v = bn.variables[var_id]
            own = tuple(f"{v.name}[{k}]" for k in range(_width(len(v.domain))))
            bits[var_id] = own
            sizes[var_id] = len(v.domain)
            labels.extend(own)
        return cls(order=tuple(labels), bits=bits, sizes=sizes)

    def pattern(self, var_id: int, value: int) -> tuple[int, ...]:
        """Bit pattern of a domain value index, msb first."""
        width = len(self.bits[var_id])
        return tuple((value >> (width - 1 - k)) & 1 for k in range(width))

    def decode(self, var_id: int, pattern: Sequence[int]) -> int | None:
        """Value index of a bit pattern, or None when out of the domain."""
        value = 0
        for bit in pattern:
            value = (value << 1) | bit
        return value if value < self.sizes[var_id] else None


@dataclass(frozen=True)
class SymbolicBn:
    network: BayesianNetwork
    order: tuple[int, ...]
    manager: MtbddManager
    encoding: BitEncoding
    joint: NodeRef
    cpt_refs: Mapping[int, NodeRef]

    __hash__ = None


def _table_diagram(
    mgr: MtbddManager,
    encoding: BitEncoding,
    bn: BayesianNetwork,
    var_id: int,
) -> NodeRef:
    """Diagram over the owner's and parents' bits yielding the row probability."""
    cpt = bn.cpts[var_id]
    involved = list(cpt.parents) + [var_id]
    levels = sorted(
        (mgr.level(label), w, k)
        for w in involved
        for k, label in enumerate(encoding.bits[w])
    )

    def probability(bits: dict[tuple[int, int], int]) -> float:
        values = {}
        for w in involved:
            pattern = [bits[(w, k)] for k in range(len(encoding.bits[w]))]
            idx = encoding.decode(w, pattern)
            if idx is None:
                return 0.0
            values[w] = idx
        key = tuple(values[p] for p in cpt.parents)
        return cpt.rows[key][values[var_id]]

    # Leaves in lexicographic bit order, then one level merged per pass from
    # the bottom: siblings differ only in the last remaining level's bit. An
    # iterative build leaves no self-referencing closure to keep `mgr` alive.
    nodes = [
        mgr.terminal(probability({(w, k): b for (_, w, k), b in zip(levels, bits)}))
        for bits in product((0, 1), repeat=len(levels))
    ]
    for level, _, _ in reversed(levels):
        var = mgr.variables[level]
        nodes = [
            lo if lo == hi else mgr.node(var, lo, hi)
            for lo, hi in zip(nodes[0::2], nodes[1::2])
        ]
    return nodes[0]


def compile_network(bn: BayesianNetwork) -> SymbolicBn:
    """Build one diagram per CPT, then their product in topological order.

    The diagram order keeps each variable's bits adjacent, variables in
    topological order.
    """
    order = tuple(topological_order(bn))
    encoding = BitEncoding.from_network(bn, order)
    if len(encoding.order) > MAX_TOTAL_BITS:
        raise BitWidthError(
            f"network needs {len(encoding.order)} bits, more than the supported "
            f"{MAX_TOTAL_BITS}"
        )
    mgr = MtbddManager(encoding.order)
    cpt_refs = {v: _table_diagram(mgr, encoding, bn, v) for v in order}
    joint = mgr.terminal(1.0)
    for var_id in order:
        joint = mgr.apply("*", joint, cpt_refs[var_id])
    return SymbolicBn(
        network=bn,
        order=order,
        manager=mgr,
        encoding=encoding,
        joint=joint,
        cpt_refs=cpt_refs,
    )


def bits_of_assignment(sym: SymbolicBn, assignment: Mapping[int, int]) -> dict[str, int]:
    """Bit evaluation (label -> 0/1) of an assignment over network variables."""
    out: dict[str, int] = {}
    for var_id, value in assignment.items():
        pattern = sym.encoding.pattern(var_id, value)
        for label, bit in zip(sym.encoding.bits[var_id], pattern):
            out[label] = bit
    return out


def _restricted_mass(sym: SymbolicBn, binding: Mapping[int, int]) -> float:
    mgr = sym.manager
    node = sym.joint
    bound = bits_of_assignment(sym, binding)
    for label in sorted(bound, key=mgr.level):
        node = mgr.restrict(node, label, bound[label])
    remaining = [v for v in mgr.variables if v not in bound]
    total = mgr.sum_abstract(node, remaining)
    return mgr.terminal_value(total)


def infer(sym: SymbolicBn, q: ReachQuery) -> float:
    """Conditional probability via restriction and sum-abstraction."""
    check_assignment(sym.network, q.combined())
    return conditional(lambda b: _restricted_mass(sym, b), q)


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
    n = len(sym.order)
    if not 0 <= count <= n:
        raise ValueError(f"evidence count {count} out of range 0..{n}")
    if count >= n:
        raise ValueError("at least one variable must remain for the hypothesis")
    rng = random.Random(seed)
    if strategy == "first":
        chosen = list(sym.order[:count])
    elif strategy == "last":
        chosen = list(sym.order[n - count :])
    else:
        chosen = rng.sample(list(sym.order), count)
    evidence = {
        var_id: rng.randrange(len(sym.network.variables[var_id].domain))
        for var_id in chosen
    }
    rest = [v for v in sym.order if v not in evidence]
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
