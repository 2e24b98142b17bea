"""Discrete Bayesian networks: variables, CPTs, joint probability, statistics.

A network is its variables and their CPTs: u -> v is an edge exactly when u
is a parent in v's CPT, so the structure is stored once and every structural
fact is derived from the CPT parents. A network is immutable; `validate`
reports invariant violations as data instead of raising, so corpus bugs
surface explicitly rather than being silently repaired.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import prod
from operator import itemgetter
from typing import Iterable, Mapping

from .errors import CycleError, MalformedQueryError

ROW_SUM_TOLERANCE = 1e-9

# Partial assignment: variable id -> domain value index.
Assignment = Mapping[int, int]


@dataclass(frozen=True)
class Variable:
    id: int
    name: str
    domain: tuple[str, ...]


@dataclass(frozen=True, eq=True)
class Cpt:
    """Conditional probability table of one variable.

    `parents` is in canonical ascending-id order; `rows` has one probability
    vector over the owner's domain per element of the Cartesian product of
    the parent domains, keyed by parent value indices in `parents` order.
    """

    owner: int
    parents: tuple[int, ...]
    rows: dict[tuple[int, ...], tuple[float, ...]]

    __hash__ = None  # rows is a dict; Cpt is compared, never hashed


@dataclass(frozen=True, eq=True)
class BayesianNetwork:
    """Variables by id and one CPT each, by owner; the CPT parents are the structure."""

    name: str
    variables: tuple[Variable, ...]
    cpts: tuple[Cpt, ...]

    __hash__ = None

    def variable(self, var_id: int) -> Variable:
        if not 0 <= var_id < len(self.variables):
            raise MalformedQueryError(f"unknown variable id {var_id}")
        return self.variables[var_id]

    def by_name(self, name: str) -> Variable:
        for v in self.variables:
            if v.name == name:
                return v
        raise MalformedQueryError(f"unknown variable name {name!r}")


@dataclass(frozen=True)
class NetworkStats:
    vertex_count: int
    edge_count: int
    max_in_degree: int
    max_domain_size: int
    avg_markov_blanket: Fraction
    parameter_count: int


def network_from_cpts(
    name: str, variables: Iterable[Variable], cpts: Iterable[Cpt]
) -> BayesianNetwork:
    """Assemble a network, its CPTs sorted by owner; their parents are its structure."""
    cpts = tuple(sorted(cpts, key=lambda c: c.owner))
    return BayesianNetwork(name=name, variables=tuple(variables), cpts=cpts)


def validate(bn: BayesianNetwork) -> list[str]:
    """Check every invariant of a network; returns one message per violation.

    The checks fall in two halves. The structural half covers the variable
    ids and names, the CPT count and order, the parent lists, and each row's
    key and width: the facts the other checks index by. The value half,
    `validate_values`, covers the domains, acyclicity, and each row's
    entries and sum. A network built in code needs both. A caller that
    refuses every structural fault itself, as `bif.document_to_network`
    does, needs only the value half: on a network whose structure is sound,
    `validate(bn) == validate_values(bn)`.

    Messages come in one order: ids, domains, names, CPT count and order,
    parents, the cycle, then each CPT's rows. A structural fault that the
    later checks would index past ends the list. The missing rows of one CPT
    are one message, naming the first in ascending order and how many are
    missing; the other row messages follow in ascending key order.
    """
    ids = [v.id for v in bn.variables]
    if ids != list(range(len(ids))):
        return [f"variable ids must be dense 0..{len(ids) - 1}, got {ids}"]

    out = _domain_problems(bn)
    names = [v.name for v in bn.variables]
    if len(set(names)) != len(names):
        out.append("duplicate variable names")

    if len(bn.cpts) != len(bn.variables):
        out.append(f"expected {len(bn.variables)} CPTs, got {len(bn.cpts)}")
        return out
    owners = [c.owner for c in bn.cpts]
    if owners != ids:
        out.append("CPTs must be ordered by owner id, exactly one per variable")
        return out
    known = range(len(ids))
    malformed = [
        f"variable {v.name}: CPT parents {ps} must be distinct known ids, ascending"
        for v, ps in zip(bn.variables, (cpt.parents for cpt in bn.cpts))
        if any(p not in known for p in ps) or list(ps) != sorted(set(ps))
    ]
    if malformed:
        return out + malformed  # the order and the rows index by parent id

    out += _cycle_problems(bn)
    for cpt in bn.cpts:
        v = bn.variables[cpt.owner]
        ranges = [range(len(bn.variables[p].domain)) for p in cpt.parents]
        # The keys in range are distinct, so the rows are complete when they
        # number the parent combinations; only a short table is scanned, in
        # ascending order, for its first missing key.
        in_range, unexpected = [], []
        for key in cpt.rows:
            if (
                isinstance(key, tuple)
                and len(key) == len(ranges)
                and all(map(range.__contains__, ranges, key))
            ):
                in_range.append(key)
            else:
                unexpected.append(key)
        total = prod(map(len, ranges))
        if len(in_range) != total:
            key = next(key for key in product(*ranges) if key not in cpt.rows)
            out.append(
                f"variable {v.name}: missing CPT row for parents {key} "
                f"({total - len(in_range)} of {total} missing)"
            )
        for key in sorted(unexpected):
            out.append(f"variable {v.name}: unexpected CPT row for parents {key}")
        out += _row_messages(v, ((key, cpt.rows[key]) for key in in_range))
    return out


def validate_values(bn: BayesianNetwork) -> list[str]:
    """The value half of `validate`: domains, acyclicity, row entries and
    sums, with `validate`'s messages in its order.

    The structure must be sound (see `validate`); it is not checked. Each
    row is screened by its sum, least and greatest entry, and only the keys
    of rows that fail are sorted, to word them.
    """
    out = _domain_problems(bn) + _cycle_problems(bn)
    for cpt in bn.cpts:
        out += _row_messages(bn.variables[cpt.owner], cpt.rows.items())
    return out


def _domain_problems(bn: BayesianNetwork) -> list[str]:
    out = []
    for v in bn.variables:
        if len(v.domain) < 1:
            out.append(f"variable {v.name}: empty domain")
        if len(set(v.domain)) != len(v.domain):
            out.append(f"variable {v.name}: duplicate domain labels")
    return out


def _cycle_problems(bn: BayesianNetwork) -> list[str]:
    try:
        topological_order(bn)
    except CycleError as exc:
        parent, child = bn.variables[exc.parent].name, bn.variables[exc.child].name
        return [f"cycle detected involving edge {parent} -> {child}"]
    return []


def _sound_row(row: tuple[float, ...]) -> bool:
    """Whether `_row_messages` finds nothing in a row of the right width.

    A sum within the tolerance of 1 is finite, so no entry is NaN or
    infinite, and the least and greatest entries are exact.
    """
    return abs(sum(row) - 1.0) <= ROW_SUM_TOLERANCE and 0.0 <= min(row) and max(row) <= 1.0


def _row_messages(
    v: Variable, rows: Iterable[tuple[tuple[int, ...], tuple[float, ...]]]
) -> list[str]:
    """Word each bad `(key, row)` of `v`'s CPT in ascending key order: a wrong
    width, else an entry outside [0, 1] and a sum off 1. Each row is screened
    by its width and `_sound_row`; only the rows that fail are sorted.
    """
    width = len(v.domain)
    failed = [(key, row) for key, row in rows if len(row) != width or not _sound_row(row)]
    out = []
    for key, row in sorted(failed, key=itemgetter(0)):
        where = f"variable {v.name}, row {key}"
        if len(row) != width:
            out.append(f"{where}: {len(row)} entries for domain size {width}")
            continue
        if any(not 0.0 <= p <= 1.0 for p in row):  # also catches NaN
            out.append(f"{where}: entry outside [0, 1]")
        total = sum(row)
        if not abs(total - 1.0) <= ROW_SUM_TOLERANCE:
            out.append(f"{where}: probabilities sum to {total!r}")
    return out


def topological_order(bn: BayesianNetwork) -> list[int]:
    """Kahn's algorithm; ties broken by ascending variable id."""
    parents = [cpt.parents for cpt in bn.cpts]
    indegree = [len(ps) for ps in parents]
    children: list[list[int]] = [[] for _ in parents]
    for c, ps in enumerate(parents):
        for p in ps:
            children[p].append(c)  # ascending, since c is
    ready = [i for i, d in enumerate(indegree) if d == 0]  # ascending: a heap
    order: list[int] = []
    while ready:
        v = heapq.heappop(ready)
        order.append(v)
        for c in children[v]:
            indegree[c] -= 1
            if indegree[c] == 0:
                heapq.heappush(ready, c)
    if len(order) != len(parents):
        # Every id on a cycle, and every descendant of one, is left out.
        stuck = set(range(len(parents))) - set(order)
        child = min(stuck)
        raise CycleError(min(p for p in parents[child] if p in stuck), child)
    return order


def ancestors(bn: BayesianNetwork, var_ids: Iterable[int]) -> set[int]:
    """The given variables and every ancestor of them, by a walk over parents.

    The ids are not checked: a caller checks its query first.
    """
    cpts = bn.cpts
    found: set[int] = set()
    stack = list(var_ids)
    while stack:
        var_id = stack.pop()
        if var_id not in found:
            found.add(var_id)
            stack.extend(cpts[var_id].parents)
    return found


def check_assignment(bn: BayesianNetwork, assignment: Assignment) -> None:
    """Raise MalformedQueryError unless every binding is within range."""
    for var_id, value in assignment.items():
        v = bn.variable(var_id)
        if not 0 <= value < len(v.domain):
            raise MalformedQueryError(
                f"value index {value} out of range for {v.name} "
                f"(domain size {len(v.domain)})"
            )


def joint_probability(bn: BayesianNetwork, full: Assignment) -> float:
    """Product of CPT entries along the full assignment."""
    check_assignment(bn, full)
    missing = [v.name for v in bn.variables if v.id not in full]
    if missing:
        raise MalformedQueryError(f"full assignment required; missing {missing}")
    p = 1.0
    for cpt in bn.cpts:
        key = tuple(full[q] for q in cpt.parents)
        p *= cpt.rows[key][full[cpt.owner]]
    return p


def _markov_blankets(bn: BayesianNetwork) -> list[set[int]]:
    """Every variable's blanket, by one pass over the CPTs: each member of a
    family (a CPT's owner and parents) is in the blanket of every other."""
    blankets: list[set[int]] = [set() for _ in bn.variables]
    for cpt in bn.cpts:
        family = (cpt.owner, *cpt.parents)
        for v in family:
            blankets[v].update(family)
    for v, blanket in enumerate(blankets):
        blanket.discard(v)
    return blankets


def markov_blanket(bn: BayesianNetwork, var_id: int) -> set[int]:
    """Parents, children, and co-parents of shared children, minus the vertex."""
    bn.variable(var_id)
    return _markov_blankets(bn)[var_id]


def stats(bn: BayesianNetwork) -> NetworkStats:
    n = len(bn.variables)
    in_degrees = [len(cpt.parents) for cpt in bn.cpts]
    blanket_total = sum(map(len, _markov_blankets(bn)))
    # Free parameters: one row per parent combination, |D|-1 per row.
    params = 0
    for cpt in bn.cpts:
        rows = 1
        for p in cpt.parents:
            rows *= len(bn.variables[p].domain)
        params += rows * (len(bn.variables[cpt.owner].domain) - 1)
    return NetworkStats(
        vertex_count=n,
        edge_count=sum(in_degrees),
        max_in_degree=max(in_degrees, default=0),
        max_domain_size=max((len(v.domain) for v in bn.variables), default=0),
        avg_markov_blanket=Fraction(blanket_total, n) if n else Fraction(0),
        parameter_count=params,
    )


def subnetwork(bn: BayesianNetwork, keep: Iterable[int]) -> BayesianNetwork:
    """Restrict to a parent-closed subset of variables, reindexing ids densely."""
    kept = set(keep)
    keep_ids = sorted(kept)
    for i in keep_ids:
        bn.variable(i)
        for p in bn.cpts[i].parents:
            if p not in kept:
                raise ValueError(
                    f"subset not closed under parents: {bn.variables[i].name} "
                    f"needs {bn.variables[p].name}"
                )
    remap = {old: new for new, old in enumerate(keep_ids)}
    variables = tuple(
        Variable(id=remap[i], name=bn.variables[i].name, domain=bn.variables[i].domain)
        for i in keep_ids
    )
    cpts = tuple(
        Cpt(
            owner=remap[i],
            parents=tuple(remap[p] for p in bn.cpts[i].parents),
            rows=dict(bn.cpts[i].rows),
        )
        for i in keep_ids
    )
    return network_from_cpts(bn.name, variables, cpts)
