"""Translation of a Bayesian network into its tree-like Markov chain, and the
walk of the query chain of one conditional query.

States are partial evaluations over the variables in topological order.
The bound positions of every reachable state form a prefix of the order, so
a state is stored as the tuple of its bound values: the initial state is
`()`, layer k holds k-tuples, and a position past the end is the don't-care
placeholder (rendered as `*`). Each expansion step fixes exactly the next
variable, appending its value, and its parents are always evaluated already.

The chain is stored the way BFS insertion lays it out, as a sparse
row-grouped matrix: the children of a state are one contiguous run of
indices, and the states of one layer read only a few CPT rows. So a
non-final state keeps just the index of its first child and references to
its CPT row's kept edges: `((p, offset), ...)` in value order, where offset
is the child's place in the run, and the same edges indexed by value, with
`None` for a pruned zero entry. Both are built once per CPT row and shared
by every state that reads it; when a row prunes nothing they are one tuple.
`successors` rebuilds a state's `(p, target)` edges. The final states are
the last layer, a suffix of the indices.

The mass of a binding is the probability of ever reaching a state that
satisfies it, and `descend` is the tree's only way to compute it. A state
that disagrees with a binding reaches no state extending it, so the mass is
one forward pass down the layers: a free layer expands every kept edge, a
bound layer only the agreeing child. The pass stops at the layer of the
deepest bound variable; every layer below would only multiply by row sums
of 1. `MarkovChain.satisfies` is the one test of a state against a binding.
`final_states` applies it to the last layer, which gives the goal set of
the paper's reduction, and `reach.reach_probability` sweeps back from it.

Every field of a tree but `masses` is fixed by `build_mc`.
`reach.conditional_query` fills `MarkovChain.masses` as queries arrive: one
mass per binding, kept as long as the tree lives. Queries on one tree must
therefore be serialized, as on a compiled `SymbolicBn`.

The tree remembers every value, so it is exponential in the number of
variables. `bnmc infer` answers on a query chain instead: the product of the
chain with a monitor for one query's evidence and hypothesis (Baier, Klein,
Klüppelholz and Märcker, TACAS 2014). Its variables come in `query_plan`'s
order, which symbolic elimination shares, and a value is forgotten at its
`retire_positions`, once all of the variable's children are placed, so a
state of layer k holds only the values of the frontier, the placed variables
with a child to come, and a flag saying whether the hypothesis agrees so far.
Equal states of a layer merge, so layer k has at most 2 * prod |D(frontier_k)|
states: exponential only in the frontier width. Every edge leads from one
layer to the next, so the chain is never stored: `query_layers` walks it,
building each layer's state masses from the previous layer alone, and an
evidence disagreement or a zero entry simply passes on no mass. Memory thus
follows the widest layer. The cap still counts the whole chain's structural
bound, sum_k 2 * prod |D(frontier_k)| + 2, which it checks before the first
layer. `reach.query_chain_conditional` reads both masses off the last layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from math import fsum
from operator import itemgetter
from typing import ClassVar, Iterable, Iterator, Mapping

from .errors import StateCapError
from .network import Assignment, BayesianNetwork, check_assignment, topological_order

DEFAULT_STATE_CAP = 10_000_000

McState = tuple  # of int: the bound values, a prefix of the chain order
Edge = tuple  # (p, offset): a child's probability and its place in the run
QState = tuple  # (values of the layer's frontier, hypothesis agrees so far)


@dataclass(frozen=True)
class MarkovChain:
    network: BayesianNetwork
    order: tuple[int, ...]
    position: Mapping[int, int]  # variable id -> index in `order`
    states: tuple[McState, ...]
    # Per non-final state, in index order: its first child's index, and its
    # CPT row's kept edges in value order and indexed by value (shared per row).
    first_child: tuple[int, ...]
    edges: tuple[tuple[Edge, ...], ...]
    edge_of: tuple[tuple[Edge | None, ...], ...]
    # sorted binding items -> mass, filled by `reach.conditional_query`
    masses: dict[tuple[tuple[int, int], ...], float] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    # The BFS layout, `descend` and every reader in `reach` start at index 0.
    initial: ClassVar[int] = 0

    __hash__ = None

    def successors(self, state_index: int) -> tuple[tuple[float, int], ...]:
        """The `(p, target)` edges of a state; a final state loops on itself."""
        if state_index >= len(self.first_child):
            return ((1.0, state_index),)
        first = self.first_child[state_index]
        return tuple((p, first + offset) for p, offset in self.edges[state_index])

    def depth(self, state_index: int) -> int:
        return len(self.states[state_index])

    def is_final(self, state_index: int) -> bool:
        return len(self.states[state_index]) == len(self.order)

    def final_indices(self) -> range:
        # Every state before the last layer has a first child.
        return range(len(self.first_child), len(self.states))

    def satisfies(self, state_index: int, binding: Assignment) -> bool:
        """Whether the state binds every variable of `binding` to its value."""
        # A position past the state's end is unset and matches no value.
        state = self.states[state_index]
        for var_id, value in binding.items():
            pos = self.position[var_id]
            if pos >= len(state) or state[pos] != value:
                return False
        return True

    def render_state(self, state_index: int) -> str:
        state = self.states[state_index]
        unset = ["*"] * (len(self.order) - len(state))
        return "(" + ",".join([*map(str, state), *unset]) + ")"


def size_bound(bn: BayesianNetwork) -> int:
    """Exact state count of the unpruned chain: 1 + sum of domain-size prefixes."""
    return prefix_bound(len(bn.variables[v].domain) for v in topological_order(bn))


def prefix_bound(sizes: Iterable[int]) -> int:
    """1 + the sum of the prefix products of domain sizes given in chain order."""
    total, prefix = 1, 1
    for size in sizes:
        prefix *= size
        total += prefix
    return total


def check_state_cap(bound: int, state_cap: int) -> None:
    """Refuse a chain of up to `bound` states when that exceeds `state_cap`."""
    if bound > state_cap:
        count = f"up to {bound}" if bound <= 2**64 else "more than 2^64"
        raise StateCapError(
            f"chain would have {count} states, above the cap of {state_cap}; "
            "raise the cap"
        )


def build_mc(
    bn: BayesianNetwork,
    *,
    keep_zero_edges: bool = False,
    state_cap: int = DEFAULT_STATE_CAP,
) -> MarkovChain:
    """Expand the network into its explicit chain, in BFS insertion order.

    Zero-probability CPT entries are pruned unless `keep_zero_edges` is set;
    construction refuses outright when the unpruned bound exceeds `state_cap`.
    """
    order = tuple(topological_order(bn))
    check_state_cap(prefix_bound(len(bn.variables[v].domain) for v in order), state_cap)
    position = {v: i for i, v in enumerate(order)}

    states: list[McState] = [()]
    first_child: list[int] = []
    edges: list[tuple[Edge, ...]] = []
    edge_of: list[tuple[Edge | None, ...]] = []
    start = 0
    for var_id in order:
        cpt = bn.cpts[var_id]
        size = len(bn.variables[var_id].domain)
        tails = [(v,) for v in range(size)]
        slots = [position[parent] for parent in cpt.parents]
        # Per CPT row, keyed as itemgetter(*slots) reads a state (one slot
        # gives the value itself): its kept edges in value order and indexed
        # by value, and its children's tails. A child is its parent followed
        # by a tail, the child's own value.
        row_edges, row_edge_of, row_tails = {}, {}, {}
        for key, row in cpt.rows.items():
            if len(slots) == 1:
                key = key[0]
            if keep_zero_edges or 0.0 not in row:
                # Nothing pruned: a value's offset is the value itself.
                row_edges[key] = row_edge_of[key] = tuple(zip(row, range(size)))
                row_tails[key] = tails
                continue
            values = [v for v, p in enumerate(row) if p != 0.0]
            row_edges[key] = kept = tuple(zip(map(row.__getitem__, values), range(size)))
            by_value: list[Edge | None] = [None] * size
            for v, edge in zip(values, kept):
                by_value[v] = edge
            row_edge_of[key] = tuple(by_value)
            row_tails[key] = list(map(tails.__getitem__, values))
        layer = states[start:]
        keys = list(map(itemgetter(*slots), layer)) if slots else [()] * len(layer)
        layer_edges = list(map(row_edges.__getitem__, keys))
        # The children of one layer, appended in order, are the next layer.
        start = len(states)
        first_child += accumulate(map(len, layer_edges), initial=start)
        first_child.pop()  # the end of the last run
        edges += layer_edges
        edge_of += map(row_edge_of.__getitem__, keys)
        states += [
            parent + tail
            for parent, children in zip(layer, map(row_tails.__getitem__, keys))
            for tail in children
        ]
    return MarkovChain(
        network=bn,
        order=order,
        position=position,
        states=tuple(states),
        first_child=tuple(first_child),
        edges=tuple(edges),
        edge_of=tuple(edge_of),
    )


def descend(mc: MarkovChain, binding: Assignment) -> float:
    """The mass of `binding`: the probability of ever reaching a state that
    agrees with it, as the `fsum` of the path probabilities of the agreeing
    states in the layer where its deepest bound variable is fixed.

    One forward pass down the BFS layers from the initial state: a free layer
    expands each state's row, a bound layer takes only the child of the bound
    value. In the tree a state that disagrees reaches no state extending the
    binding. The caller checks that every bound value is in range.
    """
    wanted: list[int | None] = [None] * len(mc.order)
    for var_id, value in binding.items():
        wanted[mc.position[var_id]] = value
    while wanted and wanted[-1] is None:
        wanted.pop()
    first_child, edges, edge_of = mc.first_child, mc.edges, mc.edge_of
    layer = [(mc.initial, 1.0)]
    for value in wanted:
        if value is None:
            layer = [
                (first + offset, m * p)
                for idx, m in layer
                for first, kept in ((first_child[idx], edges[idx]),)
                for p, offset in kept
            ]
        else:
            layer = [
                (first_child[idx] + edge[1], m * edge[0])
                for idx, m in layer
                if (edge := edge_of[idx][value]) is not None
            ]
    return fsum(m for _, m in layer)


def final_states(mc: MarkovChain, pred: Assignment) -> set[int]:
    """Indices of fully-evaluated states whose evaluation extends `pred`."""
    check_assignment(mc.network, pred)
    return {idx for idx in mc.final_indices() if mc.satisfies(idx, pred)}


def query_plan(bn: BayesianNetwork) -> tuple[list[int], dict[int, int]]:
    """The order in which both the query chain and symbolic elimination place
    the variables, and its `retire_positions`.

    The order is topological with each root moved to just before its first
    child, so a root's value is held only from there on; a root with no
    child comes last. Non-roots keep their `topological_order`, ties by id.
    """
    parents = [cpt.parents for cpt in bn.cpts]
    placed = [False] * len(parents)
    order: list[int] = []
    for var_id in topological_order(bn):
        if parents[var_id]:
            # Every parent not placed yet is a root.
            for parent in parents[var_id]:
                if not placed[parent]:
                    placed[parent] = True
                    order.append(parent)
            placed[var_id] = True
            order.append(var_id)
    order += [var_id for var_id, done in enumerate(placed) if not done]
    return order, retire_positions(bn, order)


def retire_positions(bn: BayesianNetwork, order: list[int]) -> dict[int, int]:
    """Per variable of `order`, topological over an ancestor-closed set, the
    position of its last child there, or its own: its value is needed until
    the variable at that position is placed."""
    last = {}
    for pos, var_id in enumerate(order):
        last[var_id] = pos
        for parent in bn.cpts[var_id].parents:
            last[parent] = pos
    return last


def query_bound(bn: BayesianNetwork, order: list[int], last: Mapping[int, int]) -> int:
    """sum_k 2 * prod |D(frontier_k)| + 2, the worst-case state count of all
    the query chain's layers with the plan `order`, `last` of `query_plan`.

    The frontier's width is kept as a running product, so the bound costs
    O(n) whatever the width.
    """
    leaving: list[list[int]] = [[] for _ in order]
    total, width = 2, 1
    for pos, var_id in enumerate(order):
        for size in leaving[pos]:
            width //= size
        if last[var_id] > pos:
            size = len(bn.variables[var_id].domain)
            width *= size
            leaving[last[var_id]].append(size)
        total += 2 * width
    return total


def query_layers(
    bn: BayesianNetwork,
    evidence: Assignment,
    hypothesis: Assignment,
    *,
    state_cap: int = DEFAULT_STATE_CAP,
) -> Iterator[tuple[tuple[int, ...], dict[QState, float]]]:
    """The layers of the query chain of P(hypothesis | evidence), walked one
    at a time: layer 0, then one per variable of `query_plan`'s order.

    Each layer is its frontier and the mass of each of its states, built from
    the previous layer only. A zero entry or an evidence disagreement passes
    on no mass. The walk refuses before its first layer when the structural
    bound exceeds `state_cap`. The caller checks that every bound value is in
    range.
    """
    order, last = query_plan(bn)
    check_state_cap(query_bound(bn, order, last), state_cap)
    frontier: tuple[int, ...] = ()
    layer: dict[QState, float] = {((), True): 1.0}
    yield frontier, layer
    for pos, var_id in enumerate(order):
        cpt = bn.cpts[var_id]
        row_key = _tuple_getter([frontier.index(parent) for parent in cpt.parents])
        keep = _tuple_getter([s for s, u in enumerate(frontier) if last[u] != pos])
        held = last[var_id] > pos
        frontier = keep(frontier) + ((var_id,) if held else ())
        # Per CPT row: its (p, value, hypothesis agrees) moves with mass, over
        # every value, or the evidence value alone.
        wanted, expected = evidence.get(var_id), hypothesis.get(var_id)
        moves = {}
        for key, row in cpt.rows.items():
            choices = range(len(row)) if wanted is None else (wanted,)
            moves[key] = tuple(
                (row[d], d, expected is None or d == expected)
                for d in choices
                if row[d] != 0.0
            )
        successor: dict[QState, float] = {}
        for (values, agrees), m in layer.items():
            base = keep(values)
            for p, d, hyp_ok in moves[row_key(values)]:
                target = (base + (d,) if held else base, agrees and hyp_ok)
                successor[target] = successor.get(target, 0.0) + m * p
        layer = successor
        yield frontier, layer


def _tuple_getter(slots: list[int]):
    """A function giving the tuple of a state's values at `slots`."""
    if len(slots) > 1:
        return itemgetter(*slots)
    if slots:
        [slot] = slots
        return lambda values: (values[slot],)
    return lambda values: ()
