"""Translation of a Bayesian network into its tree-like Markov chain.

States are partial evaluations over the variables in topological order;
`None` stands for the don't-care placeholder (rendered as `*`). The bound
positions of every reachable state form a prefix of the order, so each
expansion step fixes exactly the next variable and its parents are always
evaluated already.

A state that disagrees with a binding reaches no final state extending it,
so `descend` answers a binding by one forward pass down the layers along
the agreeing edges; `final_states` and `path_probability` use it, and the
backward sweep in `reach` serves only arbitrary goal sets.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from .errors import StateCapError
from .network import Assignment, BayesianNetwork, check_assignment, topological_order

DEFAULT_STATE_CAP = 10_000_000

McState = tuple  # of int | None, one slot per variable in chain order


@dataclass(frozen=True)
class MarkovChain:
    network: BayesianNetwork
    order: tuple[int, ...]
    states: tuple[McState, ...]
    transitions: tuple[tuple[tuple[float, int], ...], ...]
    initial: int = 0

    __hash__ = None

    def position_of(self, var_id: int) -> int:
        return self.order.index(var_id)

    def depth(self, state_index: int) -> int:
        return sum(1 for d in self.states[state_index] if d is not None)

    def is_final(self, state_index: int) -> bool:
        # Bound slots form a prefix of the order, so the last slot decides.
        state = self.states[state_index]
        return not state or state[-1] is not None

    def final_indices(self) -> range:
        # In the BFS layout the final states are the last layer, a suffix.
        n = len(self.states)
        return range(bisect_left(range(n), True, key=self.is_final), n)

    def assignment_of(self, state_index: int) -> dict[int, int]:
        """Bound variables of a state as an assignment keyed by variable id."""
        return {
            self.order[pos]: d
            for pos, d in enumerate(self.states[state_index])
            if d is not None
        }

    def render_state(self, state_index: int) -> str:
        return "(" + ",".join(
            "*" if d is None else str(d) for d in self.states[state_index]
        ) + ")"


def size_bound(bn: BayesianNetwork) -> int:
    """Exact state count of the unpruned chain: 1 + sum of domain-size prefixes."""
    total, prefix = 1, 1
    for var_id in topological_order(bn):
        prefix *= len(bn.variables[var_id].domain)
        total += prefix
    return total


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
    bound = size_bound(bn)
    if bound > state_cap:
        raise StateCapError(
            f"chain would have up to {bound} states, above the cap of {state_cap}; "
            "use the symbolic engine or raise the cap"
        )
    n = len(order)
    position = {v: i for i, v in enumerate(order)}

    states: list[McState] = [(None,) * n]
    transitions: list[tuple[tuple[float, int], ...]] = []
    layer = [0]
    for depth, var_id in enumerate(order):
        cpt = bn.cpts[var_id]
        slots = [position[parent] for parent in cpt.parents]
        pad = (None,) * (n - depth - 1)
        domain = range(len(bn.variables[var_id].domain))
        next_layer: list[int] = []
        for idx in layer:
            state = states[idx]
            row = cpt.rows[tuple(state[s] for s in slots)]
            prefix = state[:depth]
            out = []
            for value in domain:
                p = row[value]
                if p == 0.0 and not keep_zero_edges:
                    continue
                child_idx = len(states)
                states.append(prefix + (value,) + pad)
                next_layer.append(child_idx)
                out.append((p, child_idx))
            transitions.append(tuple(out))
        layer = next_layer
    # Final states: a self-loop only.
    transitions.extend(((1.0, idx),) for idx in layer)
    return MarkovChain(
        network=bn,
        order=order,
        states=tuple(states),
        transitions=tuple(transitions),
    )


def descend(mc: MarkovChain, binding: Assignment) -> list[tuple[int, float]]:
    """(final index, path probability) of every final state extending `binding`.

    One forward pass down the BFS layers from the initial state, along only
    the edges whose child agrees with the binding at that depth: in the tree
    a state that disagrees reaches no extending final state.
    """
    wanted: list[int | None] = [None] * len(mc.order)
    for var_id, value in binding.items():
        wanted[mc.position_of(var_id)] = value
    states, transitions = mc.states, mc.transitions
    layer = [(mc.initial, 1.0)]
    for depth, value in enumerate(wanted):
        layer = [
            (t, m * p)
            for idx, m in layer
            for p, t in transitions[idx]
            if value is None or states[t][depth] == value
        ]
    return layer


def final_states(mc: MarkovChain, pred: Assignment) -> set[int]:
    """Indices of fully-evaluated states whose evaluation extends `pred`."""
    check_assignment(mc.network, pred)
    return {idx for idx, _ in descend(mc, pred)}


def path_probability(mc: MarkovChain, final_index: int) -> float:
    """Product of edge probabilities on the unique root path to a final state."""
    if not 0 <= final_index < len(mc.states) or not mc.is_final(final_index):
        raise ValueError(f"state {final_index} is not a final state")
    [(_, product)] = descend(mc, mc.assignment_of(final_index))
    return product
