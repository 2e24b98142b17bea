"""Translation of a Bayesian network into its tree-like Markov chain.

States are partial evaluations over the variables in topological order;
`None` stands for the don't-care placeholder (rendered as `*`). The bound
positions of every reachable state form a prefix of the order, so each
expansion step fixes exactly the next variable and its parents are always
evaluated already.
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

    states: list[McState] = [tuple([None] * n)]
    transitions: list[tuple[tuple[float, int], ...]] = []
    frontier = [0]
    depth = 0
    while frontier:
        next_frontier: list[int] = []
        if depth == n:
            for idx in frontier:
                transitions.append(((1.0, idx),))
            # final states: self-loop only, no successors to enqueue
            break
        var_id = order[depth]
        cpt = bn.cpts[var_id]
        domain_size = len(bn.variables[var_id].domain)
        for idx in frontier:
            state = states[idx]
            key = tuple(state[position[p]] for p in cpt.parents)
            row = cpt.rows[key]
            out = []
            for value in range(domain_size):
                p = row[value]
                if p == 0.0 and not keep_zero_edges:
                    continue
                child = state[:depth] + (value,) + state[depth + 1 :]
                child_idx = len(states)
                states.append(child)
                next_frontier.append(child_idx)
                out.append((p, child_idx))
            transitions.append(tuple(out))
        frontier = next_frontier
        depth += 1
    return MarkovChain(
        network=bn,
        order=order,
        states=tuple(states),
        transitions=tuple(transitions),
    )


def final_states(mc: MarkovChain, pred: Assignment) -> set[int]:
    """Indices of fully-evaluated states whose evaluation extends `pred`."""
    check_assignment(mc.network, pred)
    wanted = [(mc.position_of(v), d) for v, d in pred.items()]
    states = mc.states
    return {
        idx
        for idx in mc.final_indices()
        if all(states[idx][pos] == d for pos, d in wanted)
    }


def path_probability(mc: MarkovChain, final_index: int) -> float:
    """Product of edge probabilities on the unique root path to a final state."""
    # Walk forward from the root following the state's own values.
    state = mc.states[final_index]
    idx = mc.initial
    product = 1.0
    for depth in range(len(mc.order)):
        target_value = state[depth]
        for p, t in mc.transitions[idx]:
            if mc.states[t][depth] == target_value and mc.states[t][:depth] == mc.states[idx][:depth]:
                product *= p
                idx = t
                break
        else:
            raise ValueError(f"state {final_index} is unreachable")
    return product
