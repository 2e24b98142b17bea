"""Reachability probabilities on the explicit chain and conditional queries.

The chain is acyclic apart from final self-loops, so a single backward sweep
in reverse insertion order is exact; no iterative solving is needed. The
sweep serves only arbitrary goal sets (`check_prop2`): a conditional query
sums the path probabilities that `chain.descend` finds in one forward pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import fsum
from typing import Callable, Iterable, Mapping

from . import chain
from .chain import MarkovChain
# benchmarks/tracing.py wraps reach.final_states and reach.reach_probability by name.
from .chain import final_states  # noqa: F401
from .errors import IllConditionedQueryError, MalformedQueryError, PathCapError
from .network import check_assignment

# Denominators below this are treated as zero to avoid division blow-up.
ILL_CONDITIONED_EPS = 1e-300

DEFAULT_PATH_CAP = 100_000


@dataclass(frozen=True)
class ReachQuery:
    """Evidence and hypothesis assignments of a conditional query."""

    evidence: Mapping[int, int] = field(default_factory=dict)
    hypothesis: Mapping[int, int] = field(default_factory=dict)

    def __post_init__(self):
        for var_id, value in self.hypothesis.items():
            if var_id in self.evidence and self.evidence[var_id] != value:
                raise MalformedQueryError(
                    f"variable {var_id} bound to {value} in the hypothesis and "
                    f"{self.evidence[var_id]} in the evidence"
                )

    def combined(self) -> dict[int, int]:
        merged = dict(self.evidence)
        merged.update(self.hypothesis)
        return merged


def reach_probability(mc: MarkovChain, goal: Iterable[int]) -> float:
    """Probability of eventually reaching the goal set from the initial state."""
    goal = set(goal)
    n_states = len(mc.states)
    for idx in goal:
        if not 0 <= idx < n_states:
            raise ValueError(f"goal state {idx} does not exist")
    values = [0.0] * n_states
    for idx in goal:
        values[idx] = 1.0
    # BFS layout guarantees the successors of a non-final state come later,
    # and the final states form a suffix.
    for idx in range(mc.final_indices().start - 1, -1, -1):
        if idx not in goal:
            values[idx] = fsum(p * values[t] for p, t in mc.transitions[idx])
    return min(1.0, max(0.0, values[mc.initial]))


def conditional(mass: Callable[[Mapping[int, int]], float], q: ReachQuery) -> float:
    """P(hypothesis | evidence) as mass(evidence and hypothesis) / mass(evidence).

    `mass` gives the probability of a partial assignment; it is the only part
    an engine supplies. The evidence mass is computed first and refused below
    ILL_CONDITIONED_EPS before the numerator is computed.
    """
    denominator = mass(q.evidence)
    if denominator < ILL_CONDITIONED_EPS:
        raise IllConditionedQueryError(
            "evidence has probability zero; the query is ill-conditioned"
        )
    return mass(q.combined()) / denominator


def conditional_query(mc: MarkovChain, q: ReachQuery) -> float:
    """Conditional probability of the hypothesis given the evidence.

    Both eventualities collapse to one goal set of final states because
    evaluations only grow along a path of the tree-shaped chain, so each mass
    is the sum of the path probabilities of the final states that extend it.
    """
    check_assignment(mc.network, q.combined())
    # Looked up on the module at call time, so a wrapper of chain.descend sees it.
    return conditional(lambda b: fsum(p for _, p in chain.descend(mc, b)), q)


def _satisfies(mc: MarkovChain, state_index: int, binding: Mapping[int, int]) -> bool:
    state = mc.states[state_index]
    for var_id, value in binding.items():
        if state[mc.position_of(var_id)] != value:
            return False
    return True


def enumerate_paths(
    mc: MarkovChain, path_cap: int = DEFAULT_PATH_CAP
) -> list[tuple[list[int], float]]:
    """All root-to-final paths as (state index list, probability product)."""
    if len(mc.final_indices()) > path_cap:
        raise PathCapError(
            f"chain has more than {path_cap} root-to-final paths"
        )
    paths: list[tuple[list[int], float]] = []
    stack: list[tuple[int, list[int], float]] = [(mc.initial, [mc.initial], 1.0)]
    while stack:
        idx, path, product = stack.pop()
        if mc.is_final(idx):
            paths.append((path, product))
            continue
        for p, t in mc.transitions[idx]:
            stack.append((t, path + [t], product * p))
    return paths


def check_prop2(
    mc: MarkovChain,
    q: ReachQuery,
    *,
    path_cap: int = DEFAULT_PATH_CAP,
    tolerance: float = 1e-9,
) -> bool:
    """Compare the conjunction of eventualities against the single-goal form.

    The left side sums path products over enumerated paths on which some
    state satisfies the hypothesis and some (possibly different) state
    satisfies the evidence; the right side is one reachability query on the
    states satisfying both at once.
    """
    check_assignment(mc.network, q.combined())
    lhs_terms = []
    for path, product in enumerate_paths(mc, path_cap):
        sees_h = any(_satisfies(mc, s, q.hypothesis) for s in path)
        sees_f = any(_satisfies(mc, s, q.evidence) for s in path)
        if sees_h and sees_f:
            lhs_terms.append(product)
    lhs = fsum(lhs_terms)
    combined = q.combined()
    goal = {
        idx for idx in range(len(mc.states)) if _satisfies(mc, idx, combined)
    }
    rhs = reach_probability(mc, goal)
    return abs(lhs - rhs) <= tolerance
