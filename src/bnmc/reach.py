"""Reachability probabilities on the explicit chain and conditional queries.

The chain is acyclic apart from final self-loops, so a single backward sweep
in reverse insertion order is exact; no iterative solving is needed. The
sweep is the paper's reduction: `reach_probability` of a goal set such as
`final_states` of a binding, and the right side of `check_prop2`, whose left
side is one forward pass over the tree. A conditional query needs two
masses, and the mass of a binding is the probability of ever reaching a
state that satisfies it. On the tree `chain.descend` gives it in one forward
pass, which stops at the layer where the binding's deepest variable is
fixed. The query chain is walked layer by layer and never stored; both
masses come from its last layer.

A model that answers many queries meets the same bindings again, and every
hypothesis asked under one evidence shares its denominator. `remembered`
keeps each binding's mass in the model's `masses` dict, so a tree
(`MarkovChain.masses`) and a compiled model (`SymbolicBn.masses`) each
compute a mass once. The memo fills as queries arrive and lives as long as
the model, so queries on one model must be serialized. The query chain and
the oracle keep no model, and so no memo.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from math import fsum
from typing import Callable, Iterable, Mapping

from . import chain
from .chain import MarkovChain
# benchmarks/tracing.py wraps reach.final_states and reach.reach_probability by name.
from .chain import final_states  # noqa: F401
from .errors import IllConditionedQueryError, MalformedQueryError
from .network import BayesianNetwork, ancestors, check_assignment, subnetwork

# Denominators below this are treated as zero to avoid division blow-up.
ILL_CONDITIONED_EPS = 1e-300

# The largest gap `check_prop2` accepts between its two sides.
PROP2_TOLERANCE = 1e-9


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


def ancestral_query(
    bn: BayesianNetwork, q: ReachQuery
) -> tuple[BayesianNetwork, ReachQuery]:
    """The subnetwork of the ancestors of the query's variables, and the query
    with its variable ids remapped to that subnetwork.

    A variable outside that set is barren: it sums out to 1 in both masses,
    so the answer is the same on both networks (Shachter 1986; Baker and
    Boult 1990). When every variable is an ancestor, `bn` and `q` themselves
    are returned.
    """
    combined = q.combined()
    check_assignment(bn, combined)
    keep = ancestors(bn, combined)
    if len(keep) == len(bn.variables):
        return bn, q
    # subnetwork numbers the kept variables densely in ascending id order.
    remap = {old: new for new, old in enumerate(sorted(keep))}
    return subnetwork(bn, keep), ReachQuery(
        evidence={remap[v]: d for v, d in q.evidence.items()},
        hypothesis={remap[v]: d for v, d in q.hypothesis.items()},
    )


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
            values[idx] = fsum(p * values[t] for p, t in mc.successors(idx))
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


def remembered(
    masses: dict[tuple[tuple[int, int], ...], float],
    mass: Callable[[Mapping[int, int]], float],
) -> Callable[[Mapping[int, int]], float]:
    """`mass`, computed once per binding and then read from `masses`.

    The key is the binding's sorted items; the first value stored for a key
    is the one every later call returns.
    """

    def lookup(binding: Mapping[int, int]) -> float:
        key = tuple(sorted(binding.items()))
        hit = masses.get(key)
        if hit is None:
            hit = masses.setdefault(key, mass(binding))
        return hit

    return lookup


def conditional_query(mc: MarkovChain, q: ReachQuery) -> float:
    """Conditional probability of the hypothesis given the evidence.

    Both eventualities collapse to one goal set because evaluations only grow
    along a path of the tree-shaped chain, so each mass, `chain.descend`, is
    the sum of the path probabilities of the states that satisfy it in the
    layer of its deepest bound variable. Going on to the final states would
    only multiply each by row sums of 1. Each mass is remembered in
    `mc.masses`.
    """
    check_assignment(mc.network, q.combined())
    return conditional(remembered(mc.masses, partial(chain.descend, mc)), q)


def query_chain_conditional(
    bn: BayesianNetwork, q: ReachQuery, *, state_cap: int = chain.DEFAULT_STATE_CAP
) -> float:
    """Conditional probability of the hypothesis given the evidence, on the
    query chain of `q`.

    The chain is walked one layer at a time, and only the last layer is read:
    its total mass is the probability of reaching it, which the evidence alone
    decides, and the mass of its states with the hypothesis flag set is the
    probability of reaching it with the hypothesis agreeing too.
    """
    check_assignment(bn, q.combined())
    # Each layer is dropped once the next is built; the loop keeps the last.
    for _, layer in chain.query_layers(bn, q.evidence, q.hypothesis, state_cap=state_cap):
        pass
    reached = fsum(layer.values())
    agreed = fsum(m for (_, agrees), m in layer.items() if agrees)
    # `conditional` asks for the evidence mass, then the combined one; the
    # two bindings are equal only when the hypothesis adds nothing, and then
    # so are the masses.
    return conditional(lambda b: reached if b == q.evidence else agreed, q)


def check_prop2(mc: MarkovChain, q: ReachQuery) -> bool:
    """Compare the conjunction of eventualities against the single-goal form
    (Proposition 2), within PROP2_TOLERANCE.

    The left side is one forward pass over the tree in index order: each
    child takes its parent's path probability times the edge's, and two
    flags saying whether its root path has met the hypothesis and the
    evidence so far. It sums the path probabilities of the final states
    with both flags set. On a tree the flags of a final state only repeat
    what the state itself satisfies; carrying them keeps the left side the
    path property ◇H ∧ ◇E without assuming the tree. The right side is one
    backward sweep to the states satisfying both at once.
    """
    combined = q.combined()
    check_assignment(mc.network, combined)
    h, e = q.hypothesis, q.evidence
    root = mc.initial
    mass = [0.0] * len(mc.states)
    seen = [(False, False)] * len(mc.states)
    mass[root] = 1.0
    seen[root] = (mc.satisfies(root, h), mc.satisfies(root, e))
    # BFS layout: every parent precedes its children, and finals come last.
    for idx in range(mc.final_indices().start):
        m, (seen_h, seen_e) = mass[idx], seen[idx]
        for p, t in mc.successors(idx):
            mass[t] = m * p
            seen[t] = (seen_h or mc.satisfies(t, h), seen_e or mc.satisfies(t, e))
    lhs = fsum(mass[idx] for idx in mc.final_indices() if all(seen[idx]))
    goal = {idx for idx in range(len(mc.states)) if mc.satisfies(idx, combined)}
    rhs = reach_probability(mc, goal)
    return abs(lhs - rhs) <= PROP2_TOLERANCE
