"""Vtrees and probabilistic sentential decision diagrams.

Only validation and evaluation of structures loaded from the repo's text
formats are supported; compiling a network or formula into a PSDD is out of
scope. See docs/formats.md for the file grammar.

A diagram is immutable after parsing, and normalized: every prime sits at
its decision's left vtree child and every sub at its right one (a bottom
terminal anywhere), so each node is over exactly its vtree node's
variables. Every record is declared after the records it references, so
both evaluations are one pass over the nodes in declaration order:
assignment probability follows the decision semantics (the unique satisfied
prime selects the element), and term probability sums over every element.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import prod
from typing import Mapping

from .errors import (
    EnumerationCapError,
    MalformedQueryError,
    PsddError,
    PsddParseError,
)
from .network import topological_order
from .symbolic import SymbolicBn, bits_of_assignment

THETA_SUM_TOLERANCE = 1e-9
PARTITION_ENUM_LIMIT = 20


# -- vtrees ---------------------------------------------------------------------


@dataclass(frozen=True)
class VtreeNode:
    id: int
    var: str | None = None  # leaves only
    left: int | None = None  # internal only
    right: int | None = None

    @property
    def is_leaf(self) -> bool:
        return self.var is not None


@dataclass(frozen=True)
class Vtree:
    nodes: Mapping[int, VtreeNode]
    root: int
    variables: frozenset[str]  # every leaf label

    def descendants(self, node_id: int) -> tuple[int, ...]:
        """Ids of the subtree at `node_id` in pre-order: node, left, right."""
        order = []
        stack = [node_id]
        while stack:
            nid = stack.pop()
            order.append(nid)
            node = self.nodes[nid]
            if not node.is_leaf:
                stack.extend((node.right, node.left))
        return tuple(order)

    def variables_under(self, node_id: int) -> frozenset[str]:
        return frozenset(
            self.nodes[nid].var
            for nid in self.descendants(node_id)
            if self.nodes[nid].is_leaf
        )


def parse_vtree(text: str) -> Vtree:
    """Load the line-oriented vtree format (`L id var` / `I id left right`).

    One leading byte-order mark is ignored, as in `bif.parse_bif_document`.
    """
    nodes: dict[int, VtreeNode] = {}
    referenced: set[int] = set()
    for lineno, raw in enumerate(text.removeprefix("\ufeff").splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        try:
            if parts[0] == "L" and len(parts) == 3:
                node = VtreeNode(id=int(parts[1]), var=parts[2])
            elif parts[0] == "I" and len(parts) == 4:
                node = VtreeNode(
                    id=int(parts[1]), left=int(parts[2]), right=int(parts[3])
                )
            else:
                raise ValueError
        except ValueError:
            raise PsddParseError(f"vtree line {lineno}: cannot parse {raw!r}")
        if node.id in nodes:
            raise PsddParseError(f"vtree line {lineno}: duplicate id {node.id}")
        nodes[node.id] = node
        if not node.is_leaf:
            referenced.update((node.left, node.right))
    if not nodes:
        raise PsddParseError("empty vtree")
    for node in nodes.values():
        if not node.is_leaf:
            for child in (node.left, node.right):
                if child not in nodes:
                    raise PsddParseError(f"vtree node {node.id} references missing id {child}")
    roots = set(nodes) - referenced
    if len(roots) != 1:
        raise PsddParseError(f"vtree must have exactly one root, found {sorted(roots)}")
    if len(referenced) != sum(2 for n in nodes.values() if not n.is_leaf):
        raise PsddParseError("vtree node referenced by more than one parent")
    root = roots.pop()
    # With unique references and a single root, reachable nodes form a tree;
    # anything unreachable is disconnected junk (possibly cyclic).
    labels = [n.var for n in nodes.values() if n.is_leaf]
    vtree = Vtree(nodes=nodes, root=root, variables=frozenset(labels))
    reachable = set(vtree.descendants(root))
    if reachable != set(nodes):
        stray = sorted(set(nodes) - reachable)
        raise PsddParseError(f"vtree nodes {stray} are not reachable from the root")
    if len(vtree.variables) != len(labels):
        raise PsddParseError("vtree leaf labels must be unique")
    return vtree


# -- PSDD nodes -------------------------------------------------------------------

LITERAL = "literal"
BOTTOM = "bottom"
TOP = "top"
DECISION = "decision"


@dataclass(frozen=True)
class PsddNode:
    id: int
    vtree_id: int
    kind: str
    var: str | None = None  # literal / top
    negated: bool = False  # literal
    theta: float | None = None  # top
    elements: tuple[tuple[int, int, float], ...] = ()  # decision


@dataclass(frozen=True)
class Psdd:
    """A validated diagram; `nodes` lists every child before its parents.

    `parse_psdd` refuses a reference to an id not yet declared, so the
    insertion order of `nodes` is an evaluation order.
    """

    vtree: Vtree
    nodes: Mapping[int, PsddNode]
    root: int

    __hash__ = None

    @property
    def variables(self) -> frozenset[str]:
        return self.vtree.variables

    def node_count(self) -> int:
        seen: set[int] = set()
        stack = [self.root]
        while stack:
            nid = stack.pop()
            if nid in seen:
                continue
            seen.add(nid)
            node = self.nodes[nid]
            for prime, sub, _ in node.elements:
                stack.append(prime)
                stack.append(sub)
        return len(seen)


def parse_psdd(vtree_text: str, psdd_text: str) -> Psdd:
    """Load and validate a vtree/PSDD file pair."""
    vtree = parse_vtree(vtree_text)
    nodes: dict[int, PsddNode] = {}
    last_id: int | None = None

    def check_vtree_id(lineno: int, vid: int) -> VtreeNode:
        if vid not in vtree.nodes:
            raise PsddParseError(f"psdd line {lineno}: unknown vtree id {vid}")
        return vtree.nodes[vid]

    for lineno, raw in enumerate(psdd_text.removeprefix("\ufeff").splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        kind = parts[0]
        try:
            if kind == "L" and len(parts) == 4:
                nid, vid, lit = int(parts[1]), int(parts[2]), parts[3]
                leaf = check_vtree_id(lineno, vid)
                negated = lit.startswith("!")
                var = lit[1:] if negated else lit
                if not leaf.is_leaf or leaf.var != var:
                    raise PsddParseError(
                        f"psdd line {lineno}: literal {lit!r} does not match vtree "
                        f"node {vid}"
                    )
                node = PsddNode(id=nid, vtree_id=vid, kind=LITERAL, var=var, negated=negated)
            elif kind == "B" and len(parts) == 3:
                nid, vid = int(parts[1]), int(parts[2])
                leaf = check_vtree_id(lineno, vid)
                if not leaf.is_leaf:
                    raise PsddParseError(
                        f"psdd line {lineno}: bottom terminal must sit at a vtree leaf"
                    )
                node = PsddNode(id=nid, vtree_id=vid, kind=BOTTOM)
            elif kind == "T" and len(parts) == 4:
                nid, vid, theta = int(parts[1]), int(parts[2]), float(parts[3])
                leaf = check_vtree_id(lineno, vid)
                if not leaf.is_leaf:
                    raise PsddParseError(
                        f"psdd line {lineno}: parameterized terminal must sit at a "
                        "vtree leaf"
                    )
                if not 0.0 < theta < 1.0:
                    raise PsddParseError(
                        f"psdd line {lineno}: terminal parameter {theta!r} outside (0, 1)"
                    )
                node = PsddNode(id=nid, vtree_id=vid, kind=TOP, var=leaf.var, theta=theta)
            elif kind == "D" and len(parts) >= 4:
                nid, vid, k = int(parts[1]), int(parts[2]), int(parts[3])
                if k < 0:
                    raise ValueError(f"negative element count {k}")
                inner = check_vtree_id(lineno, vid)
                if inner.is_leaf:
                    raise PsddParseError(
                        f"psdd line {lineno}: decision node must sit at an internal "
                        "vtree node"
                    )
                if len(parts) != 4 + 3 * k:
                    raise PsddParseError(
                        f"psdd line {lineno}: expected {3 * k} element fields"
                    )
                elements = []
                for j in range(k):
                    prime = int(parts[4 + 3 * j])
                    sub = int(parts[5 + 3 * j])
                    theta = float(parts[6 + 3 * j])
                    # Normalized (Kisa et al. 2014): a prime sits at the left
                    # child, a sub at the right; a bottom, of mass 0, anywhere.
                    for child, side, branch, under in (
                        (prime, "prime", "left", inner.left),
                        (sub, "sub", "right", inner.right),
                    ):
                        if child not in nodes:
                            raise PsddParseError(
                                f"psdd line {lineno}: dangling id {child}"
                            )
                        if nodes[child].kind != BOTTOM and nodes[child].vtree_id != under:
                            raise PsddParseError(
                                f"psdd line {lineno}: {side} {child} does not respect "
                                f"vtree node {under}, the {branch} child of vtree "
                                f"node {vid}"
                            )
                    if not 0.0 <= theta <= 1.0:  # also rejects NaN
                        raise PsddParseError(
                            f"psdd line {lineno}: element parameter {theta!r} outside "
                            "[0, 1]"
                        )
                    zero_sub = nodes[sub].kind == BOTTOM
                    if zero_sub != (theta == 0.0):
                        raise PsddParseError(
                            f"psdd line {lineno}: parameter must be 0 exactly when "
                            "the sub is bottom"
                        )
                    elements.append((prime, sub, theta))
                total = sum(t for _, _, t in elements)
                if abs(total - 1.0) > THETA_SUM_TOLERANCE:
                    raise PsddParseError(
                        f"psdd line {lineno}: element parameters sum to {total!r}"
                    )
                node = PsddNode(
                    id=nid, vtree_id=vid, kind=DECISION, elements=tuple(elements)
                )
            else:
                raise ValueError(f"unknown line kind {kind!r}")
        except ValueError:  # a bad number, count or line kind
            raise PsddParseError(f"psdd line {lineno}: cannot parse {raw!r}")
        if node.id in nodes:
            raise PsddParseError(f"psdd line {lineno}: duplicate node id {node.id}")
        nodes[node.id] = node
        last_id = node.id
    if last_id is None:
        raise PsddParseError("empty psdd")
    root = nodes[last_id]
    if root.kind == BOTTOM:
        raise PsddParseError(f"root node {root.id} is a bottom terminal, of mass 0")
    if root.vtree_id != vtree.root:
        raise PsddParseError(
            f"root node {root.id} respects vtree node {root.vtree_id}, "
            f"not the vtree root {vtree.root}"
        )
    return Psdd(vtree=vtree, nodes=nodes, root=last_id)


# -- semantics ----------------------------------------------------------------------


def _satisfies(p: Psdd, node_id: int, assignment: Mapping[str, int], memo: dict) -> bool:
    """Boolean abstraction of a node under a (sufficiently bound) assignment."""
    # Recursion depth is bounded by the height of the vtree subtree under the
    # node; the only caller, validate_partition, enumerates a subtree only
    # after checking it holds at most PARTITION_ENUM_LIMIT variables.
    hit = memo.get(node_id)
    if hit is not None:
        return hit
    node = p.nodes[node_id]
    if node.kind == TOP:
        result = True
    elif node.kind == BOTTOM:
        result = False
    elif node.kind == LITERAL:
        result = assignment[node.var] == (0 if node.negated else 1)
    else:
        result = any(
            _satisfies(p, prime, assignment, memo)
            and _satisfies(p, sub, assignment, memo)
            for prime, sub, _ in node.elements
        )
    memo[node_id] = result
    return result


def _check_bits(binding: Mapping[str, int]) -> None:
    for name, value in binding.items():
        if value not in (0, 1):
            raise MalformedQueryError(f"{name} must be bound to 0 or 1, got {value!r}")


def _terminal_mass(node: PsddNode, binding: Mapping[str, int]) -> float:
    """Mass of a terminal under a binding; an unbound variable sums out to 1."""
    if node.kind == BOTTOM:
        return 0.0
    bound = binding.get(node.var)
    if bound is None:
        return 1.0
    if node.kind == TOP:
        return node.theta if bound else 1.0 - node.theta
    return 1.0 if bound == (0 if node.negated else 1) else 0.0


def prob_assignment(p: Psdd, full: Mapping[str, int]) -> float:
    """Probability of one full assignment over the vtree variables.

    Raises PsddError if the assignment satisfies no prime, or more than
    one, of any decision node.
    """
    missing = sorted(p.variables - set(full))
    if missing:
        raise MalformedQueryError(f"assignment must bind every variable; missing {missing}")
    _check_bits(full)
    value: dict[int, float] = {}
    sat: dict[int, bool] = {}
    for node_id, node in p.nodes.items():
        if node.kind != DECISION:
            value[node_id] = _terminal_mass(node, full)
            # 0 < theta < 1, so a terminal has positive mass exactly when true.
            sat[node_id] = value[node_id] > 0.0
            continue
        matches = [element for element in node.elements if sat[element[0]]]
        if not matches:
            raise PsddError(
                f"no prime of decision node {node_id} is satisfied; "
                "the primes do not form a partition"
            )
        if len(matches) > 1:
            raise PsddError(
                f"multiple primes of decision node {node_id} are satisfied; "
                "the primes do not form a partition"
            )
        prime, sub, theta = matches[0]
        value[node_id] = theta * value[prime] * value[sub]
        sat[node_id] = sat[sub]
    return value[p.root]


def prob_term(p: Psdd, partial: Mapping[str, int]) -> float:
    """Marginal probability of a conjunction of literals."""
    unknown = sorted(set(partial) - p.variables)
    if unknown:
        raise MalformedQueryError(f"unknown variables in term: {unknown}")
    _check_bits(partial)
    mass: dict[int, float] = {}
    for node_id, node in p.nodes.items():
        if node.kind == DECISION:
            mass[node_id] = sum(
                theta * mass[prime] * mass[sub]
                for prime, sub, theta in node.elements
                if theta != 0.0
            )
        else:
            mass[node_id] = _terminal_mass(node, partial)
    return mass[p.root]


# -- validation ---------------------------------------------------------------------


@dataclass(frozen=True)
class PartitionVerdict:
    node_id: int
    consistent: bool
    exclusive: bool
    exhaustive: bool

    @property
    def ok(self) -> bool:
        return self.consistent and self.exclusive and self.exhaustive


@dataclass(frozen=True)
class PartitionReport:
    verdicts: tuple[PartitionVerdict, ...]

    @property
    def ok(self) -> bool:
        return all(v.ok for v in self.verdicts)


def validate_partition(p: Psdd) -> PartitionReport:
    """Check the partition property of every decision node by enumeration.

    Every decision node is checked against `PARTITION_ENUM_LIMIT` before any
    enumeration.
    """
    decisions = []
    for node_id in sorted(p.nodes):
        node = p.nodes[node_id]
        if node.kind != DECISION:
            continue
        inner = p.vtree.nodes[node.vtree_id]
        left_vars = sorted(p.vtree.variables_under(inner.left))
        if len(left_vars) > PARTITION_ENUM_LIMIT:
            raise EnumerationCapError(
                f"decision node {node_id} has {len(left_vars)} left variables, "
                f"above the enumeration limit of {PARTITION_ENUM_LIMIT}"
            )
        decisions.append((node_id, node, left_vars))
    verdicts = []
    for node_id, node, left_vars in decisions:
        seen_any = [False] * len(node.elements)
        exclusive = True
        exhaustive = True
        for bits in product((0, 1), repeat=len(left_vars)):
            assignment = dict(zip(left_vars, bits))
            memo: dict[int, bool] = {}
            hits = [
                j
                for j, (prime, _, _) in enumerate(node.elements)
                if _satisfies(p, prime, assignment, memo)
            ]
            for j in hits:
                seen_any[j] = True
            if len(hits) > 1:
                exclusive = False
            if not hits:
                exhaustive = False
        verdicts.append(
            PartitionVerdict(
                node_id=node_id,
                consistent=all(seen_any),
                exclusive=exclusive,
                exhaustive=exhaustive,
            )
        )
    return PartitionReport(verdicts=tuple(verdicts))


def compare_with_bn(
    p: Psdd, sym: SymbolicBn, mapping: Mapping[int, str]
) -> float:
    """Max |difference| between the PSDD and a compiled network over all assignments.

    `mapping` sends each network variable id to the PSDD variable carrying
    its truth value; every network variable must be binary. The network's
    side is the product of the assignment's CPT leaves in topological
    order: the joint diagram's value, without building that diagram.
    """
    bn = sym.network
    unmapped = [v.name for v in bn.variables if v.id not in mapping]
    if unmapped:
        raise MalformedQueryError(f"mapping incomplete; missing {unmapped}")
    for v in bn.variables:
        if len(v.domain) != 2:
            raise MalformedQueryError(
                f"variable {v.name} is not binary; no PSDD correspondence"
            )
    if set(mapping.values()) != set(p.variables):
        raise MalformedQueryError(
            "mapping must cover exactly the PSDD variables"
        )
    n = len(bn.variables)
    if n > PARTITION_ENUM_LIMIT:
        raise EnumerationCapError(f"{n} variables exceed the comparison limit")
    order = topological_order(bn)
    worst = 0.0
    for values in product((0, 1), repeat=n):
        assignment = dict(enumerate(values))
        psdd_assignment = {mapping[i]: v for i, v in assignment.items()}
        lhs = prob_assignment(p, psdd_assignment)
        bits = bits_of_assignment(sym, assignment)
        rhs = prod(sym.manager.evaluate(sym.cpt_refs[v], bits) for v in order)
        worst = max(worst, abs(lhs - rhs))
    return worst
