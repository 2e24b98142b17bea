"""Hash-consed multi-terminal binary decision diagrams.

One manager owns a fixed total variable order and every node created under
it. Node references are plain integers, valid only within their manager.
The node store is append-only: no node is ever freed, so a reference stays
valid for the life of its manager, and the manager's memory goes with it.
Reduction (no duplicate structure, no node with identical children) is
enforced at creation time, so two references in one manager are equal
exactly when their functions agree on every evaluation.

Terminal values are keyed by the float itself; the only merging of distinct
floats is the collapse of -0.0 into 0.0, which is the same real number.
Intermediate results (partial sums) may exceed 1; range restrictions on
distributions are the caller's concern.

Nodes are built by `terminal`, `node`, and three operations:
- `apply` (+, *, min, max) keeps its memo for the manager's life.
- `cofactor` (which `restrict` calls with one bit) makes one recursive
  pass with a memo that lasts only that call.
- `multiply_sum(a, b, variables)` sums the product of two diagrams over
  some variables in one recursive pass, also with a memo of one call
  (Bahar et al. 1993). It never builds the product above the last summed
  level (the relational product: Burch, Clarke and Long 1991; Sylvan's
  `and_abstract_plus`, van Dijk and van de Pol 2017), and a constant part
  of the sum stays a float until it is needed as a node. `sum_abstract`
  is its case with the constant 1.

The public methods check their arguments. Their underscored kernels
(`_apply`, `_cofactor`, `_multiply_sum`, `_mk`) trust them, and the
compiler in `symbolic` calls them directly with references and levels it
built. Every leaf, from input or from an operation, is made by
`terminal` and passes its checks, so a result that overflows to inf is
refused as an input inf is. `x * 1`, `x * 0` and `x + 0` return an
operand without a walk, being exact.

Node creation and the operations that populate caches must be serialized
per manager; finished references may be read concurrently.
"""

from __future__ import annotations

import math
from operator import add, mul
from typing import Callable, Iterable, Mapping, Sequence

NodeRef = int

_OPS: dict[str, Callable[[float, float], float]] = {
    "+": add,
    "*": mul,
    "min": min,
    "max": max,
}


class MtbddManager:
    def __init__(self, variables: Sequence[str]):
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise ValueError("variable labels must be unique")
        self._vars = variables
        self._level = {v: i for i, v in enumerate(variables)}
        self._leaf_level = len(variables)
        # Append-only node store: terminals are (leaf_level, value), inner
        # nodes (level, lo, hi). A reference is valid for the manager's life.
        self._nodes: list[tuple] = []
        self._terminals: dict[float, int] = {}
        self._unique: dict[tuple[int, int, int], int] = {}
        self._apply_memo: dict[tuple, int] = {}

    # -- introspection -----------------------------------------------------

    @property
    def variables(self) -> tuple[str, ...]:
        return self._vars

    def level(self, var: str) -> int:
        try:
            return self._level[var]
        except KeyError:
            raise ValueError(f"unknown variable {var!r}") from None

    def _entry(self, ref: NodeRef) -> tuple:
        if not isinstance(ref, int) or not 0 <= ref < len(self._nodes):
            raise ValueError(f"invalid node reference {ref!r}")
        return self._nodes[ref]

    def is_terminal(self, ref: NodeRef) -> bool:
        return len(self._entry(ref)) == 2

    def terminal_value(self, ref: NodeRef) -> float:
        entry = self._entry(ref)
        if len(entry) != 2:
            raise ValueError(f"node {ref} is not a terminal")
        return entry[1]

    def top_var(self, ref: NodeRef) -> str | None:
        entry = self._entry(ref)
        return None if len(entry) == 2 else self._vars[entry[0]]

    def cofactors(self, ref: NodeRef) -> tuple[NodeRef, NodeRef]:
        entry = self._entry(ref)
        if len(entry) == 2:
            raise ValueError(f"node {ref} is a terminal")
        return entry[1], entry[2]

    def _level_of(self, ref: NodeRef) -> int:
        return self._entry(ref)[0]

    @property
    def live_nodes(self) -> int:
        return len(self._nodes)

    # -- construction ------------------------------------------------------

    def terminal(self, value: float) -> NodeRef:
        ref = self._terminals.get(value)  # a hit equals a valid stored float
        if ref is None:
            if not 0.0 <= value < math.inf:  # also refuses NaN
                raise ValueError(
                    f"terminal value must be finite and nonnegative: {value!r}"
                )
            value += 0.0  # a float, and -0.0 collapsed into 0.0
            ref = self._terminals[value] = len(self._nodes)
            self._nodes.append((self._leaf_level, value))
        return ref

    def node(self, var: str, lo: NodeRef, hi: NodeRef) -> NodeRef:
        level = self.level(var)
        if level >= self._level_of(lo) or level >= self._level_of(hi):
            raise ValueError(f"variable {var!r} must precede both children in the order")
        return self._mk(level, lo, hi)

    def _mk(self, level: int, lo: NodeRef, hi: NodeRef) -> NodeRef:
        """Reduced node; `lo` and `hi` must be valid and lie below `level`."""
        if lo == hi:
            return lo
        key = (level, lo, hi)
        ref = self._unique.get(key)
        if ref is None:
            ref = self._unique[key] = len(self._nodes)
            self._nodes.append(key)
        return ref

    # -- operations ----------------------------------------------------------

    def apply(self, op: str, a: NodeRef, b: NodeRef) -> NodeRef:
        fn = _OPS.get(op)
        if fn is None:
            raise ValueError(f"unsupported operator {op!r}; use one of {sorted(_OPS)}")
        self._entry(a), self._entry(b)
        return self._apply(fn, a, b)

    def _apply(self, fn, a: NodeRef, b: NodeRef) -> NodeRef:
        ea, eb = self._nodes[a], self._nodes[b]
        if len(ea) == 2:  # all supported ops commute: put a terminal second
            if len(eb) == 2:
                return self.terminal(fn(ea[1], eb[1]))
            a, b, ea, eb = b, a, eb, ea
        if len(eb) == 2:  # exact identities: x*1 = x, x*0 = 0, x+0 = x
            value = eb[1]
            if fn is mul:
                if value == 1.0:
                    return a
                if value == 0.0:
                    return b
            elif fn is add and value == 0.0:
                return a
        key = (fn, a, b) if a <= b else (fn, b, a)
        hit = self._apply_memo.get(key)
        if hit is not None:
            return hit
        la, lb = ea[0], eb[0]
        level = la if la < lb else lb
        a0, a1 = (ea[1], ea[2]) if la == level else (a, a)
        b0, b1 = (eb[1], eb[2]) if lb == level else (b, b)
        result = self._mk(level, self._apply(fn, a0, b0), self._apply(fn, a1, b1))
        self._apply_memo[key] = result
        return result

    def restrict(self, a: NodeRef, var: str, value: int) -> NodeRef:
        """Cofactor: fix one variable to 0 or 1."""
        return self.cofactor(a, {self.level(var): value})

    def cofactor(self, a: NodeRef, cube: Mapping[int, int]) -> NodeRef:
        """Fix every level in `cube` (level -> 0 or 1) in one pass."""
        self._entry(a)
        for level, bit in cube.items():
            if not (isinstance(level, int) and 0 <= level < self._leaf_level):
                raise ValueError(f"invalid level {level!r}")
            if bit not in (0, 1):
                raise ValueError("restriction value must be 0 or 1")
        return self._cofactor(a, cube)

    def _cofactor(self, a: NodeRef, cube: Mapping[int, int]) -> NodeRef:
        """`cofactor` for a valid cube."""
        return self._cofactor_walk(a, cube, max(cube), {}) if cube else a

    def _cofactor_walk(
        self, a: NodeRef, cube: Mapping[int, int], last: int, memo: dict
    ) -> NodeRef:
        entry = self._nodes[a]
        level = entry[0]
        if level > last:  # includes terminals; no cube level occurs below
            return a
        bit = cube.get(level)
        if bit is not None:
            return self._cofactor_walk(entry[1 + bit], cube, last, memo)
        result = memo.get(a)
        if result is None:
            result = memo[a] = self._mk(
                level,
                self._cofactor_walk(entry[1], cube, last, memo),
                self._cofactor_walk(entry[2], cube, last, memo),
            )
        return result

    def sum_abstract(self, a: NodeRef, variables: Iterable[str]) -> NodeRef:
        """Sum the function over all valuations of the given variables."""
        return self.multiply_sum(a, self.terminal(1.0), variables)

    def multiply_sum(self, a: NodeRef, b: NodeRef, variables: Iterable[str]) -> NodeRef:
        """`sum_abstract(apply("*", a, b), variables)`, without building the
        product above the last summed level (relational product: Burch,
        Clarke and Long 1991)."""
        levels = sorted({self.level(v) for v in variables})
        self._entry(a), self._entry(b)
        return self._multiply_sum(a, b, levels)

    def _multiply_sum(self, a: NodeRef, b: NodeRef, levels: Sequence[int]) -> NodeRef:
        """`multiply_sum` for valid references and sorted, valid levels."""
        return self._ref(self._multiply_sum_walk(a, b, levels, 0, {}))

    def _ref(self, result: NodeRef | float) -> NodeRef:
        """A walk's result as a reference: a float becomes its terminal."""
        return result if type(result) is int else self.terminal(result)

    def _multiply_sum_walk(
        self, a: NodeRef, b: NodeRef, levels: Sequence[int], i: int, memo: dict
    ) -> NodeRef | float:
        """`a * b` summed over `levels[i:]`, one recursive pass from the top.

        A cube level adds the two summed cofactor products, a cube level
        that both operands skip doubles, any other level is rebuilt; below
        the last cube level the product is an apply. Every leaf is the
        same product and the same tree of additions as summing the product
        one level at a time from the bottom, so the result is the same
        reference. A constant result is returned as its float, so the
        products and partial sums that only feed a sum are never interned.
        """
        ea, eb = self._nodes[a], self._nodes[b]
        if len(ea) == 2 and len(eb) == 2:  # doubled once per level left
            value = ea[1] * eb[1]
            for _ in range(len(levels) - i):
                value += value
            return value
        if i == len(levels):
            return self._apply(mul, a, b)
        key = (a, b, i)
        result = memo.get(key)
        if result is not None:
            return result
        la, lb, cube_level = ea[0], eb[0], levels[i]
        level = la if la < lb else lb
        if level > cube_level:
            half = self._multiply_sum_walk(a, b, levels, i + 1, memo)
            result = half + half if type(half) is float else self._apply(add, half, half)
        else:
            a0, a1 = (ea[1], ea[2]) if la == level else (a, a)
            b0, b1 = (eb[1], eb[2]) if lb == level else (b, b)
            if level == cube_level:
                lo = self._multiply_sum_walk(a0, b0, levels, i + 1, memo)
                hi = self._multiply_sum_walk(a1, b1, levels, i + 1, memo)
                if type(lo) is float and type(hi) is float:
                    result = lo + hi
                else:
                    result = self._apply(add, self._ref(lo), self._ref(hi))
            else:
                lo = self._multiply_sum_walk(a0, b0, levels, i, memo)
                hi = self._multiply_sum_walk(a1, b1, levels, i, memo)
                result = self._mk(level, self._ref(lo), self._ref(hi))
        memo[key] = result
        return result

    def evaluate(self, a: NodeRef, evaluation: Mapping[str, int]) -> float:
        """Terminal value reached by branching along a total evaluation."""
        missing = [v for v in self._vars if v not in evaluation]
        if missing:
            raise ValueError(f"evaluation must bind every variable; missing {missing}")
        entry = self._entry(a)
        while len(entry) != 2:
            bit = evaluation[self._vars[entry[0]]]
            if bit not in (0, 1):
                raise ValueError(f"evaluation values must be 0 or 1, got {bit!r}")
            entry = self._nodes[entry[1 + bit]]
        return entry[1]

    def node_count(self, a: NodeRef) -> int:
        """Distinct reachable nodes, terminals included."""
        return len(self._reachable([a]))

    def _reachable(self, roots: Iterable[NodeRef]) -> list[NodeRef]:
        """Nodes reachable from `roots` in depth-first first-visit order.

        Lo is visited before hi, as a recursive walk would.
        """
        stack = list(roots)
        for r in stack:
            self._entry(r)
        stack.reverse()
        order: list[NodeRef] = []
        seen: set[NodeRef] = set()
        while stack:
            ref = stack.pop()
            if ref in seen:
                continue
            seen.add(ref)
            order.append(ref)
            entry = self._nodes[ref]
            if len(entry) == 3:
                stack.append(entry[2])
                stack.append(entry[1])
        return order

    # -- export ----------------------------------------------------------------

    def to_dot(self, a: NodeRef, name: str = "mtbdd") -> str:
        """Graphviz rendering with deterministic first-visit node naming."""
        order = self._reachable([a])
        names = {ref: f"n{i}" for i, ref in enumerate(order)}
        lines = [f"digraph {name} {{"]
        for ref in order:
            entry = self._nodes[ref]
            if len(entry) == 2:
                lines.append(f'  {names[ref]} [shape=box, label="{entry[1]!r}"];')
            else:
                lines.append(
                    f'  {names[ref]} [shape=circle, label="{self._vars[entry[0]]}"];'
                )
        for ref in order:
            entry = self._nodes[ref]
            if len(entry) == 3:
                lines.append(f"  {names[ref]} -> {names[entry[1]]} [style=dashed];")
                lines.append(f"  {names[ref]} -> {names[entry[2]]};")
        lines.append("}")
        return "\n".join(lines) + "\n"
