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

The apply memo persists for the manager's life. `cofactor` (which
`restrict` calls with one bit) and `sum_abstract` each make one recursive
pass with a memo that lasts only that call (Bahar et al. 1993).

Node creation and the operations that populate caches must be serialized
per manager; finished references may be read concurrently.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Mapping, Sequence

NodeRef = int

_OPS: dict[str, Callable[[float, float], float]] = {
    "+": lambda a, b: a + b,
    "*": lambda a, b: a * b,
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

    def _alloc(self, entry: tuple) -> NodeRef:
        self._nodes.append(entry)
        return len(self._nodes) - 1

    def terminal(self, value: float) -> NodeRef:
        ref = self._terminals.get(value)  # a hit equals a valid stored float
        if ref is None:
            value = float(value)
            if math.isnan(value) or math.isinf(value) or value < 0.0:
                raise ValueError(
                    f"terminal value must be finite and nonnegative: {value!r}"
                )
            if value == 0.0:
                value = 0.0  # collapse -0.0
            ref = self._terminals.get(value)
            if ref is None:
                ref = self._alloc((self._leaf_level, value))
                self._terminals[value] = ref
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
            ref = self._alloc(key)
            self._unique[key] = ref
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
        if len(ea) == 2 and len(eb) == 2:
            return self.terminal(fn(ea[1], eb[1]))
        key = (fn, a, b) if a <= b else (fn, b, a)  # all supported ops commute
        hit = self._apply_memo.get(key)
        if hit is not None:
            return hit
        la, lb = ea[0], eb[0]
        level = min(la, lb)
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
        if not cube:
            return a
        return self._cofactor(a, cube, max(cube), {})

    def _cofactor(
        self, a: NodeRef, cube: Mapping[int, int], last: int, memo: dict
    ) -> NodeRef:
        entry = self._nodes[a]
        level = entry[0]
        if level > last:  # includes terminals; no cube level occurs below
            return a
        bit = cube.get(level)
        if bit is not None:
            return self._cofactor(entry[1 + bit], cube, last, memo)
        result = memo.get(a)
        if result is None:
            result = memo[a] = self._mk(
                level,
                self._cofactor(entry[1], cube, last, memo),
                self._cofactor(entry[2], cube, last, memo),
            )
        return result

    def sum_abstract(self, a: NodeRef, variables: Iterable[str]) -> NodeRef:
        """Sum the function over all valuations of the given variables."""
        levels = sorted({self.level(v) for v in variables})
        self._entry(a)
        return self._sum_abstract(a, levels, 0, {})

    def _sum_abstract(self, a: NodeRef, levels: list[int], i: int, memo: dict) -> NodeRef:
        """`a` summed over `levels[i:]`, one recursive pass from the top.

        A cube level adds the two summed children, a cube level that `a`
        skips doubles, any other level is rebuilt. Every value is the same
        tree of additions as summing the levels one at a time from the
        bottom, so the result is the same reference.
        """
        if i == len(levels):
            return a
        key = (a, i)
        result = memo.get(key)
        if result is not None:
            return result
        entry = self._nodes[a]
        level, cube_level = entry[0], levels[i]
        if level > cube_level:  # includes terminals
            half = self._sum_abstract(a, levels, i + 1, memo)
            result = self._apply(_OPS["+"], half, half)
        elif level == cube_level:
            result = self._apply(
                _OPS["+"],
                self._sum_abstract(entry[1], levels, i + 1, memo),
                self._sum_abstract(entry[2], levels, i + 1, memo),
            )
        else:
            result = self._mk(
                level,
                self._sum_abstract(entry[1], levels, i, memo),
                self._sum_abstract(entry[2], levels, i, memo),
            )
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
