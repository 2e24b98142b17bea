import gc
import math
import random
import weakref
from itertools import product

import pytest

from bnmc.mtbdd import MtbddManager

VARS4 = ("z0", "z1", "z2", "z3")


def from_table(mgr: MtbddManager, variables, values):
    """Shannon construction from a truth table (msb = first variable)."""
    if len(values) == 1:
        return mgr.terminal(values[0])
    half = len(values) // 2
    lo = from_table(mgr, variables[1:], values[:half])
    hi = from_table(mgr, variables[1:], values[half:])
    return lo if lo == hi else mgr.node(variables[0], lo, hi)


def evaluations(variables):
    for bits in product((0, 1), repeat=len(variables)):
        yield dict(zip(variables, bits))


def table_value(values, variables, evaluation):
    index = 0
    for v in variables:
        index = (index << 1) | evaluation[v]
    return values[index]


def random_table(rng, size, pool=(0.0, 0.25, 0.5, 1.0)):
    return tuple(rng.choice(pool) for _ in range(size))


# -- construction -------------------------------------------------------------


def test_terminal_hash_consing():
    mgr = MtbddManager(VARS4)
    assert mgr.terminal(0.5) == mgr.terminal(0.5)
    assert mgr.terminal(0.0) != mgr.terminal(1.0)


def test_terminal_negative_zero_collapses():
    mgr = MtbddManager(VARS4)
    assert mgr.terminal(-0.0) == mgr.terminal(0.0)


def test_terminal_rejects_nan_negative_infinite():
    mgr = MtbddManager(VARS4)
    for bad in (float("nan"), -0.25, float("inf")):
        with pytest.raises(ValueError):
            mgr.terminal(bad)


def test_terminal_unique_table_counts_distinct_values():
    mgr = MtbddManager(VARS4)
    rng = random.Random(3)
    values = [rng.random() for _ in range(10_000)]
    refs = {mgr.terminal(v) for v in values}
    assert len(refs) == len(set(values))
    assert mgr.live_nodes == len(set(values))


def test_terminal_validates_every_new_value_once_terminals_exist():
    mgr = MtbddManager(VARS4)
    for value in (0.0, 1.0, 0.25, 2.5):
        mgr.terminal(value)
    live = mgr.live_nodes
    for bad in (float("nan"), float("inf"), float("-inf"), -0.25, -1e-300):
        with pytest.raises(ValueError):
            mgr.terminal(bad)
    assert mgr.live_nodes == live


@pytest.mark.parametrize("first", [0.0, -0.0, 0])
def test_terminal_zero_forms_share_the_positive_zero(first):
    mgr = MtbddManager(VARS4)
    zero = mgr.terminal(first)
    assert mgr.terminal(-0.0) == mgr.terminal(0) == mgr.terminal(0.0) == zero
    value = mgr.terminal_value(zero)
    assert type(value) is float and math.copysign(1.0, value) == 1.0
    assert mgr.live_nodes == 1


def test_node_redundant_child_elimination():
    mgr = MtbddManager(VARS4)
    t = mgr.terminal(0.3)
    assert mgr.node("z0", t, t) == t


def test_node_isomorphic_subtree_elimination():
    mgr = MtbddManager(VARS4)
    t0, t1 = mgr.terminal(0.0), mgr.terminal(1.0)
    a = mgr.node("z1", t0, t1)
    b = mgr.node("z1", t0, t1)
    assert a == b


def test_node_order_violation():
    mgr = MtbddManager(VARS4)
    t0, t1 = mgr.terminal(0.0), mgr.terminal(1.0)
    inner = mgr.node("z1", t0, t1)
    with pytest.raises(ValueError, match="precede"):
        mgr.node("z1", inner, t0)
    with pytest.raises(ValueError, match="precede"):
        mgr.node("z2", inner, t0)


@pytest.mark.parametrize(
    "make_bad",
    [lambda mgr: -1, lambda mgr: len(mgr._nodes), lambda mgr: "0"],
    ids=["negative", "past-the-end", "string"],
)
def test_node_rejects_invalid_child_reference(make_bad):
    mgr = MtbddManager(VARS4)
    t = mgr.terminal(0.5)
    bad = make_bad(mgr)
    with pytest.raises(ValueError, match="invalid node reference"):
        mgr.node("z0", bad, t)
    with pytest.raises(ValueError, match="invalid node reference"):
        mgr.node("z0", t, bad)


def _inner(mgr: MtbddManager) -> int:
    return mgr.node("z1", mgr.terminal(0.25), mgr.terminal(0.75))


@pytest.mark.parametrize(
    "misuse, message",
    [
        (lambda mgr: MtbddManager(("a", "b", "a")), "variable labels must be unique"),
        (lambda mgr: mgr.cofactors(mgr.terminal(0.5)), r"node \d+ is a terminal"),
        (lambda mgr: mgr.terminal_value(_inner(mgr)), r"node \d+ is not a terminal"),
        (
            lambda mgr: mgr.evaluate(_inner(mgr), {"z0": 0, "z1": 2, "z2": 0, "z3": 0}),
            "evaluation values must be 0 or 1, got 2",
        ),
    ],
    ids=["duplicate-labels", "cofactors-of-terminal", "value-of-inner", "bit-of-2"],
)
def test_manager_refuses_misuse(misuse, message):
    with pytest.raises(ValueError, match=message):
        misuse(MtbddManager(VARS4))


def test_node_unknown_variable():
    mgr = MtbddManager(VARS4)
    with pytest.raises(ValueError, match="unknown"):
        mgr.node("w", mgr.terminal(0.0), mgr.terminal(1.0))


def test_all_two_variable_boolean_functions_distinct():
    mgr = MtbddManager(("a", "b"))
    refs = set()
    for values in product((0.0, 1.0), repeat=4):
        refs.add(from_table(mgr, ("a", "b"), values))
    assert len(refs) == 16


# -- apply ---------------------------------------------------------------------


def test_apply_identities():
    mgr = MtbddManager(VARS4)
    rng = random.Random(1)
    f = from_table(mgr, VARS4, random_table(rng, 16))
    assert mgr.apply("*", f, mgr.terminal(1.0)) == f
    assert mgr.apply("+", f, mgr.terminal(0.0)) == f


def test_apply_unknown_operator():
    mgr = MtbddManager(VARS4)
    t = mgr.terminal(1.0)
    with pytest.raises(ValueError, match="unsupported operator"):
        mgr.apply("-", t, t)


@pytest.mark.parametrize("op,fn", [("+", lambda a, b: a + b), ("*", lambda a, b: a * b), ("min", min), ("max", max)])
def test_apply_pointwise_exhaustive(op, fn):
    rng = random.Random(hash(op) & 0xFFFF)
    mgr = MtbddManager(VARS4)
    for _ in range(60):
        ta = random_table(rng, 16)
        tb = random_table(rng, 16)
        a = from_table(mgr, VARS4, ta)
        b = from_table(mgr, VARS4, tb)
        result = mgr.apply(op, a, b)
        for e in evaluations(VARS4):
            expected = fn(table_value(ta, VARS4, e), table_value(tb, VARS4, e))
            assert mgr.evaluate(result, e) == pytest.approx(expected, abs=1e-15)


def test_apply_commutes():
    rng = random.Random(9)
    mgr = MtbddManager(VARS4)
    for op in ("+", "*", "min", "max"):
        a = from_table(mgr, VARS4, random_table(rng, 16))
        b = from_table(mgr, VARS4, random_table(rng, 16))
        assert mgr.apply(op, a, b) == mgr.apply(op, b, a)


def test_apply_associative_within_tolerance():
    rng = random.Random(10)
    mgr = MtbddManager(VARS4)
    for op in ("+", "*"):
        a = from_table(mgr, VARS4, random_table(rng, 16, pool=(0.1, 0.3, 0.7)))
        b = from_table(mgr, VARS4, random_table(rng, 16, pool=(0.1, 0.3, 0.7)))
        c = from_table(mgr, VARS4, random_table(rng, 16, pool=(0.1, 0.3, 0.7)))
        left = mgr.apply(op, mgr.apply(op, a, b), c)
        right = mgr.apply(op, a, mgr.apply(op, b, c))
        for e in evaluations(VARS4):
            assert mgr.evaluate(left, e) == pytest.approx(
                mgr.evaluate(right, e), abs=1e-12
            )


# -- restrict --------------------------------------------------------------------


def test_restrict_terminal_unchanged():
    mgr = MtbddManager(VARS4)
    t = mgr.terminal(0.4)
    assert mgr.restrict(t, "z0", 0) == t


def test_restrict_top_variable_returns_child():
    mgr = MtbddManager(VARS4)
    lo, hi = mgr.terminal(0.0), mgr.terminal(1.0)
    node = mgr.node("z0", lo, hi)
    assert mgr.restrict(node, "z0", 1) == hi
    assert mgr.restrict(node, "z0", 0) == lo


def test_restrict_pointwise_and_removes_variable():
    rng = random.Random(21)
    mgr = MtbddManager(VARS4)
    for _ in range(50):
        table = random_table(rng, 16)
        f = from_table(mgr, VARS4, table)
        var = rng.choice(VARS4)
        bit = rng.randrange(2)
        g = mgr.restrict(f, var, bit)
        for e in evaluations(VARS4):
            pinned = dict(e)
            pinned[var] = bit
            assert mgr.evaluate(g, e) == table_value(table, VARS4, pinned)
        # The restricted variable no longer occurs anywhere in g.
        stack, seen = [g], set()
        while stack:
            ref = stack.pop()
            if ref in seen or mgr.is_terminal(ref):
                continue
            seen.add(ref)
            assert mgr.top_var(ref) != var
            stack.extend(mgr.cofactors(ref))


# -- sum_abstract -----------------------------------------------------------------


def test_sum_abstract_terminal_doubles():
    mgr = MtbddManager(VARS4)
    out = mgr.sum_abstract(mgr.terminal(0.3), {"z1"})
    assert mgr.terminal_value(out) == pytest.approx(0.6, abs=1e-15)


def test_sum_abstract_matches_brute_force():
    rng = random.Random(33)
    mgr = MtbddManager(VARS4)
    for _ in range(50):
        table = random_table(rng, 16, pool=(0.05, 0.2, 0.35, 0.6))
        f = from_table(mgr, VARS4, table)
        subset = tuple(v for v in VARS4 if rng.random() < 0.5)
        g = mgr.sum_abstract(f, subset)
        rest = [v for v in VARS4 if v not in subset]
        for bits in product((0, 1), repeat=len(rest)):
            fixed = dict(zip(rest, bits))
            expected = 0.0
            for completion in product((0, 1), repeat=len(subset)):
                e = dict(fixed)
                e.update(zip(subset, completion))
                expected += table_value(table, VARS4, e)
            probe = dict(fixed)
            probe.update({v: 0 for v in subset})
            assert mgr.evaluate(g, probe) == pytest.approx(expected, abs=1e-12)


def test_sum_abstract_all_vars_gives_total():
    rng = random.Random(4)
    mgr = MtbddManager(VARS4)
    table = random_table(rng, 16, pool=(0.1, 0.2, 0.3))
    f = from_table(mgr, VARS4, table)
    total = mgr.sum_abstract(f, VARS4)
    assert mgr.is_terminal(total)
    assert mgr.terminal_value(total) == pytest.approx(sum(table), abs=1e-12)


# -- one-pass kernels against per-level reference loops ----------------------------

VARS8 = tuple(f"y{i}" for i in range(8))


def _reference_restrict(mgr, f, level, bit):
    """Fix one level by rebuilding every node above it with `_mk`."""
    memo = {}

    def walk(ref):
        if mgr.is_terminal(ref) or mgr.level(mgr.top_var(ref)) > level:
            return ref
        lo, hi = mgr.cofactors(ref)
        top = mgr.level(mgr.top_var(ref))
        if top == level:
            return (lo, hi)[bit]
        if ref not in memo:
            memo[ref] = mgr._mk(top, walk(lo), walk(hi))
        return memo[ref]

    return walk(f)


def _random_diagram(rng, mgr):
    """A diagram over a random subset of VARS8, so some levels are absent."""
    support = [v for v in VARS8 if rng.random() < 0.6]
    pool = (0.0, 0.1, 0.2, 0.3, 0.7, 1 / 3, 2 / 3, 0.123456789)
    return from_table(mgr, support, random_table(rng, 2 ** len(support), pool)), support


def test_cofactor_equals_per_bit_rebuilds():
    rng = random.Random(71)
    mgr = MtbddManager(VARS8)
    for trial in range(200):
        f, support = _random_diagram(rng, mgr)
        if trial % 4 == 0:  # levels absent from the diagram, not adjacent
            absent = [mgr.level(v) for v in VARS8 if v not in support]
            levels = absent[::2] + [mgr.level(v) for v in support[::2]]
        else:
            levels = rng.sample(range(len(VARS8)), rng.randint(0, len(VARS8)))
        cube = {level: rng.randrange(2) for level in levels}
        expected = f
        for level, bit in cube.items():
            expected = _reference_restrict(mgr, expected, level, bit)
        assert mgr.cofactor(f, cube) == expected
    for var in VARS8:
        assert mgr.restrict(f, var, 1) == _reference_restrict(mgr, f, mgr.level(var), 1)


def test_one_pass_sum_abstract_returns_the_per_level_reference():
    rng = random.Random(72)
    mgr = MtbddManager(VARS8)
    cubes = [
        ("y1", "y4", "y6"),  # not adjacent
        VARS8,
        ("y7",),
        ("y0", "y2", "y3"),
    ]
    for trial in range(200):
        f, support = _random_diagram(rng, mgr)
        absent = [v for v in VARS8 if v not in support]
        if trial < len(cubes):
            cube = cubes[trial]
        elif trial % 3 == 0 and absent:  # holds levels the diagram skips
            cube = tuple(rng.sample(absent, 1) + rng.sample(support, min(2, len(support))))
        else:
            cube = tuple(v for v in VARS8 if rng.random() < 0.5)
        expected = f
        for level in sorted((mgr.level(v) for v in cube), reverse=True):
            expected = mgr.apply(
                "+",
                _reference_restrict(mgr, expected, level, 0),
                _reference_restrict(mgr, expected, level, 1),
            )
        assert mgr.sum_abstract(f, cube) == expected


VARS6 = VARS8[:6]


def _per_level_sum(mgr, f, cube):
    """`f` summed over `cube` one level at a time from the bottom."""
    for level in sorted((mgr.level(v) for v in cube), reverse=True):
        f = mgr.apply(
            "+", _reference_restrict(mgr, f, level, 0), _reference_restrict(mgr, f, level, 1)
        )
    return f


def test_multiply_sum_returns_the_apply_then_sum_reference():
    """On 1,200 random pairs over at most 6 bits, with leaves of 0.0, 1.0
    and arbitrary values, the fused kernel returns the reference that
    building the product and summing it out gives."""
    rng = random.Random(73)
    mgr = MtbddManager(VARS6)
    pool = (0.0, 0.0, 1.0, 1.0, 0.5, 1 / 3, 0.123456789, 2.5)

    def operand():
        if rng.random() < 0.1:
            return mgr.terminal(rng.choice(pool)), set()
        support = [v for v in VARS6 if rng.random() < 0.6]
        values = [
            rng.choice(pool) if rng.random() < 0.7 else rng.random()
            for _ in range(2 ** len(support))
        ]
        return from_table(mgr, support, values), set(support)

    seen = {"terminal": 0, "empty": 0, "unmentioned": 0}
    for trial in range(1_200):
        (a, sa), (b, sb) = operand(), operand()
        cube = tuple(v for v in VARS6 if rng.random() < 0.5)
        if trial % 10 == 0:
            cube = ()
        seen["terminal"] += mgr.is_terminal(a) or mgr.is_terminal(b)
        seen["empty"] += not cube
        seen["unmentioned"] += any(v not in sa | sb for v in cube)
        product_ = mgr.apply("*", a, b)
        fused = mgr.multiply_sum(a, b, cube)
        assert fused == mgr.sum_abstract(product_, cube)
        assert fused == _per_level_sum(mgr, product_, cube)
        assert mgr.multiply_sum(b, a, cube) == fused
    assert min(seen.values()) > 100


def test_multiply_sum_builds_no_product_node():
    """Summed over every level, the result is one terminal: the walk interns
    that total and nothing else, where the product alone has many nodes."""
    rng = random.Random(74)
    mgr = MtbddManager(VARS6)
    a = from_table(mgr, VARS6, [rng.random() for _ in range(64)])
    b = from_table(mgr, VARS6, [rng.random() for _ in range(64)])
    live = mgr.live_nodes
    total = mgr.multiply_sum(a, b, VARS6)
    assert mgr.is_terminal(total) and mgr.live_nodes == live + 1
    assert mgr.sum_abstract(mgr.apply("*", a, b), VARS6) == total
    assert mgr.live_nodes > live + 64


def test_multiply_sum_checks_its_arguments():
    mgr = MtbddManager(VARS4)
    f = mgr.node("z1", mgr.terminal(0.25), mgr.terminal(0.75))
    with pytest.raises(ValueError, match="unknown variable"):
        mgr.multiply_sum(f, f, ("q",))
    with pytest.raises(ValueError, match="invalid node reference"):
        mgr.multiply_sum(f, len(mgr._nodes), ("z1",))


def test_op_results_that_overflow_are_refused_as_terminal_is():
    mgr = MtbddManager(VARS4)
    big = mgr.terminal(1e308)
    for make in (
        lambda: mgr.terminal(math.inf),
        lambda: mgr.apply("+", big, big),
        lambda: mgr.apply("*", big, mgr.terminal(10.0)),
        lambda: mgr.apply("+", mgr.node("z0", big, mgr.terminal(0.5)), big),
        lambda: mgr.sum_abstract(big, ("z2",)),
        lambda: mgr.multiply_sum(
            mgr.node("z3", big, mgr.terminal(0.5)), mgr.terminal(0.9), ("z0", "z3")
        ),
    ):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            make()
    leaves = [mgr.terminal_value(r) for r in range(mgr.live_nodes) if mgr.is_terminal(r)]
    assert math.inf not in leaves


def test_cofactor_rejects_bad_cubes():
    mgr = MtbddManager(VARS4)
    f = mgr.node("z1", mgr.terminal(0.25), mgr.terminal(0.75))
    assert mgr.cofactor(f, {}) == f
    for cube in ({4: 0}, {-1: 1}, {"z1": 0}, {1: 2}):
        with pytest.raises(ValueError):
            mgr.cofactor(f, cube)
    with pytest.raises(ValueError):
        mgr.cofactor(len(mgr._nodes), {1: 0})


# -- evaluate / node_count ------------------------------------------------------------


def test_evaluate_terminal_ignores_branching():
    mgr = MtbddManager(VARS4)
    t = mgr.terminal(0.42)
    assert mgr.evaluate(t, {v: 1 for v in VARS4}) == 0.42


def test_evaluate_requires_total_evaluation():
    mgr = MtbddManager(VARS4)
    t = mgr.terminal(0.42)
    with pytest.raises(ValueError, match="missing"):
        mgr.evaluate(t, {"z0": 1})


def test_all_paths_sum_to_abstract_total():
    rng = random.Random(8)
    mgr = MtbddManager(VARS4)
    table = random_table(rng, 16, pool=(0.01, 0.07, 0.11))
    f = from_table(mgr, VARS4, table)
    path_sum = sum(mgr.evaluate(f, e) for e in evaluations(VARS4))
    total = mgr.terminal_value(mgr.sum_abstract(f, VARS4))
    assert path_sum == pytest.approx(total, abs=1e-12)


def test_node_count_terminal():
    mgr = MtbddManager(VARS4)
    assert mgr.node_count(mgr.terminal(0.9)) == 1


def test_node_count_full_binary_tree():
    # Distinct terminals everywhere force a complete tree: 2^(m+1) - 1 nodes.
    m = 3
    variables = tuple(f"y{i}" for i in range(m))
    mgr = MtbddManager(variables)
    values = tuple(0.001 * (i + 1) for i in range(2**m))
    root = from_table(mgr, variables, values)
    assert mgr.node_count(root) == 2 ** (m + 1) - 1


# -- canonicity and cache discipline -----------------------------------------------


def test_canonicity_two_build_paths():
    rng = random.Random(13)
    mgr = MtbddManager(VARS4)
    seen: dict[tuple, int] = {}
    for _ in range(300):
        table = random_table(rng, 16, pool=(0.0, 0.5, 1.0))
        direct = from_table(mgr, VARS4, table)
        # Second path: sum of one-point diagrams, built through apply.
        acc = mgr.terminal(0.0)
        for i, value in enumerate(table):
            if value == 0.0:
                continue
            bits = [(i >> (3 - k)) & 1 for k in range(4)]
            point = mgr.terminal(value)
            for k in (3, 2, 1, 0):
                zero = mgr.terminal(0.0)
                point = (
                    mgr.node(VARS4[k], zero, point)
                    if bits[k]
                    else mgr.node(VARS4[k], point, zero)
                )
            acc = mgr.apply("+", acc, point)
        assert acc == direct
        previous = seen.get(table)
        assert previous is None or previous == direct
        seen[table] = direct
    # Distinct truth tables never share a reference.
    assert len(set(seen.values())) == len(seen)


def test_unique_table_never_holds_unreduced_nodes():
    rng = random.Random(15)
    mgr = MtbddManager(VARS4)
    for _ in range(100):
        a = from_table(mgr, VARS4, random_table(rng, 16))
        b = from_table(mgr, VARS4, random_table(rng, 16))
        mgr.apply(rng.choice(("+", "*", "min", "max")), a, b)
    for (level, lo, hi), ref in mgr._unique.items():
        assert lo != hi
        assert level < mgr._level_of(lo)
        assert level < mgr._level_of(hi)
        assert mgr._nodes[ref] == (level, lo, hi)


def test_to_dot_deterministic(student_mood_dpg):
    from bnmc.symbolic import compile_network

    sym = compile_network(student_mood_dpg)
    first = sym.manager.to_dot(sym.joint)
    assert first == sym.manager.to_dot(sym.joint)
    assert first.startswith("digraph")
    assert "shape=box" in first


def test_to_dot_text_pinned():
    mgr = MtbddManager(["x", "y", "z"])
    z = mgr.node("z", mgr.terminal(0.5), mgr.terminal(0.25))
    y = mgr.node("y", z, mgr.terminal(1.0))
    root = mgr.node("x", y, z)
    assert mgr.to_dot(root, name="pin") == (
        "digraph pin {\n"
        '  n0 [shape=circle, label="x"];\n'
        '  n1 [shape=circle, label="y"];\n'
        '  n2 [shape=circle, label="z"];\n'
        '  n3 [shape=box, label="0.5"];\n'
        '  n4 [shape=box, label="0.25"];\n'
        '  n5 [shape=box, label="1.0"];\n'
        "  n0 -> n1 [style=dashed];\n"
        "  n0 -> n2;\n"
        "  n1 -> n2 [style=dashed];\n"
        "  n1 -> n5;\n"
        "  n2 -> n3 [style=dashed];\n"
        "  n2 -> n4;\n"
        "}\n"
    )


def test_manager_freed_after_to_dot_without_cycle_collector():
    gc.disable()
    try:
        mgr = MtbddManager(VARS4)
        root = from_table(mgr, VARS4, [0.1 * i for i in range(16)])
        mgr.to_dot(root)
        ref = weakref.ref(mgr)
        del mgr
        assert ref() is None
    finally:
        gc.enable()
