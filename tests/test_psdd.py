import gc
import weakref
from itertools import product
from math import fsum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnmc import cli, fixtures
from bnmc.errors import EnumerationCapError, MalformedQueryError, PsddError, PsddParseError
from bnmc.network import Cpt, Variable, network_from_cpts
from bnmc.psdd import (
    PartitionVerdict,
    compare_with_bn,
    parse_psdd,
    parse_vtree,
    prob_assignment,
    prob_term,
    validate_partition,
)
from bnmc.symbolic import compile_network

SINGLE_VTREE = "L 0 x\n"
SINGLE_PSDD = "T 0 0 0.3\n"

PAIR_VTREE = """
L 0 x
L 2 y
I 1 0 2
"""


def make_pair_psdd(theta_x=0.4, theta_y=0.7, theta_sum_slack=0.0):
    return f"""
L 0 0 x
L 1 0 !x
T 2 2 {theta_y}
D 3 1 2 0 2 {theta_x} 1 2 {1.0 - theta_x + theta_sum_slack}
"""


def test_parse_fixture_valid(student_mood_psdd):
    assert student_mood_psdd.variables == frozenset({"Dif", "Prep", "Grade", "Mood"})
    assert student_mood_psdd.node_count() == 15


def test_vtree_variables_computed_once(student_mood_psdd):
    assert student_mood_psdd.vtree.variables is student_mood_psdd.vtree.variables


def test_vtree_grows_no_instance_state(student_mood_psdd):
    vtree = student_mood_psdd.vtree
    fields = set(vars(vtree))
    vtree.variables
    assert set(vars(vtree)) == fields


def test_parse_single_leaf():
    p = parse_psdd(SINGLE_VTREE, SINGLE_PSDD)
    assert p.variables == frozenset({"x"})
    assert prob_assignment(p, {"x": 1}) == 0.3
    assert prob_assignment(p, {"x": 0}) == 0.7


def test_parse_rejects_bad_theta_sum():
    with pytest.raises(PsddParseError, match="sum"):
        parse_psdd(PAIR_VTREE, make_pair_psdd(theta_sum_slack=-0.1))


def test_parse_rejects_terminal_theta_out_of_range():
    with pytest.raises(PsddParseError, match=r"outside \(0, 1\)"):
        parse_psdd(SINGLE_VTREE, "T 0 0 1.0\n")


def test_parse_rejects_nan_parameters():
    with pytest.raises(PsddParseError):
        parse_psdd(SINGLE_VTREE, "T 0 0 nan\n")
    text = "L 0 0 x\nL 1 0 !x\nT 2 2 0.5\nD 3 1 2 0 2 nan 1 2 1.0\n"
    with pytest.raises(PsddParseError, match="outside"):
        parse_psdd(PAIR_VTREE, text)


def test_parse_rejects_dangling_id():
    text = "L 0 0 x\nL 1 0 !x\nT 2 2 0.5\nD 3 1 2 0 2 0.5 9 2 0.5\n"
    with pytest.raises(PsddParseError, match="dangling id 9"):
        parse_psdd(PAIR_VTREE, text)


def test_parse_rejects_vtree_respect_violation():
    # Prime placed on the right subtree's leaf.
    text = "T 0 2 0.5\nT 1 2 0.6\nD 2 1 1 0 1 1.0\n"
    with pytest.raises(PsddParseError, match="respect"):
        parse_psdd(PAIR_VTREE, text)


DIF_LITERALS = "L 0 0 Dif\nL 1 0 !Dif\nT 2 6 0.5\nD 3 1 2 0 2 0.5 1 2 0.5\n"
# The same root over a sub normalized for vtree node 3: Prep, Grade and Mood
# independent, each a terminal at its own leaf.
DIF_NORMALIZED = (
    "L 0 0 Dif\nL 1 0 !Dif\nT 10 2 0.5\nT 11 4 0.5\nT 12 6 0.5\n"
    "D 13 5 1 11 12 1.0\nD 14 3 1 10 13 1.0\nD 3 1 2 0 14 0.5 1 14 0.5\n"
)


@pytest.mark.parametrize(
    "text, error",
    [
        # A sub deeper in the right subtree than its root is not normalized:
        # its distribution leaves Prep and Grade out.
        (DIF_LITERALS, "sub 2 does not respect vtree node 3, the right child"),
        (DIF_NORMALIZED, None),
        (DIF_LITERALS.replace("0 Dif", "2 Prep"), "prime 0 does not respect"),
        # The decision's own vtree node is above its right subtree.
        (DIF_NORMALIZED + "D 4 1 2 0 3 0.5 1 3 0.5\n", "sub 3 does not respect"),
    ],
)
def test_parse_checks_respect_against_whole_subtrees(text, error):
    vtree_text, _ = fixtures.student_mood_texts()
    if error is None:
        assert parse_psdd(vtree_text, text).root == 3
    else:
        with pytest.raises(PsddParseError, match=error):
            parse_psdd(vtree_text, text)


def test_parse_rejects_zero_theta_with_live_sub():
    text = "L 0 0 x\nL 1 0 !x\nT 2 2 0.5\nD 3 1 2 0 2 1.0 1 2 0.0\n"
    with pytest.raises(PsddParseError, match="bottom"):
        parse_psdd(PAIR_VTREE, text)


def test_parse_accepts_zero_theta_with_bottom_sub():
    text = "L 0 0 x\nL 1 0 !x\nT 2 2 0.5\nB 3 2\nD 4 1 2 0 2 1.0 1 3 0.0\n"
    p = parse_psdd(PAIR_VTREE, text)
    assert prob_assignment(p, {"x": 1, "y": 1}) == 0.5
    assert prob_assignment(p, {"x": 0, "y": 1}) == 0.0


@pytest.mark.parametrize(
    "vtree_text, psdd_text, message",
    [
        ("c no nodes\n", "L 0 0 x\n", "empty vtree"),
        ("L 0 x\nI 1 0 0\n", "L 0 0 x\n", "vtree node referenced by more than one parent"),
        (PAIR_VTREE, "L 0 7 x\n", "psdd line 1: unknown vtree id 7"),
        (PAIR_VTREE, "B 0 1\n", "psdd line 1: bottom terminal must sit at a vtree leaf"),
        (
            PAIR_VTREE,
            "T 0 1 0.5\n",
            "psdd line 1: parameterized terminal must sit at a vtree leaf",
        ),
        (PAIR_VTREE, "L 0 0 x\nL 0 0 !x\n", "psdd line 2: duplicate node id 0"),
        (PAIR_VTREE, "c no nodes\n", "empty psdd"),
        (PAIR_VTREE, "L 0 0 x\n", "root node 0 respects vtree node 0, not the vtree root 1"),
        (SINGLE_VTREE, "B 0 0\n", "root node 0 is a bottom terminal, of mass 0"),
    ],
    ids=["empty-vtree", "shared-vtree-child", "unknown-vtree-id", "bottom-above-leaf",
         "terminal-above-leaf", "duplicate-node", "empty-psdd", "root-below-vtree-root",
         "bottom-root"],
)
def test_parse_refusals_pinned(vtree_text, psdd_text, message):
    with pytest.raises(PsddParseError) as info:
        parse_psdd(vtree_text, psdd_text)
    assert str(info.value) == message


def test_vtree_rejects_duplicate_labels():
    with pytest.raises(PsddParseError, match="unique"):
        parse_vtree("L 0 x\nL 2 x\nI 1 0 2\n")


def test_vtree_rejects_two_roots():
    with pytest.raises(PsddParseError, match="root"):
        parse_vtree("L 0 x\nL 1 y\n")


def test_vtree_rejects_disconnected_cycle():
    text = """
L 2 x
L 3 y
I 1 2 3
L 9 p
L 10 q
I 7 8 9
I 8 7 10
"""
    with pytest.raises(PsddParseError, match="not reachable"):
        parse_vtree(text)


def test_validate_partition_fixture(student_mood_psdd):
    report = validate_partition(student_mood_psdd)
    assert report.ok
    assert len(report.verdicts) == 7  # one per decision node


def test_validate_partition_duplicate_primes():
    text = "L 0 0 x\nT 2 2 0.5\nD 3 1 2 0 2 0.5 0 2 0.5\n"
    report = validate_partition(parse_psdd(PAIR_VTREE, text))
    verdict = report.verdicts[0]
    assert not verdict.exclusive
    assert not verdict.exhaustive  # !x satisfies no prime either


def test_validate_partition_missing_negation():
    text = "L 0 0 x\nT 2 2 0.5\nD 3 1 1 0 2 1.0\n"
    report = validate_partition(parse_psdd(PAIR_VTREE, text))
    verdict = report.verdicts[0]
    assert verdict.exclusive
    assert not verdict.exhaustive


# The root's left child is internal, so the root's primes are decision nodes
# over a and b, whose own elements hold literals, true and false terminals.
NESTED_VTREE = "L 0 a\nL 2 b\nI 1 0 2\nL 4 c\nI 3 1 4\n"
NESTED_NODES = """
L 0 0 a
L 1 0 !a
T 2 2 0.5
B 3 2
D 4 1 2 0 2 1.0 1 3 0.0
D 5 1 2 0 3 0.0 1 2 1.0
T 6 4 0.3
T 7 0 0.5
D 8 1 1 7 2 1.0
"""
# Each decision node's primes as functions of (a, b, c): node 4 is a, node 5
# is not a, node 8 is true.
_A, _NOT_A = (lambda a, b, c: a), (lambda a, b, c: not a)
NESTED_PRIMES = {4: [_A, _NOT_A], 5: [_A, _NOT_A], 8: [lambda a, b, c: True]}


@pytest.mark.parametrize(
    "root, root_primes, ok",
    [
        ("D 9 3 2 4 6 0.5 5 6 0.5\n", [_A, _NOT_A], True),
        ("D 9 3 2 4 6 0.5 8 6 0.5\n", [_A, lambda a, b, c: True], False),  # overlap
    ],
    ids=["partition", "overlap"],
)
def test_validate_partition_of_decision_primes_matches_brute_force(root, root_primes, ok):
    report = validate_partition(parse_psdd(NESTED_VTREE, NESTED_NODES + root))
    primes = {**NESTED_PRIMES, 9: root_primes}
    expected = []
    for node_id in sorted(primes):
        hits = [
            [j for j, prime in enumerate(primes[node_id]) if prime(*bits)]
            for bits in product((0, 1), repeat=3)
        ]
        expected.append(
            PartitionVerdict(
                node_id=node_id,
                consistent=all(any(j in h for h in hits) for j in range(len(primes[node_id]))),
                exclusive=all(len(h) <= 1 for h in hits),
                exhaustive=all(hits),
            )
        )
    assert list(report.verdicts) == expected
    assert report.ok == ok


def test_prob_assignment_quoted_value(student_mood_psdd):
    value = prob_assignment(student_mood_psdd, {"Dif": 0, "Prep": 1, "Grade": 0, "Mood": 0})
    # 0.6 * 0.3 * (0.5 * (1 - 0.1))
    assert value == pytest.approx(0.081, abs=1e-12)


def test_prob_assignment_requires_full_binding(student_mood_psdd):
    with pytest.raises(MalformedQueryError, match="missing"):
        prob_assignment(student_mood_psdd, {"Dif": 0})


def test_prob_assignment_sums_to_one(student_mood_psdd):
    total = sum(
        prob_assignment(student_mood_psdd, dict(zip(("Dif", "Prep", "Grade", "Mood"), bits)))
        for bits in product((0, 1), repeat=4)
    )
    assert total == pytest.approx(1.0, abs=1e-9)


def test_prob_assignment_detects_broken_partition():
    text = "L 0 0 x\nT 2 2 0.5\nD 3 1 1 0 2 1.0\n"
    p = parse_psdd(PAIR_VTREE, text)
    with pytest.raises(PsddError, match="no prime"):
        prob_assignment(p, {"x": 0, "y": 1})


def test_prob_term_full_equals_assignment(student_mood_psdd):
    for bits in product((0, 1), repeat=4):
        full = dict(zip(("Dif", "Prep", "Grade", "Mood"), bits))
        assert prob_term(student_mood_psdd, full) == pytest.approx(
            prob_assignment(student_mood_psdd, full), abs=1e-12
        )


def test_prob_term_empty_is_one(student_mood_psdd):
    assert prob_term(student_mood_psdd, {}) == pytest.approx(1.0, abs=1e-12)


def test_prob_term_matches_completion_sum(student_mood_psdd):
    names = ("Dif", "Prep", "Grade", "Mood")
    term = {"Prep": 1}
    expected = sum(
        prob_assignment(student_mood_psdd, dict(zip(names, bits)))
        for bits in product((0, 1), repeat=4)
        if bits[1] == 1
    )
    assert expected == pytest.approx(0.3, abs=1e-12)
    assert prob_term(student_mood_psdd, term) == pytest.approx(expected, abs=1e-12)


def test_prob_term_monotone_under_binding(student_mood_psdd):
    loose = prob_term(student_mood_psdd, {"Prep": 1})
    tighter = prob_term(student_mood_psdd, {"Prep": 1, "Grade": 0})
    tightest = prob_term(student_mood_psdd, {"Prep": 1, "Grade": 0, "Mood": 1})
    assert loose + 1e-15 >= tighter >= tightest - 1e-15


def test_prob_term_rejects_unknown_variable(student_mood_psdd):
    with pytest.raises(MalformedQueryError, match="unknown"):
        prob_term(student_mood_psdd, {"Weather": 1})


@pytest.mark.parametrize(
    "evaluate",
    [
        lambda p: prob_term(p, {"Prep": 1}),
        lambda p: prob_assignment(p, {"Dif": 0, "Prep": 1, "Grade": 0, "Mood": 1}),
    ],
    ids=["prob_term", "prob_assignment"],
)
def test_psdd_freed_after_evaluation_without_cycle_collector(evaluate):
    gc.disable()
    try:
        diagram = fixtures.student_mood_psdd()
        evaluate(diagram)
        ref = weakref.ref(diagram)
        del diagram
        assert ref() is None
    finally:
        gc.enable()


def test_compare_with_bn_fixture(student_mood, student_mood_psdd):
    sym = compile_network(student_mood)
    mapping = {v.id: v.name for v in student_mood.variables}
    assert compare_with_bn(student_mood_psdd, sym, mapping) <= 1e-9


def test_compare_with_bn_single_variable_roundtrip():
    from conftest import single_var_bn

    bn = single_var_bn(0.3, var="x")
    sym = compile_network(bn)
    p = parse_psdd(SINGLE_VTREE, SINGLE_PSDD)
    assert compare_with_bn(p, sym, {0: "x"}) == 0.0


def test_compare_with_bn_detects_perturbation(student_mood):
    sym = compile_network(student_mood)
    vtree_text, psdd_text = fixtures.student_mood_texts()
    perturbed = psdd_text.replace("D 14 1 2 12 10 0.4 13 11 0.6", "D 14 1 2 12 10 0.5 13 11 0.5")
    p = parse_psdd(vtree_text, perturbed)
    mapping = {v.id: v.name for v in student_mood.variables}
    assert compare_with_bn(p, sym, mapping) > 1e-3


def test_compare_with_bn_requires_complete_mapping(student_mood, student_mood_psdd):
    sym = compile_network(student_mood)
    with pytest.raises(MalformedQueryError, match="incomplete"):
        compare_with_bn(student_mood_psdd, sym, {0: "Dif"})


def _right_linear_vtree(n: int) -> str:
    """x0..x{n-1}, n >= 2: internal node 2i has leaf x{i} (id 2i + 1) on its
    left, and x{n-1} is the leaf 2n - 2."""
    vtree = [f"L {2 * n - 2} x{n - 1}"]
    for i in range(n - 1):
        vtree += [f"L {2 * i + 1} x{i}", f"I {2 * i} {2 * i + 1} {2 * i + 2}"]
    return "\n".join(vtree)


def _split_on_x0_text(n: int) -> tuple[str, str]:
    """The vtree and PSDD texts of a root that splits on x0 above a terminal
    of x{n-1}; normalized only for n = 2, as the terminal skips x1..x{n-2}."""
    psdd = f"L 0 1 x0\nL 1 1 !x0\nT 2 {2 * n - 2} 0.5\nD 3 0 2 0 2 0.5 1 2 0.5\n"
    return _right_linear_vtree(n), psdd


def _split_on_x0(n: int):
    return parse_psdd(*_split_on_x0_text(n))


def test_psdd_eval_refuses_a_sub_that_skips_variables(tmp_path, capsys):
    # The terminal of x2 stands for the sub over x1 and x2, so the diagram
    # would count each x1 value once: its assignments would sum to 2.
    vtree, diagram = tmp_path / "split.vtree", tmp_path / "split.psdd"
    for path, text in zip((vtree, diagram), _split_on_x0_text(3)):
        path.write_text(text, encoding="utf-8")
    assert cli.main(["psdd-eval", str(vtree), str(diagram)]) == cli.EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: psdd line 4: sub 2 does not respect vtree node 2, "
        "the right child of vtree node 0\n"
    )


@st.composite
def _vtree_and_psdd(draw):
    """A vtree over 1-4 variables and a normalized PSDD over it, in which one
    record's vtree id, or one decision's prime or sub, may then be replaced
    by a drawn one."""
    names = draw(st.permutations([f"x{i}" for i in range(draw(st.integers(1, 4)))]))
    vtree_lines, children = [], {}

    def build(labels):
        nid = len(vtree_lines)  # a vtree node's id is its line's index
        if len(labels) == 1:
            vtree_lines.append(f"L {nid} {labels[0]}")
        else:
            vtree_lines.append(None)
            cut = draw(st.integers(1, len(labels) - 1))
            children[nid] = (build(labels[:cut]), build(labels[cut:]))
            vtree_lines[nid] = f"I {nid} {children[nid][0]} {children[nid][1]}"
        return nid

    build(names)
    label = {nid: line.split()[2] for nid, line in enumerate(vtree_lines) if nid not in children}
    records: list[list] = []

    def record(*fields) -> int:
        records.append([fields[0], len(records), *fields[1:]])
        return len(records) - 1

    def theta():
        return draw(st.sampled_from([0.25, 0.5, 0.9]))

    def diagram(vid: int, total: bool) -> int:
        """A node normalized for `vid`, whose base is every model when `total`."""
        if vid not in children:
            kind = "T" if total else draw(st.sampled_from(["T", "L", "!L"]))
            if kind == "T":
                return record("T", vid, theta())
            return record("L", vid, kind[:-1] + label[vid])
        left, right = children[vid]
        if left in children:
            primes = [diagram(left, True)]
        elif draw(st.booleans()):
            primes = [record("L", left, label[left]), record("L", left, "!" + label[left])]
        else:
            primes = [record("T", left, theta())]
        subs = [diagram(right, total) for _ in primes]
        weights = [draw(st.integers(1, 3)) for _ in primes]
        if not total and len(primes) > 1 and draw(st.booleans()):
            # A bottom of mass 0 may sit at any leaf.
            subs[0], weights[0] = record("B", draw(st.sampled_from(sorted(label)))), 0
        elements = []
        for prime, sub, w in zip(primes, subs, weights):
            elements += [prime, sub, w / sum(weights)]
        return record("D", vid, len(primes), *elements)

    diagram(0, False)
    decisions = [fields for fields in records if fields[0] == "D"]
    mutation = draw(st.sampled_from(["none", "vtree id", "child"] if decisions else ["none"]))
    if mutation == "vtree id":
        draw(st.sampled_from(records))[2] = draw(st.sampled_from(range(len(vtree_lines))))
    elif mutation == "child":
        fields = draw(st.sampled_from(decisions))
        slots = [4 + 3 * j + side for j in range(fields[3]) for side in (0, 1)]
        slot = draw(st.sampled_from(slots))
        fields[slot] = draw(st.sampled_from(range(fields[1])))
    psdd_text = "\n".join(" ".join(map(str, fields)) for fields in records)
    return "\n".join(vtree_lines), psdd_text, sorted(names)


@settings(max_examples=300, deadline=None)
@given(drawn=_vtree_and_psdd())
def test_accepted_psdds_are_distributions(drawn):
    vtree_text, psdd_text, names = drawn
    try:
        p = parse_psdd(vtree_text, psdd_text)
    except PsddParseError:
        return
    if not validate_partition(p).ok:
        return
    total = fsum(
        prob_assignment(p, dict(zip(names, bits))) for bits in product((0, 1), repeat=len(names))
    )
    assert abs(total - 1.0) <= 1e-9


def _uniform_psdd(n: int):
    """x0..x{n-1} independent and uniform, normalized for the right-linear
    vtree: node 2i holds one element, a terminal of x{i} and the rest."""
    lines = [f"T {2 * n - 2} {2 * n - 2} 0.5"]
    sub = 2 * n - 2
    for i in reversed(range(n - 1)):
        lines += [f"T {2 * i + 1} {2 * i + 1} 0.5", f"D {2 * i} {2 * i} 1 {2 * i + 1} {sub} 1.0"]
        sub = 2 * i
    return parse_psdd(_right_linear_vtree(n), "\n".join(lines))


def _uniform_sym(n: int, size: int = 2):
    """A compiled network of n independent uniform variables x0..x{n-1}."""
    variables = [Variable(i, f"x{i}", tuple(map(str, range(size)))) for i in range(n)]
    cpts = [Cpt(i, (), {(): (1.0 / size,) * size}) for i in range(n)]
    return compile_network(network_from_cpts("uniform", variables, cpts))


@pytest.mark.parametrize(
    "evaluate, error, message",
    [
        (
            lambda p: prob_term(p, {"Prep": 2}),
            MalformedQueryError,
            "Prep must be bound to 0 or 1, got 2",
        ),
        (
            lambda p: prob_assignment(
                parse_psdd(PAIR_VTREE, "L 0 0 x\nT 2 2 0.5\nD 3 1 2 0 2 0.5 0 2 0.5\n"),
                {"x": 1, "y": 0},
            ),
            PsddError,
            "multiple primes of decision node 3 are satisfied; "
            "the primes do not form a partition",
        ),
        (
            lambda p: compare_with_bn(
                parse_psdd("L 0 x0\n", "T 0 0 0.5\n"), _uniform_sym(1, size=3), {0: "x0"}
            ),
            MalformedQueryError,
            "variable x0 is not binary; no PSDD correspondence",
        ),
        (
            lambda p: compare_with_bn(_split_on_x0(2), _uniform_sym(1), {0: "x0"}),
            MalformedQueryError,
            "mapping must cover exactly the PSDD variables",
        ),
        (
            lambda p: compare_with_bn(
                _uniform_psdd(21), _uniform_sym(21), {i: f"x{i}" for i in range(21)}
            ),
            EnumerationCapError,
            "21 variables exceed the comparison limit",
        ),
    ],
    ids=["term-bit-2", "two-primes-hold", "non-binary", "mapping-misses-psdd-variable",
         "over-20-variables"],
)
def test_evaluation_refusals_pinned(student_mood_psdd, evaluate, error, message):
    with pytest.raises(error) as info:
        evaluate(student_mood_psdd)
    assert str(info.value) == message


def test_validate_partition_enumeration_cap(student_mood_psdd, monkeypatch):
    monkeypatch.setattr("bnmc.psdd.PARTITION_ENUM_LIMIT", 0)
    with pytest.raises(EnumerationCapError, match="limit"):
        validate_partition(student_mood_psdd)


def test_prob_operations_safe_under_concurrency(student_mood_psdd):
    # Per-call memo tables: concurrent evaluations must not interfere.
    from concurrent.futures import ThreadPoolExecutor

    names = ("Dif", "Prep", "Grade", "Mood")
    terms = [dict(zip(names, bits))
             for bits in product((0, 1), repeat=4)] + [{"Prep": 1}, {}]
    expected = [prob_term(student_mood_psdd, t) for t in terms]
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda t: prob_term(student_mood_psdd, t), terms * 10))
    assert results == expected * 10
