import csv
import io
import itertools
import json
import os
import re
import resource
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnmc.bif import parse_bif, write_bif
from bnmc.cli import main
from bnmc.errors import BifParseError, IllConditionedQueryError
from bnmc.fixtures import student_mood as load_student_mood
from bnmc.fixtures import student_mood_texts
from bnmc.gen import random_network, random_query
from bnmc.network import Cpt, Variable, network_from_cpts
from bnmc.oracle import oracle_infer
from bnmc.reach import ReachQuery, ancestral_query
from bnmc.symbolic import STRATEGIES

import random


@pytest.fixture
def bif_path(tmp_path):
    path = tmp_path / "student_mood.bif"
    path.write_text(write_bif(load_student_mood()), encoding="utf-8")
    return str(path)


@pytest.fixture
def psdd_paths(tmp_path):
    vtree_text, psdd_text = student_mood_texts()
    vtree = tmp_path / "fixture.vtree"
    diagram = tmp_path / "fixture.psdd"
    vtree.write_text(vtree_text, encoding="utf-8")
    diagram.write_text(psdd_text, encoding="utf-8")
    return str(vtree), str(diagram)


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


CHILD_ADDRESS_SPACE = 1 << 30  # bytes, as the benchmark caps its own runs


def run_python(args, *, timeout=60):
    """`python args` in a child process capped at CHILD_ADDRESS_SPACE, so a
    walk that grows without bound fails within `timeout` seconds, as a
    MemoryError or a TimeoutExpired, instead of holding the suite. The
    child imports the package and the test modules."""

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (CHILD_ADDRESS_SPACE, CHILD_ADDRESS_SPACE))

    tests = Path(__file__).resolve().parent
    done = subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join([str(tests.parent / "src"), str(tests)])},
        preexec_fn=limit,
        timeout=timeout,
    )
    return done.returncode, done.stdout, done.stderr


def run_child(args, *, timeout=60):
    """`bnmc args` as `python -m bnmc.cli` in a capped child process."""
    return run_python(["-m", "bnmc.cli", *args], timeout=timeout)


def test_stats_row(bif_path, capsys):
    code, out, _ = run(["stats", bif_path], capsys)
    assert code == 0
    header, row = out.strip().splitlines()
    assert header.split() == ["BN", "#Vertices", "#Edges", "InDegreeMax", "Dmax", "AMB", "#Parameters"]
    assert row.split() == ["student_mood", "4", "3", "2", "2", "2.00", "8"]


def test_stats_on_a_3000_variable_copy_chain(tmp_path, capsys):
    from conftest import copy_chain_bn

    path = tmp_path / "copy.bif"
    path.write_text(write_bif(copy_chain_bn(3000)), encoding="utf-8")
    code, out, err = run(["stats", str(path)], capsys)
    assert code == 0, err
    assert out.splitlines()[1].split() == ["copy", "3000", "2999", "1", "2", "2.00", "5999"]


def test_stats_missing_file(capsys):
    code, _, err = run(["stats", "/no/such/file.bif"], capsys)
    assert code == 2
    assert "error" in err


def test_infer_quoted_query(bif_path, capsys):
    args = [
        "infer", bif_path,
        "--ev", "Prep=1",
        "--hyp", "Dif=0", "--hyp", "Grade=0", "--hyp", "Mood=0",
    ]
    code, out, _ = run(args, capsys)
    assert code == 0
    assert float(out.strip()) == pytest.approx(0.27, abs=1e-9)


def test_infer_bindings_in_one_flag_match_repeated_flags(bif_path, capsys):
    repeated = ["--ev", "Prep=1", "--hyp", "Dif=0", "--hyp", "Grade=0", "--hyp", "Mood=0"]
    _, expected, _ = run(["infer", bif_path, *repeated], capsys)
    # Comma lists, mixed with a repeated flag, and the network given last.
    args = ["infer", "--ev", "Prep=1", "--hyp", "Dif=0,Grade=0", "--hyp", "Mood=0", bif_path]
    code, out, err = run(args, capsys)
    assert code == 0, err
    assert out == expected


def test_infer_trailing_comma_in_bindings_exits_2(bif_path, capsys):
    code, _, err = run(["infer", bif_path, "--ev", "Prep=1,"], capsys)
    assert code == 2
    assert "var=value" in err


def test_infer_empty_query_is_one(bif_path, capsys):
    code, out, _ = run(["infer", bif_path], capsys)
    assert code == 0
    assert float(out.strip()) == 1.0


def test_infer_all_engines_agree(bif_path, capsys):
    args = ["infer", bif_path, "--ev", "Prep=1", "--hyp", "Grade=0", "--engine", "all"]
    code, out, _ = run(args, capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert [l.split(":")[0] for l in lines] == ["explicit", "symbolic", "oracle", "max deviation"]
    deviation = float(lines[-1].split(":")[1])
    assert deviation <= 1e-9


def test_infer_cross_engine_harness(tmp_path, capsys):
    rng = random.Random(99)
    for i in range(5):
        bn = random_network(rng, max_vars=4, max_domain=3, name=f"net{i}")
        path = tmp_path / f"net{i}.bif"
        path.write_text(write_bif(bn), encoding="utf-8")
        hyp = bn.variables[rng.randrange(len(bn.variables))]
        args = [
            "infer", str(path),
            "--hyp", f"{hyp.name}={hyp.domain[0]}",
            "--engine", "all",
        ]
        code, out, _ = run(args, capsys)
        assert code == 0
        assert float(out.strip().splitlines()[-1].split(":")[1]) <= 1e-9


def test_infer_unknown_variable(bif_path, capsys):
    code, _, err = run(["infer", bif_path, "--ev", "Nope=1"], capsys)
    assert code == 2
    assert "unknown" in err


def test_infer_unknown_name_message(bif_path, capsys):
    for flag in ("--ev", "--hyp"):
        code, out, err = run(["infer", bif_path, flag, "Nope=1"], capsys)
        assert (code, out, err) == (2, "", "error: unknown variable name 'Nope'\n")


def test_infer_binds_names_and_labels_that_hold_an_equals_sign(tmp_path, capsys):
    # write_bif and parse_bif carry `=` in a name or a label.
    ab = Variable(id=0, name="a=b", domain=("no", "yes"))
    c = Variable(id=1, name="c", domain=("x=1", "x=2"))
    bn = network_from_cpts(
        "eq",
        [ab, c],
        [
            Cpt(owner=0, parents=(), rows={(): (0.25, 0.75)}),
            Cpt(owner=1, parents=(0,), rows={(0,): (0.5, 0.5), (1,): (0.1, 0.9)}),
        ],
    )
    path = tmp_path / "eq.bif"
    path.write_text(write_bif(bn), encoding="utf-8")
    code, out, err = run(["infer", str(path), "--hyp", "a=b=yes", "--engine", "all"], capsys)
    assert code == 0, err
    assert out.splitlines()[:3] == ["explicit: 0.75", "symbolic: 0.75", "oracle: 0.75"]
    args = ["infer", str(path), "--ev", "a=b=yes", "--hyp", "c=x=2", "--engine", "oracle"]
    code, out, err = run(args, capsys)
    assert code == 0, err
    assert float(out) == pytest.approx(0.9, abs=1e-15)
    # When no split is accepted, the error is the first split's.
    code, out, err = run(["infer", str(path), "--hyp", "a=b=maybe"], capsys)
    assert (code, out, err) == (2, "", "error: unknown variable name 'a'\n")
    code, out, err = run(["infer", str(path), "--hyp", "c=x=3"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: value 'x=3' not in the domain of c ['x=1', 'x=2']\n"


def test_psdd_eval_binds_a_vtree_name_that_holds_an_equals_sign(tmp_path, capsys):
    vtree, diagram = tmp_path / "eq.vtree", tmp_path / "eq.psdd"
    vtree.write_text("L 0 x=y\n", encoding="utf-8")
    diagram.write_text("T 0 0 0.8\n", encoding="utf-8")
    code, out, err = run(["psdd-eval", str(vtree), str(diagram), "--hyp", "x=y=1"], capsys)
    assert code == 0, err
    assert float(out) == pytest.approx(0.8, abs=1e-15)
    code, out, err = run(["psdd-eval", str(vtree), str(diagram), "--hyp", "x=y=maybe"], capsys)
    assert (code, out, err) == (2, "", "error: unknown PSDD variable 'x'\n")


def test_infer_refuses_infinite_domain_count(tmp_path, capsys):
    path = tmp_path / "inf.bif"
    path.write_text(
        "network t { }\n"
        "variable x { type discrete [ inf ] { a, b }; }\n"
        "probability ( x ) { table 0.5, 0.5; }\n",
        encoding="utf-8",
    )
    code, _, err = run(["infer", str(path), "--engine", "all"], capsys)
    assert code == 2
    assert "line 2, col 30: expected a whole number, got 'inf'" in err


def test_infer_ill_conditioned_exit_code(tmp_path, capsys):
    a = Variable(id=0, name="a", domain=("0", "1"))
    b = Variable(id=1, name="b", domain=("0", "1"))
    bn = network_from_cpts(
        "impossible",
        [a, b],
        [
            Cpt(owner=0, parents=(), rows={(): (0.5, 0.5)}),
            Cpt(owner=1, parents=(0,), rows={(0,): (1.0, 0.0), (1,): (1.0, 0.0)}),
        ],
    )
    path = tmp_path / "impossible.bif"
    path.write_text(write_bif(bn), encoding="utf-8")
    code, _, err = run(["infer", str(path), "--ev", "b=1"], capsys)
    assert code == 3
    assert "ill-conditioned" in err


def test_infer_symbolic_engine_above_the_state_cap(tmp_path, capsys):
    from conftest import chain_bn, chain_forward

    bn = chain_bn(40)
    path = tmp_path / "chain40.bif"
    path.write_text(write_bif(bn), encoding="utf-8")
    query = [str(path), "--ev", "v39=1", "--hyp", "v0=0"]
    expected = chain_forward(bn, (0,)) / chain_forward(bn, (0, 1))
    # The tree of 2^41 - 1 states is refused; the query chain has at most 160.
    for code, out, _ in (
        run(["infer", *query, "--engine", "symbolic"], capsys),
        # In a capped child, so a regression that builds the tree fails fast.
        run_child(["infer", *query, "--engine", "explicit"]),
    ):
        assert code == 0
        assert abs(float(out) - expected) <= 1e-12
    code, _, err = run(["translate", str(path), "--format", "dot"], capsys)
    assert code == 4
    assert str(2**41 - 1) in err


def test_infer_pruned_answers_match_the_unpruned_oracle(tmp_path, capsys):
    # Every engine of `--engine all`, and the explicit engine alone, against
    # the oracle on the whole network: values, and which queries exit 3.
    from conftest import permuted_ids

    rng = random.Random(2024)
    pruned = refused = 0
    for zero_entry_prob in (0.0, 0.1, 0.3):
        for i in range(40):
            bn = random_network(rng, max_vars=7, max_domain=3, zero_entry_prob=zero_entry_prob)
            # Names survive the permutation, so one query text serves both
            # copies; shuffled ids change the order in which roots are moved.
            paths = []
            for copy, net in enumerate((bn, permuted_ids(bn, rng))):
                path = tmp_path / f"net{zero_entry_prob}-{i}-{copy}.bif"
                path.write_text(write_bif(net), encoding="utf-8")
                paths.append(str(path))
            for _ in range(3):
                q = random_query(rng, bn)
                pruned += len(ancestral_query(bn, q)[0].variables) < len(bn.variables)
                bindings = []
                for flag, binding in (("--ev", q.evidence), ("--hyp", q.hypothesis)):
                    for var_id, value in binding.items():
                        v = bn.variables[var_id]
                        bindings += [flag, f"{v.name}={v.domain[value]}"]
                try:
                    expected = oracle_infer(bn, q)
                except IllConditionedQueryError:
                    expected = None
                    refused += 1
                for path in paths:
                    for engine in ("all", "explicit"):
                        code, out, _ = run(["infer", path, "--engine", engine, *bindings], capsys)
                        if expected is None:
                            assert code == 3, (path, q, engine)
                            continue
                        assert code == 0, (path, q, engine)
                        if engine == "all":
                            printed = dict(line.split(": ") for line in out.splitlines())
                            values = [printed[e] for e in ("explicit", "symbolic", "oracle")]
                        else:
                            values = [out]
                        for value in values:
                            assert abs(float(value) - expected) <= 1e-12, (path, q, engine)
    assert pruned > 0 and refused > 0


@pytest.mark.parametrize("n, engine", [(40, "explicit"), (70, "symbolic"), (70, "oracle")])
def test_infer_on_a_long_chain_head_ignores_the_tail(tmp_path, capsys, n, engine):
    # Unpruned, the tree of chain_bn(40) exceeds the default state cap and
    # chain_bn(70) the enumeration cap; v0..v3 fit both.
    from conftest import chain_bn, chain_forward

    path = tmp_path / "chain.bif"
    path.write_text(write_bif(chain_bn(n)), encoding="utf-8")
    code, out, err = run(
        ["infer", str(path), "--ev", "v3=1", "--hyp", "v0=0", "--engine", engine], capsys
    )
    assert code == 0, err
    head = chain_bn(4)  # the same seeded CPTs as the first four variables
    expected = chain_forward(head, (0,)) / chain_forward(head, (0, 1))
    assert abs(float(out) - expected) <= 1e-12


def test_infer_symbolic_on_an_1100_bit_chain(tmp_path, capsys):
    from conftest import chain_bn, chain_forward

    bn = chain_bn(1100)
    path = tmp_path / "chain.bif"
    path.write_text(write_bif(bn), encoding="utf-8")
    code, out, err = run(
        ["infer", str(path), "--ev", "v1099=1", "--hyp", "v0=0", "--engine", "symbolic"],
        capsys,
    )
    assert code == 0, err
    expected = chain_forward(bn, (0,)) / chain_forward(bn, (0, 1))
    assert abs(float(out) - expected) <= 1e-12


@pytest.mark.parametrize("network", ["chain", "and_chain", "copy_chain"])
def test_infer_explicit_answers_where_the_tree_is_refused(tmp_path, network):
    # Each tree has more than 2^64 states; each query chain at most 8 a layer.
    from conftest import and_chain_bn, chain_bn, chain_forward, copy_chain_bn

    if network == "chain":
        bn = chain_bn(1100)
        query = ["--ev", "v1099=1", "--hyp", "v0=0"]
        expected = chain_forward(bn, (0,)) / chain_forward(bn, (0, 1))
    elif network == "and_chain":
        bn = and_chain_bn(1000)
        query = ["--hyp", "y999=1"]
        expected = 0.9**1000
    else:
        bn = copy_chain_bn(15000)
        query = ["--ev", "v14999=1"]
        expected = 1.0
    path = tmp_path / "net.bif"
    path.write_text(write_bif(bn), encoding="utf-8")
    code, out, err = run_child(["infer", str(path), *query, "--engine", "explicit"])
    assert code == 0, err
    assert abs(float(out) - expected) <= 1e-12 * expected


def test_infer_scalable_engines_answer_a_1000_gate_and_chain(tmp_path):
    # Both engines place each root just before its gate, so each layer or
    # message holds at most two values.
    from conftest import and_chain_bn

    path = tmp_path / "and.bif"
    path.write_text(write_bif(and_chain_bn(1000)), encoding="utf-8")
    for engine in ("explicit", "symbolic"):
        code, out, err = run_child(["infer", str(path), "--hyp", "y999=1", "--engine", engine])
        assert code == 0, (engine, err)
        assert abs(float(out) - 0.9**1000) <= 1e-12 * 0.9**1000, engine


def test_infer_explicit_refuses_a_wide_two_layer_network(tmp_path, capsys):
    # Children share random roots, so the frontier of the query chain holds
    # up to 22 roots: a bound of about 7.5e7 states, above the default cap.
    # The bound is structural, so the refusal comes before any state is built.
    from conftest import two_layer_bn

    bn = two_layer_bn(1)
    path = tmp_path / "two_layer.bif"
    path.write_text(write_bif(bn), encoding="utf-8")
    evidence = ",".join(f"c{j}=1" for j in range(32))
    start = time.perf_counter()
    code, out, err = run(["infer", str(path), "--ev", evidence, "--engine", "explicit"], capsys)
    assert time.perf_counter() - start < 5
    assert (code, out) == (4, "")
    assert err.startswith("error: chain would have up to ") and err.count("\n") == 1
    bound = int(err.split()[6])
    assert 10**7 < bound < 10**8


def test_infer_explicit_cap_is_the_query_chain_bound(bif_path, capsys):
    # `infer --hyp Mood=0` keeps Dif, Prep, Grade and Mood; its frontiers
    # hold 1, 2, 1 and 0 values, so the bound is 2 * (2 + 4 + 2 + 1) + 2.
    query = ["infer", bif_path, "--hyp", "Mood=0", "--engine", "explicit"]
    assert run([*query, "--state-cap", "20"], capsys)[0] == 0
    code, _, err = run([*query, "--state-cap", "19"], capsys)
    assert code == 4
    assert err.startswith("error: chain would have up to 20 states, above the cap of 19")


def test_cap_refusal_gives_the_same_true_advice_for_every_command(bif_path, capsys):
    # `translate` has no other engine to turn to, so the shared message only
    # says to raise the cap, which both commands accept.
    code, out, err = run(["translate", bif_path, "--format", "dot", "--state-cap", "5"], capsys)
    assert (code, out) == (4, "")
    assert err == "error: chain would have up to 31 states, above the cap of 5; raise the cap\n"
    query = ["infer", bif_path, "--hyp", "Mood=0", "--engine", "explicit", "--state-cap", "19"]
    code, out, err = run(query, capsys)
    assert (code, out) == (4, "")
    assert err == "error: chain would have up to 20 states, above the cap of 19; raise the cap\n"


def test_translate_dot_reports_states(bif_path, tmp_path, capsys):
    out_path = tmp_path / "mc.dot"
    code, out, _ = run(
        ["translate", bif_path, "--format", "dot", "-o", str(out_path)], capsys
    )
    assert code == 0
    assert "states: 31 (bound 31)" in out
    assert out_path.read_text(encoding="utf-8").startswith("digraph")


def test_translate_jani_to_stdout(bif_path, capsys):
    code, out, err = run(["translate", bif_path, "--format", "jani"], capsys)
    assert code == 0
    model = json.loads(out)
    assert model["type"] == "dtmc"
    assert "states: 31" in err


def test_translate_jani_of_an_empty_network(tmp_path, capsys):
    # No variable to compare: the one state's guard is the empty conjunction.
    path = tmp_path / "empty.bif"
    path.write_text("network empty { }\n", encoding="utf-8")
    code, out, _ = run(["translate", str(path), "--format", "jani"], capsys)
    assert code == 0
    [edge] = json.loads(out)["automata"][0]["edges"]
    assert edge["guard"] == {"exp": True}


def test_translate_refuses_above_cap(tmp_path, capsys):
    bn = random_network(random.Random(0), n_vars=30, min_domain=2, max_domain=2, name="huge")
    path = tmp_path / "huge.bif"
    path.write_text(write_bif(bn), encoding="utf-8")
    code, _, err = run(["translate", str(path), "--format", "dot"], capsys)
    assert code == 4
    assert str(2**31 - 1) in err


def _over_cap_chain_text() -> str:
    """BIF of a 30-variable binary chain: up to 2^31 - 1 chain states."""
    from conftest import chain_bn

    return write_bif(chain_bn(30))


def test_translate_refuses_by_cap_before_converting_tables(tmp_path, capsys):
    text = _over_cap_chain_text()
    row = re.search(r"\n  \(0\) ([^;]*);", text)
    text = text.replace(row.group(0), f"\n  (0) {row.group(1)}, 0.0;", 1)
    path = tmp_path / "bad_row.bif"
    path.write_text(text, encoding="utf-8")
    code, _, err = run(["stats", str(path)], capsys)
    assert code == 2 and "row has 3 entries" in err
    code, _, err = run(["translate", str(path), "--format", "dot"], capsys)
    assert code == 4
    assert str(2**31 - 1) in err


def test_chain_bound_above_2_to_the_64_is_refused_by_the_cap(tmp_path, capsys):
    from conftest import copy_chain_bn

    path = tmp_path / "copy.bif"
    path.write_text(write_bif(copy_chain_bn(15000)), encoding="utf-8")
    code, _, err = run(["translate", str(path), "--format", "dot"], capsys)
    assert code == 4
    assert err.startswith("error: ") and "more than 2^64" in err
    assert err.count("\n") == 1 and len(err) < 200


def test_translate_reports_a_cycle_not_the_cap(tmp_path, capsys):
    text = _over_cap_chain_text()
    head = re.search(r"probability \( v0 \) \{\n  table ([^;]*);", text)
    text = text.replace(
        head.group(0),
        f"probability ( v0 | v29 ) {{\n  (0) {head.group(1)};\n  (1) {head.group(1)};",
    )
    path = tmp_path / "cycle.bif"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(BifParseError) as exc:
        parse_bif(text)
    assert "cycle" in str(exc.value)
    code, _, err = run(["translate", str(path), "--format", "dot"], capsys)
    assert code == 2
    assert err == f"error: {exc.value}\n"


def test_translate_cap_from_config(tmp_path, bif_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"state_cap": 5}), encoding="utf-8")
    code, _, err = run(
        ["--config", str(config), "translate", bif_path, "--format", "dot"], capsys
    )
    assert code == 4
    assert "cap" in err


def test_infer_oracle_engine(bif_path, capsys):
    args = ["infer", bif_path, "--ev", "Prep=1", "--hyp", "Grade=0", "--engine", "oracle"]
    code, out, _ = run(args, capsys)
    assert code == 0
    assert 0.0 <= float(out.strip()) <= 1.0


def test_infer_enum_cap_from_config(tmp_path, bif_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"enum_cap": 2}), encoding="utf-8")
    # Mood's ancestors are all four variables: 16 assignments > 2.
    code, _, err = run(
        ["--config", str(config), "infer", bif_path, "--hyp", "Mood=0",
         "--engine", "oracle"],
        capsys,
    )
    assert code == 4
    assert "cap" in err


CHILD_FIRST_BIF = """network wet {
}
variable wet {
  type discrete [ 3 ] { dry, damp, soaked };
}
variable sprinkler {
  type discrete [ 2 ] { off, on };
}
variable rain {
  type discrete [ 2 ] { no, yes };
}
probability ( wet | sprinkler, rain ) {
  (off, no) 0.9, 0.075, 0.025;
  (off, yes) 0.2, 0.5, 0.3;
  (on, no) 0.1, 0.6, 0.3;
  (on, yes) 0.01, 0.29, 0.7;
}
probability ( sprinkler | rain ) {
  (no) 0.6, 0.4;
  (yes) 0.99, 0.01;
}
probability ( rain ) {
  table 0.8, 0.2;
}
"""


def test_infer_all_engines_on_children_declared_before_parents(tmp_path, capsys):
    from conftest import enumerate_mass

    path = tmp_path / "wet.bif"
    path.write_text(CHILD_FIRST_BIF, encoding="utf-8")
    bn = parse_bif(CHILD_FIRST_BIF)
    # Ids follow declaration order, so every parent has a higher id than its child.
    assert [(c.owner, c.parents) for c in bn.cpts] == [(0, (1, 2)), (1, (2,)), (2, ())]
    for ev, hyp, evidence, hypothesis in (
        ("wet=damp", "rain=yes", {0: 1}, {2: 1}),
        ("sprinkler=on", "wet=soaked", {1: 1}, {0: 2}),
    ):
        args = ["infer", str(path), "--ev", ev, "--hyp", hyp, "--engine", "all"]
        code, out, err = run(args, capsys)
        assert code == 0, err
        printed = dict(line.split(": ") for line in out.splitlines())
        joint = enumerate_mass(bn, {**evidence, **hypothesis})
        expected = joint / enumerate_mass(bn, evidence)
        for engine in ("explicit", "symbolic", "oracle"):
            assert abs(float(printed[engine]) - expected) <= 1e-12
        assert float(printed["max deviation"]) <= 1e-12


@pytest.mark.parametrize("engine", ["oracle", "symbolic"])
def test_infer_oracle_on_a_3000_variable_copy_chain(tmp_path, capsys, engine):
    # v0 -> v1 -> ... -> v2999, each v_i a copy of v_{i-1}; 2998 evidence
    # variables leave two free, so both masses nest at most two generators,
    # and the diagrams span 3000 bits.
    from conftest import copy_chain_bn

    path = tmp_path / "copy.bif"
    path.write_text(write_bif(copy_chain_bn(3000)), encoding="utf-8")
    args = ["infer", str(path), "--hyp", "v2999=1", "--engine", engine]
    for i in range(1, 2999):
        args += ["--ev", f"v{i}=1"]
    code, out, err = run(args, capsys)
    assert code == 0, err
    assert float(out) == 1.0


def test_infer_oracle_on_a_3000_variable_copy_chain_in_one_flag(tmp_path, capsys):
    from conftest import copy_chain_bn

    path = tmp_path / "copy.bif"
    path.write_text(write_bif(copy_chain_bn(3000)), encoding="utf-8")
    evidence = ",".join(f"v{i}=1" for i in range(1, 2999))
    args = ["infer", "--ev", evidence, "--hyp", "v2999=1", "--engine", "oracle", str(path)]
    code, out, err = run(args, capsys)
    assert code == 0, err
    assert float(out) == 1.0


def test_megabyte_table_row_without_semicolon_exits_2(tmp_path, capsys):
    # Comment-free, so split at punctuation; the row runs to the closing
    # brace and is read one token at a time up to it.
    row = "0.5, " * 200_000 + "0.5 }"
    path = tmp_path / "long-row.bif"
    path.write_text(
        "network t { }\nvariable x { type discrete [ 2 ] { no, yes }; }\n"
        f"probability ( x ) {{ table {row}\n",
        encoding="utf-8",
    )
    start = time.perf_counter()
    code, _, err = run(["stats", str(path)], capsys)
    assert code == 2
    assert err == "error: line 3, col 1000031: expected a number, got '}'\n"
    assert time.perf_counter() - start < 20


def test_infer_oracle_refuses_beyond_2_to_the_64_whatever_the_cap(tmp_path, capsys):
    from conftest import chain_bn

    path = tmp_path / "chain.bif"
    path.write_text(write_bif(chain_bn(1200)), encoding="utf-8")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"enum_cap": 10**400}), encoding="utf-8")
    code, _, err = run(
        ["--config", str(config), "infer", str(path), "--hyp", "v1199=1",
         "--engine", "oracle"],
        capsys,
    )
    assert code == 4
    assert "2^64" in err and "Traceback" not in err


def test_block_missing_most_of_2_to_the_40_rows_exits_2(tmp_path, capsys):
    from conftest import one_row_block_bif

    path = tmp_path / "wide.bif"
    path.write_text(one_row_block_bif(40), encoding="utf-8")
    for args in (["stats", str(path)], ["infer", str(path), "--engine", "oracle"]):
        code, _, err = run(args, capsys)
        assert code == 2
        assert "missing row" in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "exhausted, resource", [(MemoryError, "memory"), (RecursionError, "recursion depth")]
)
def test_infer_out_of_memory_exits_4(bif_path, capsys, monkeypatch, exhausted, resource):
    from bnmc import symbolic

    def exhaust(*args, **kwargs):
        raise exhausted

    monkeypatch.setattr(symbolic, "infer", exhaust)
    code, out, err = run(["infer", bif_path, "--hyp", "Dif=0", "--engine", "symbolic"], capsys)
    assert code == 4 and out == ""
    assert err.startswith("error: ") and resource in err and err.count("\n") == 1


def test_deep_elimination_exits_4_at_the_recursion_limit(tmp_path, capsys):
    # Each root feeds two AND chains, so elimination carries every root into
    # one message, whose diagram is deeper than a lowered limit allows the
    # recursive kernel.
    from conftest import two_and_chains_bn

    path = tmp_path / "and.bif"
    path.write_text(write_bif(two_and_chains_bn(150)), encoding="utf-8")
    args = ["infer", str(path), "--hyp", "a149=1,b149=1", "--engine", "symbolic"]
    code, out, err = run(args, capsys)
    assert code == 0, err
    assert abs(float(out) - 0.9**150) <= 1e-12 * 0.9**150
    script = (
        "import sys; from bnmc.cli import main; sys.setrecursionlimit(150); "
        f"sys.exit(main({args!r}))"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )
    assert done.returncode == 4 and done.stdout == ""
    assert done.stderr == "error: the process ran out of recursion depth\n"


def test_infer_empty_query_is_one_on_every_engine(tmp_path, bif_path, capsys):
    # An empty query binds no variable, so no variable is an ancestor of it.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"enum_cap": 2}), encoding="utf-8")
    code, out, _ = run(["--config", str(config), "infer", bif_path, "--engine", "all"], capsys)
    assert code == 0
    assert out.splitlines()[:3] == ["explicit: 1.0", "symbolic: 1.0", "oracle: 1.0"]


@pytest.mark.parametrize(
    "text",
    [
        "[1]",
        '{"state_cap": null}',
        '{"enum_cap": "5"}',
        '{"enum_cap": 2.0}',
        '{"statecap": 2}',
        '{"enum_cap": -3}',
    ],
)
def test_infer_rejects_malformed_config(tmp_path, bif_path, psdd_paths, capsys, text):
    # Every command reads and checks the config, whether or not it uses a cap.
    config = tmp_path / "config.json"
    config.write_text(text, encoding="utf-8")
    forms = [
        ["stats", bif_path],
        ["translate", bif_path, "--format", "dot"],
        ["bench", bif_path],
        ["psdd-eval", *psdd_paths],
        *(["infer", bif_path, "--engine", e] for e in ("explicit", "symbolic", "oracle", "all")),
    ]
    for form in forms:
        code, out, err = run(["--config", str(config), *form], capsys)
        assert (code, out) == (2, ""), form
        assert err.startswith("error: config ") and err.count("\n") == 1, form
    if "statecap" in text:
        assert f"config file {config} has unknown keys ['statecap']" in err


def test_state_cap_flag_beats_config(tmp_path, bif_path, capsys):
    # The student network's tree has 31 states, and the query chain of
    # `infer --hyp Mood=0` is bounded by 20: both lie between the two caps.
    for config_cap, flag_cap, expected in ((5, 31, 0), (31, 5, 4)):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"state_cap": config_cap}), encoding="utf-8")
        for form in (
            ["translate", bif_path, "--format", "dot"],
            ["infer", bif_path, "--hyp", "Mood=0", "--engine", "explicit"],
        ):
            args = ["--config", str(config), *form, "--state-cap", str(flag_cap)]
            assert run(args, capsys)[0] == expected, (config_cap, flag_cap, form)


def test_negative_state_cap_flag_exits_2(bif_path, capsys):
    # The student network's tree has 31 states, and the query chain of
    # `infer --hyp Mood=0` is bounded by 20, so a cap of 0 refuses both.
    for form in (
        ["translate", bif_path, "--format", "dot"],
        ["infer", bif_path, "--hyp", "Mood=0", "--engine", "explicit"],
    ):
        code, out, err = run([*form, "--state-cap", "-1"], capsys)
        assert (code, out) == (2, ""), form
        assert err == "error: --state-cap must be a nonnegative integer, got -1\n", form
        assert run([*form, "--state-cap", "0"], capsys)[0] == 4, form


@pytest.mark.parametrize(
    "text",
    [
        "[" * 200_000 + "]" * 200_000,
        '{"state_cap": 5, "x": ' + "[" * 200_000 + "]" * 200_000 + "}",
    ],
    ids=["top-level", "inside-object"],
)
def test_infer_rejects_deeply_nested_config(tmp_path, bif_path, capsys, text):
    config = tmp_path / "nested.json"
    config.write_text(text, encoding="utf-8")
    code, _, err = run(["--config", str(config), "infer", bif_path, "--hyp", "Mood=0"], capsys)
    assert code == 2
    assert err.splitlines() == [f"error: config file {config} is nested too deeply"]


def test_main_keeps_no_arguments_between_calls(tmp_path, bif_path, capsys):
    bn = load_student_mood()
    marginal = oracle_infer(bn, ReachQuery(evidence={}, hypothesis={bn.by_name("Mood").id: 0}))
    code, conditional, _ = run(["infer", bif_path, "--ev", "Prep=1", "--hyp", "Mood=0"], capsys)
    assert code == 0
    code, out, _ = run(["infer", bif_path, "--hyp", "Mood=0"], capsys)
    assert code == 0
    assert float(out) == pytest.approx(marginal, abs=1e-12)
    assert float(conditional) != pytest.approx(marginal, abs=1e-6)
    # A config given to one call is not read by the next.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"enum_cap": 2}), encoding="utf-8")
    oracle_args = ["infer", bif_path, "--hyp", "Mood=0", "--engine", "oracle"]
    assert run(["--config", str(config), *oracle_args], capsys)[0] == 4
    assert run(oracle_args, capsys)[0] == 0


def test_translate_keep_zero_edges_flag(tmp_path, capsys):
    a = Variable(id=0, name="a", domain=("0", "1"))
    bn = network_from_cpts(
        "zeroed", [a], [Cpt(owner=0, parents=(), rows={(): (0.0, 1.0)})]
    )
    path = tmp_path / "zeroed.bif"
    path.write_text(write_bif(bn), encoding="utf-8")
    code, _, err = run(["translate", str(path), "--format", "dot"], capsys)
    assert code == 0 and "states: 2 (bound 3)" in err
    code, _, err = run(
        ["translate", str(path), "--format", "dot", "--keep-zero-edges"], capsys
    )
    assert code == 0 and "states: 3 (bound 3)" in err


def test_bench_row_count_and_determinism(bif_path, capsys):
    args = ["bench", bif_path, "--strategy", "first", "--counts", "1,2,3", "--seed", "5", "--csv", "-"]
    code, first_out, _ = run(args, capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO(first_out)))
    assert rows[0] == list(
        ("network", "strategy", "evidence_count", "seed", "query_time_ns", "result", "ill_conditioned")
    )
    assert len(rows) == 4
    assert [r[2] for r in rows[1:]] == ["1", "2", "3"]
    code, second_out, _ = run(args, capsys)
    assert code == 0
    strip = lambda text: [r[:4] + r[5:] for r in csv.reader(io.StringIO(text))]
    assert strip(first_out) == strip(second_out)  # identical minus wall time


def test_bench_human_output_without_csv(bif_path, capsys):
    code, out, _ = run(["bench", bif_path, "--strategy", "last", "--counts", "1"], capsys)
    assert code == 0
    assert "strategy=last" in out
    assert "," not in out.splitlines()[0]


def test_bench_csv_to_a_file(bif_path, tmp_path, capsys):
    out_path = tmp_path / "bench.csv"
    args = ["bench", bif_path, "--counts", "1", "--seed", "5", "--csv", str(out_path)]
    code, out, _ = run(args, capsys)
    assert (code, out) == (0, "")
    rows = list(csv.reader(io.StringIO(out_path.read_text("utf-8"))))
    assert rows[0] == [
        "network", "strategy", "evidence_count", "seed", "query_time_ns", "result",
        "ill_conditioned",
    ]
    assert len(rows) == 2
    assert rows[1][:4] + rows[1][5:] == [
        "student_mood", "first", "1", "5", "0.39749999999999996", "false"
    ]


def test_bench_times_each_row_on_a_fresh_model(bif_path, capsys, monkeypatch):
    """Each row, and the untimed warm-up row before them, gets a model of
    its own on which nothing has run."""
    from bnmc import symbolic

    original, models, calls = symbolic.bench_evidence, [], []

    def recorded(sym, *args):
        models.append((sym, dict(sym.masses), sym.manager.live_nodes))
        calls.append(args)
        return original(sym, *args)

    monkeypatch.setattr(symbolic, "bench_evidence", recorded)
    args = ["bench", bif_path, "--strategy", "last", "--counts", "2,1,1", "--seed", "42"]
    code, out, _ = run(args, capsys)
    assert code == 0 and len(out.splitlines()) == 3
    assert calls == [("last", 2, 42), ("last", 2, 42), ("last", 1, 42), ("last", 1, 42)]
    assert len({id(sym) for sym, _, _ in models}) == 4
    assert all(masses == {} for _, masses, _ in models)
    assert len({live for _, _, live in models}) == 1


def test_bench_zero_probability_evidence_is_an_ill_conditioned_row(tmp_path, capsys):
    from conftest import copy_chain_bn

    # Seed 4 binds v0 and v1 of the copy chain to different values.
    path = tmp_path / "copy.bif"
    path.write_text(write_bif(copy_chain_bn(4)), encoding="utf-8")
    args = ["bench", str(path), "--strategy", "first", "--counts", "2", "--seed", "4", "--csv", "-"]
    code, out, _ = run(args, capsys)
    rows = list(csv.reader(io.StringIO(out)))
    assert code == 0 and len(rows) == 2
    assert rows[1][:4] + rows[1][5:] == ["copy", "first", "2", "4", "", "true"]


def _partition_failure(tmp_path):
    vtree = tmp_path / "pair.vtree"
    vtree.write_text("L 0 x\nL 2 y\nI 1 0 2\n", encoding="utf-8")
    bad = tmp_path / "bad.psdd"
    bad.write_text("L 0 0 x\nT 2 2 0.5\nD 3 1 1 0 2 1.0\n", encoding="utf-8")
    return ["psdd-eval", str(vtree), str(bad)]


def _repeated_parent(tmp_path, command):
    path = tmp_path / "repeated.bif"
    path.write_text(
        "network t { }\n"
        "variable x { type discrete [ 2 ] { no, yes }; }\n"
        "variable y { type discrete [ 2 ] { no, yes }; }\n"
        "probability ( x ) { table 0.5, 0.5; }\n"
        "probability ( y | x, x ) { (no, no) 0.5, 0.5; (no, yes) 0.5, 0.5; }\n",
        encoding="utf-8",
    )
    return [*command, str(path)]


@pytest.mark.parametrize(
    "make_args, message",
    [
        (
            lambda bif, psdd, tmp: ["infer", bif, "--ev", "Dif=maybe"],
            "value 'maybe' not in the domain of Dif ['0', '1']",
        ),
        (
            lambda bif, psdd, tmp: ["bench", bif, "--counts", "-1"],
            "counts must be nonnegative",
        ),
        (
            lambda bif, psdd, tmp: ["bench", bif, "--counts", "x"],
            "counts must be whole numbers, got 'x'",
        ),
        (
            lambda bif, psdd, tmp: ["bench", bif, "--counts", ","],
            "counts must name at least one count, got ','",
        ),
        (
            lambda bif, psdd, tmp: ["bench", bif, "--counts", ""],
            "counts must name at least one count, got ''",
        ),
        (
            lambda bif, psdd, tmp: ["infer", bif, "--ev", "Mood=1", "--hyp", "Mood=0"],
            "variable Mood bound to 0 in the hypothesis and 1 in the evidence",
        ),
        (
            lambda bif, psdd, tmp: _partition_failure(tmp),
            "partition property fails at decision nodes [3]",
        ),
        (
            lambda bif, psdd, tmp: ["psdd-eval", *psdd, "--hyp", "Q=1"],
            "unknown PSDD variable 'Q'",
        ),
        (
            lambda bif, psdd, tmp: ["psdd-eval", *psdd, "--hyp", "Dif=maybe"],
            "PSDD values must be boolean, got 'maybe'",
        ),
        (
            lambda bif, psdd, tmp: _repeated_parent(tmp, ["stats"]),
            "probability block y: parent x listed twice",
        ),
        (
            lambda bif, psdd, tmp: _repeated_parent(tmp, ["translate", "--format", "dot"]),
            "probability block y: parent x listed twice",
        ),
    ],
    ids=["value-not-in-domain", "negative-count", "non-integer-count", "comma-only-counts",
         "empty-counts", "conflicting-binding",
         "partition-fails", "unknown-psdd-variable", "non-boolean-psdd-value",
         "repeated-parent-stats", "repeated-parent-translate"],
)
def test_input_refusals_exit_2_with_one_line(
    bif_path, psdd_paths, tmp_path, capsys, make_args, message
):
    code, out, err = run(make_args(bif_path, psdd_paths, tmp_path), capsys)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_psdd_eval_quoted_term(psdd_paths, capsys):
    vtree, diagram = psdd_paths
    args = [
        "psdd-eval", vtree, diagram,
        "--hyp", "Dif=0", "--hyp", "Prep=1", "--hyp", "Grade=0", "--hyp", "Mood=0",
    ]
    code, out, _ = run(args, capsys)
    assert code == 0
    assert float(out.strip()) == pytest.approx(0.081, abs=1e-12)


def test_psdd_eval_empty_term(psdd_paths, capsys):
    vtree, diagram = psdd_paths
    code, out, _ = run(["psdd-eval", vtree, diagram], capsys)
    assert code == 0
    assert float(out.strip()) == pytest.approx(1.0, abs=1e-12)


def test_psdd_eval_marginal_term(psdd_paths, capsys):
    vtree, diagram = psdd_paths
    code, out, _ = run(["psdd-eval", vtree, diagram, "--hyp", "Prep=1"], capsys)
    assert code == 0
    assert float(out.strip()) == pytest.approx(0.3, abs=1e-12)


def test_psdd_eval_conditional(psdd_paths, capsys):
    vtree, diagram = psdd_paths
    args = [
        "psdd-eval", vtree, diagram,
        "--ev", "Prep=1",
        "--hyp", "Dif=0", "--hyp", "Grade=0", "--hyp", "Mood=0",
    ]
    code, out, _ = run(args, capsys)
    assert code == 0
    assert float(out.strip()) == pytest.approx(0.27, abs=1e-9)


def test_psdd_eval_rejects_doubled_binding(psdd_paths, capsys):
    vtree, diagram = psdd_paths
    args = ["psdd-eval", vtree, diagram, "--ev", "Prep=1", "--ev", "Prep=0", "--hyp", "Dif=0"]
    code, out, err = run(args, capsys)
    assert code == 2
    assert out == ""
    assert "bound twice" in err


def test_psdd_eval_zero_probability_evidence(tmp_path, capsys):
    vtree = tmp_path / "one.vtree"
    vtree.write_text("L 0 x\n", encoding="utf-8")
    certain = tmp_path / "certain.psdd"
    certain.write_text("L 0 0 x\n", encoding="utf-8")  # P(x = 1) = 1
    args = ["psdd-eval", str(vtree), str(certain), "--ev", "x=0"]
    code, out, err = run(args, capsys)
    assert code == 3
    assert out == ""
    assert "ill-conditioned" in err


def _write_pair(tmp_path, vtree_lines, psdd_lines):
    vtree = tmp_path / "deep.vtree"
    diagram = tmp_path / "deep.psdd"
    vtree.write_text("\n".join(vtree_lines) + "\n", encoding="utf-8")
    diagram.write_text("\n".join(psdd_lines) + "\n", encoding="utf-8")
    return str(vtree), str(diagram)


def test_psdd_eval_deep_right_linear_vtree(tmp_path, capsys):
    n = 1500
    vtree = [f"L {k} x{k}" for k in range(n)]
    vtree += [f"I {n + k} {k} {n + k + 1 if k < n - 2 else n - 1}" for k in range(n - 1)]
    psdd = [f"T 0 {n - 1} 0.3"]
    for j, k in enumerate(range(n - 2, -1, -1)):
        sub, pos = 3 * j, 3 * j + 1  # sub: the terminal, then the previous decision
        psdd += [
            f"L {pos} {k} x{k}",
            f"L {pos + 1} {k} !x{k}",
            f"D {pos + 2} {n + k} 2 {pos} {sub} 0.4 {pos + 1} {sub} 0.6",
        ]
    paths = _write_pair(tmp_path, vtree, psdd)
    code, out, err = run(["psdd-eval", *paths, "--hyp", "x0=1", "--ev", "x1=0"], capsys)
    assert (code, err) == (0, "")
    assert float(out) == pytest.approx(0.4, abs=1e-12)


def test_psdd_eval_deep_left_linear_vtree_hits_enumeration_limit(tmp_path, capsys):
    n = 1500
    vtree = [f"L {k} x{k}" for k in range(n)]
    vtree += [f"I {n + k} {n + k - 1 if k else 0} {k + 1}" for k in range(n - 1)]
    psdd = ["T 0 0 0.3"]
    for k in range(n - 1):
        psdd += [f"T {2 * k + 1} {k + 1} 0.5", f"D {2 * k + 2} {n + k} 1 {2 * k} {2 * k + 1} 1.0"]
    paths = _write_pair(tmp_path, vtree, psdd)
    code, out, err = run(["psdd-eval", *paths, "--hyp", "x0=1"], capsys)
    assert code == 4
    assert out == ""
    assert "enumeration limit" in err


def test_psdd_eval_validation_failure(tmp_path, capsys):
    vtree = tmp_path / "pair.vtree"
    vtree.write_text("L 0 x\nL 2 y\nI 1 0 2\n", encoding="utf-8")
    bad = tmp_path / "bad.psdd"
    bad.write_text("L 0 0 x\nT 2 2 0.5\nD 3 1 1 0 2 1.0\n", encoding="utf-8")
    code, _, err = run(["psdd-eval", str(vtree), str(bad)], capsys)
    assert code == 2
    assert "partition" in err


FUZZ_TOKENS = (
    "", " ", "\n", "0", "1", "-1", "2", "7", "99", "0.5", "1.5", "-0.0", "1e-320",
    "nan", "inf", "1e309", "x", "!x", "Dif", "!Dif", "L", "I", "D", "T", "B", "c",
    "variable", "probability", "table", "{", "}", "(", ")", ";", ",", "|", "[", "]",
)


@st.composite
def mutated(draw, text):
    """`text` with up to four token edits: replace, delete, duplicate or swap."""
    pieces = re.split(r"(\s+|[{}();,|\[\]])", text)
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(pieces) - 1))
        kind = draw(st.sampled_from(("replace", "delete", "duplicate", "swap")))
        if kind == "replace":
            pieces[i] = draw(st.sampled_from(FUZZ_TOKENS))
        elif kind == "delete":
            pieces[i] = ""
        elif kind == "duplicate":
            pieces.insert(i, pieces[i])
        else:
            j = draw(st.integers(0, len(pieces) - 1))
            pieces[i], pieces[j] = pieces[j], pieces[i]
    return "".join(pieces)


BUNDLED_VTREE, BUNDLED_PSDD = student_mood_texts()
BUNDLED_BIF = write_bif(load_student_mood())
CONFIG_TEXT = json.dumps({"state_cap": 1000, "enum_cap": 1000})


@pytest.mark.parametrize(
    "kind, refusal",
    [
        ("bif", "line 1, col 1: expected 'network', got '\\ufeff//'"),
        ("vtree", "vtree line 1: cannot parse '\\ufeffc vtree for the student-mood fixture"),
        ("psdd", "psdd line 1: cannot parse '\\ufeffc PSDD for the student-mood fixture"),
        ("config", "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
    ],
)
def test_a_leading_byte_order_mark_is_ignored_in_every_input(tmp_path, capsys, kind, refusal):
    texts = {
        "bif": (resources.files("bnmc") / "data" / "student_mood.bif").read_text("utf-8"),
        "vtree": BUNDLED_VTREE,
        "psdd": BUNDLED_PSDD,
        "config": CONFIG_TEXT,
    }
    bif, vtree, psdd, config = (str(tmp_path / name) for name in texts)
    commands = [
        ["--config", config, "infer", bif, "--hyp", "Mood=0", "--engine", "all"],
        ["--config", config, "psdd-eval", vtree, psdd, "--hyp", "Mood=0"],
    ]

    def outcomes(prefix: str) -> list:
        for name, text in texts.items():
            path = tmp_path / name
            path.write_text((prefix if name == kind else "") + text, encoding="utf-8")
        return [run(args, capsys) for args in commands]

    plain = outcomes("")
    assert [code for code, _, _ in plain] == [0, 0]
    assert outcomes("\ufeff") == plain
    # Only one mark is ignored: each command that reads the file refuses a
    # second one with a one-line error that shows it.
    reads = [kind in ("bif", "config"), kind in ("vtree", "psdd", "config")]
    for (code, out, err), read, before in zip(outcomes("\ufeff" * 2), reads, plain):
        if read:
            assert (code, out, err.count("\n")) == (2, "", 1)
            assert err.startswith("error: " + refusal), err
        else:
            assert (code, out, err) == before


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    vtree_text=mutated(BUNDLED_VTREE),
    psdd_text=mutated(BUNDLED_PSDD),
    bif_text=mutated(BUNDLED_BIF),
    config_text=mutated(CONFIG_TEXT),
)
def test_mutated_inputs_end_with_an_exit_code(vtree_text, psdd_text, bif_text, config_text):
    query = ["--ev", "Prep=1", "--hyp", "Dif=0"]
    with tempfile.TemporaryDirectory() as tmp:
        vtree, diagram, network, config, out = (
            str(Path(tmp) / name) for name in ("v", "p", "b", "c", "out")
        )
        for path, text in (
            (vtree, vtree_text), (diagram, psdd_text), (network, bif_text), (config, config_text)
        ):
            Path(path).write_text(text, encoding="utf-8")
        for args in (
            ["psdd-eval", vtree, diagram, *query],
            ["infer", network, "--engine", "all", *query],
            ["--config", config, "infer", network, "--engine", "all", *query],
            ["stats", network],
            ["translate", network, "--format", "jani", "-o", out],
            ["translate", network, "--format", "dot", "-o", out],
            ["bench", network, "--counts", "1"],
        ):
            assert main(args) in (0, 2, 3, 4), args


def odd_network(rng):
    """0 to 6 variables of 1 to 3 values, up to 5 parents each, and rows that
    hold zeros or a single 1."""
    variables = [
        Variable(id=i, name=f"v{i}", domain=tuple(f"d{k}" for k in range(rng.randint(1, 3))))
        for i in range(rng.randint(0, 6))
    ]
    cpts = []
    for v in variables:
        parents = tuple(sorted(rng.sample(range(v.id), min(v.id, rng.randint(0, 5)))))
        keys = itertools.product(*(range(len(variables[p].domain)) for p in parents))
        rows = {key: odd_row(rng, len(v.domain)) for key in keys}
        cpts.append(Cpt(owner=v.id, parents=parents, rows=rows))
    return network_from_cpts("odd", variables, cpts)


def odd_row(rng, size):
    if rng.random() < 0.3:
        hot = rng.randrange(size)
        return tuple(float(k == hot) for k in range(size))
    weights = [rng.randrange(4) for _ in range(size)]
    weights[rng.randrange(size)] += 1
    return tuple(w / sum(weights) for w in weights)


def odd_network_exit_codes(tmp, count):
    """The exit codes of every command on `count` seeded odd networks, each
    as written and with one row of its text dropped; run in a child process
    by the test below."""
    rng = random.Random(29)
    codes = {}
    network, out = str(Path(tmp) / "odd.bif"), str(Path(tmp) / "out")
    for _ in range(count):
        bn = odd_network(rng)
        text = write_bif(bn)
        lines = text.splitlines(keepends=True)
        rows = [k for k, line in enumerate(lines) if line.lstrip().startswith(("(", "table"))]
        if rows:
            del lines[rng.choice(rows)]
        query = []
        for v in bn.variables:
            flag = rng.choice((None, None, "--ev", "--hyp"))
            if flag:
                query += [flag, f"{v.name}={rng.choice(v.domain)}"]
        for variant in (text, "".join(lines)):
            Path(network).write_text(variant, encoding="utf-8")
            calls = [["stats", network]]
            for form, keep in itertools.product(("jani", "dot"), ([], ["--keep-zero-edges"])):
                calls.append(["translate", network, "--format", form, *keep, "-o", out])
            for engine in ("all", "explicit"):
                calls.append(["infer", network, "--engine", engine, *query])
            for strategy in STRATEGIES:
                calls.append(["bench", network, "--counts", "0,1", "--strategy", strategy])
            for args in calls:
                with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                    code = main(args)
                codes[code] = codes.get(code, 0) + 1
    return codes


def test_odd_shaped_networks_end_with_an_exit_code_in_every_command(tmp_path):
    script = (
        "import json, sys, test_cli; "
        "print(json.dumps(test_cli.odd_network_exit_codes(sys.argv[1], 150)))"
    )
    code, out, err = run_python(["-c", script, str(tmp_path)], timeout=60)
    assert code == 0, err
    assert "Traceback" not in err
    codes = {int(k): n for k, n in json.loads(out).items()}
    assert codes.keys() <= {0, 2, 3, 4}, codes
    assert codes.keys() >= {0, 2, 3}, codes
