import hashlib
import json
import random
import shutil
import subprocess

import pytest

from bnmc.chain import build_mc, size_bound
from bnmc.export import export_dot, export_jani
from bnmc.gen import random_network

from conftest import single_var_bn


def _dot_node_count(text: str) -> int:
    return sum(1 for line in text.splitlines() if "[label=" in line and "->" not in line)


def test_jani_fixture_schema(student_mood):
    mc = build_mc(student_mood)
    model = json.loads(export_jani(mc))
    assert model["jani-version"] == 1
    assert model["type"] == "dtmc"
    assert len(model["variables"]) == 4
    for var in model["variables"]:
        assert var["type"]["kind"] == "bounded"
        assert var["type"]["base"] == "int"
        assert var["type"]["lower-bound"] == 0
        assert var["type"]["upper-bound"] == 2  # binary domain + unset
        assert var["initial-value"] == 2
    assert len(model["automata"]) == 1
    assert model["automata"][0]["edges"]
    assert "unset" in model["comment"]


def test_jani_single_variable():
    mc = build_mc(single_var_bn(0.25))
    model = json.loads(export_jani(mc))
    assert len(model["variables"]) == 1
    branching = [
        e for e in model["automata"][0]["edges"] if len(e["destinations"]) > 1
    ]
    assert len(branching) == 1
    assert len(branching[0]["destinations"]) == 2
    probs = sorted(d["probability"]["exp"] for d in branching[0]["destinations"])
    assert probs == [0.25, 0.75]


def test_jani_edge_count_matches_states(student_mood):
    mc = build_mc(student_mood)
    model = json.loads(export_jani(mc))
    assert len(model["automata"][0]["edges"]) == len(mc.states)


def test_jani_deterministic(student_mood):
    a = export_jani(build_mc(student_mood))
    b = export_jani(build_mc(student_mood))
    assert a.encode("utf-8") == b.encode("utf-8")


@pytest.mark.skipif(shutil.which("storm") is None, reason="no external checker")
def test_jani_accepted_by_external_checker(tmp_path, student_mood):
    mc = build_mc(student_mood)
    path = tmp_path / "model.jani"
    path.write_text(export_jani(mc), encoding="utf-8")
    proc = subprocess.run(
        ["storm", "--jani", str(path)], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


def test_dot_dpg_has_fifteen_nodes(student_mood_dpg):
    mc = build_mc(student_mood_dpg, keep_zero_edges=True)
    text = export_dot(mc)
    assert _dot_node_count(text) == 15
    assert text.count("peripheries=2") == 8  # final states double-circled


def test_dot_single_variable():
    text = export_dot(build_mc(single_var_bn()))
    assert _dot_node_count(text) == 3


def test_dot_random_network_matches_bound():
    bn = random_network(random.Random(2), n_vars=3, max_domain=3)
    mc = build_mc(bn, keep_zero_edges=True)
    assert _dot_node_count(export_dot(mc)) == size_bound(bn)


def test_dot_edges_carry_probabilities(student_mood_dpg):
    mc = build_mc(student_mood_dpg)
    text = export_dot(mc)
    assert 's0 -> s1 [label="0.6"];' in text or 's0 -> s1 [label="0.4"];' in text


def test_exports_pinned_digest():
    # The seeded chains of test_chain.py's pinned digest, both keep_zero_edges
    # settings; pinned so that a change of the chain's layout leaves both
    # exports byte-identical.
    rng = random.Random(101)
    jani, dot = hashlib.sha256(), hashlib.sha256()
    for i in range(20):
        bn = random_network(rng, max_vars=6, max_domain=3, zero_entry_prob=0.3)
        mc = build_mc(bn, keep_zero_edges=bool(i % 2))
        jani.update(export_jani(mc).encode("utf-8"))
        dot.update(export_dot(mc).encode("utf-8"))
    assert jani.hexdigest() == (
        "4161d00d64278ed32f3f33a8a6f603b7cc2e0cfa4f4903a691ad358d61c466f3"
    )
    assert dot.hexdigest() == (
        "2dc33e1bd4e3664fdfa8a17b5142f5e376794df3ee9d135b10006bd43701119e"
    )
