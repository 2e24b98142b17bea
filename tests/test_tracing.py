import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "benchmarks" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_existing_names_and_restores_them():
    # install() raises AttributeError if a name the benchmark wraps is gone.
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        wrapped = list(tracer._installed)
        assert wrapped
        for owner, attr, original in wrapped:
            assert getattr(owner, attr) is not original
    finally:
        tracer.uninstall()
    for owner, attr, original in wrapped:
        assert getattr(owner, attr) is original


@pytest.mark.parametrize("workload", ["chain-deep", "cold-cli"])
def test_traced_benchmark_child_answers_every_request(workload):
    # One traced child of the benchmark: every answer is checked against the
    # oracle, and the per-layer metrics come from the spans of the wrapped
    # names. It writes only under the ignored .bench_work/.
    done = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", "1", "--child", "--requests", "25"],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        stdout=subprocess.PIPE, timeout=120, check=False,
    )
    assert done.returncode == 0
    summary = json.loads(done.stdout.decode().splitlines()[-1])
    assert summary["attempted"] == 25
    assert summary["failed"] == summary["wrong"] == 0
    assert "chain.build_ms" in summary["layers"]
