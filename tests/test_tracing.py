import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


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
