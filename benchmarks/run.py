"""Benchmark of bnmc's three query engines and its CLI on generated networks.

    python3 benchmarks/run.py --workload chain-deep --seed 1 --seconds 55 --trace 0

Run from the repository root. Every run starts a fresh child process that
limits its own address space, generates the workload's networks from the
seed, hands them to the package only as BIF text, and asks closed-loop
queries: each request is answered in process by the explicit, symbolic and
oracle engines and then by one `bnmc infer --engine all` call, and every
answer is checked against the oracle before the next request. Timings are
scaled to a reference machine speed measured by a fixed probe (`_probe`). With
`--trace 0` the run reports the end-to-end metrics. With `--trace 1` an
untraced child runs a third of `--seconds`, a traced child then repeats the
same requests, and the run reports the per-layer metrics from the traced
child's spans plus the ratio of the two children's timed work.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it are a
table. The full record, with the workload's parameters, the Python version
and `nproc`, goes to `.bench_work/results/` (or `--out`). The exit code is
0 only when every request was answered correctly. See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

STATE_CAP = 1_000_000  # explicit caps, far above any generated network
ENUM_CAP = 2_000_000
ADDRESS_SPACE = 1 << 30  # RLIMIT_AS of the child, so a blow-up is a MemoryError
TOLERANCE = 1e-9  # absolute, as acceptance criterion 6
MIN_REQUESTS = 100  # a p90 needs at least 10 samples beyond it
HARD_LIMIT_S = 120.0  # a child stops asking here even below MIN_REQUESTS
CHILD_TIMEOUT_S = 170.0  # for all children of one run together
# Timings are reported at the machine speed where _probe's median over a run
# takes this long (ms): typical of the 2-core machine the benchmark was sized
# on, so reported timings stay close to the ones measured there.
PROBE_REF_MS = 1.25
ENGINES = ("explicit", "symbolic", "oracle")


# -- child: one workload in one process ----------------------------------------


@dataclass
class Model:
    bn: object
    sym: object
    mc: object
    path: Path
    source: object = None  # the generated network the BIF text came from


class Outcome:
    """How one call ended: a value, ill-conditioned evidence, or an error."""

    def __init__(self, kind: str, value: float | None = None):
        self.kind, self.value = kind, value

    @property
    def answered(self) -> bool:
        return self.kind in ("value", "ill")

    def agrees(self, ref: "Outcome") -> bool:
        if self.kind == "value" and ref.kind == "value":
            return abs(self.value - ref.value) <= TOLERANCE
        return self.kind == ref.kind == "ill"


def _timed(fn, *args, **kwargs) -> tuple[Outcome, int]:
    from bnmc.errors import IllConditionedQueryError

    start = time.perf_counter_ns()
    try:
        outcome = Outcome("value", fn(*args, **kwargs))
    except IllConditionedQueryError:
        outcome = Outcome("ill")
    except Exception as exc:  # any other exception, MemoryError too, fails the request
        outcome = Outcome(type(exc).__name__)
    return outcome, time.perf_counter_ns() - start


def _probe() -> int:
    """Time, in ns, of a fixed pure-Python task that uses no bnmc code.

    The speed of a shared machine drifts by 20-40% over seconds to minutes
    with its neighbours' load. The probe runs before every request, so its
    median over a run measures the run's machine speed, and the parent
    scales the run's timings by it (see `_scale`). The probe's cost does not
    depend on bnmc, so a change to the package moves the scaled timings as
    much as the measured ones.
    """
    start = time.perf_counter_ns()
    table: dict[tuple[int, int], float] = {}
    for i in range(2000):
        key = (i % 97, i & 7)
        table[key] = table.get(key, 0.0) + i * 0.5
    sorted(table.items())
    return time.perf_counter_ns() - start


def _setup(text: str, path: Path) -> Model:
    from bnmc import bif, chain, symbolic

    bn = bif.parse_bif(text)
    return Model(bn, symbolic.compile_network(bn), chain.build_mc(bn, state_cap=STATE_CAP), path)


def _cli_args(model: Model, req, config: Path) -> list[str]:
    args = ["--config", str(config), "infer", str(model.path), "--engine", "all",
            "--state-cap", str(STATE_CAP)]
    for flag, binding in (("--ev", req.evidence), ("--hyp", req.hypothesis)):
        for var_id, value in binding.items():
            v = model.bn.variables[var_id]
            args += [flag, f"{v.name}={v.domain[value]}"]
    return args


def _cli_call(args: list[str]) -> tuple[dict[str, Outcome], int]:
    """One in-process `bnmc ...` call; per-engine outcomes parsed from stdout."""
    from bnmc import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter_ns()
        try:
            code = cli.main(args)
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code
        except Exception as exc:
            code = type(exc).__name__
        elapsed = time.perf_counter_ns() - start
    if code == cli.EXIT_ILL_CONDITIONED:
        return {e: Outcome("ill") for e in ENGINES}, elapsed
    if code != cli.EXIT_OK:
        kind = f"exit {code}" if isinstance(code, int) else str(code)
        return {e: Outcome(kind) for e in ENGINES}, elapsed
    printed = {k: v for k, _, v in (line.partition(": ") for line in out.getvalue().splitlines())}
    outcomes = {}
    for engine in ENGINES:
        try:
            outcomes[engine] = Outcome("value", float(printed[engine]))
        except (KeyError, ValueError):
            outcomes[engine] = Outcome("unreadable output")
    return outcomes, elapsed


def run_child(name: str, seed: int, seconds: float, max_requests: int | None, trace: bool) -> dict:
    """Run one workload in this process; returns the raw summary.

    Requests continue until `seconds` have passed, at least MIN_REQUESTS
    were made and a round of the workload is complete; or, when
    `max_requests` is given, until exactly that many were made.
    """
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))
    from bnmc import bif, oracle, reach, symbolic
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    parse_untraced = bif.parse_bif
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    spans = tracer.span if tracer else (lambda _name: contextlib.nullcontext())

    work = WORK / f"{name}-s{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    config = work / "caps.json"
    config.write_text(json.dumps({"enum_cap": ENUM_CAP}), encoding="utf-8")
    ns: dict[str, list[int]] = {k: [] for k in ("probe", "setup", *ENGINES, "cli")}
    engine_ns = cli_ns = 0
    attempted = failed = wrong = ill = 0
    errors: Counter[str] = Counter()
    model = text = path = None
    start = time.perf_counter()
    try:
        for i, req in enumerate(workload.requests(seed)):
            elapsed = time.perf_counter() - start
            if max_requests is not None:
                if i >= max_requests:
                    break
            elif elapsed >= HARD_LIMIT_S or (
                elapsed >= seconds and i >= MIN_REQUESTS and i % workload.round_size == 0
            ):
                break
            if tracer:
                tracer.request = i
            attempted += 1
            if i % workload.session_size == 0:
                if model is None or req.bn is not model.source:
                    text = bif.write_bif(req.bn)
                    if parse_untraced(text) != req.bn:
                        raise RuntimeError(f"{name}: parse_bif(write_bif(bn)) != bn")
                    path = work / f"{req.bn.name}.bif"
                    path.write_text(text, encoding="utf-8")
                for _ in range(workload.setup_repeats):
                    # symbolic._table_diagram's recursive closure keeps each
                    # manager in a reference cycle; collecting here, untimed,
                    # starts every set-up from the heap a fresh process has.
                    model = None
                    gc.collect()
                    with spans("bench.setup"):
                        built, t = _timed(_setup, text, path)
                    ns["setup"].append(t)
                    if built.kind != "value":
                        errors[f"setup {built.kind}"] += 1
                        break
                    model = built.value
                    model.source = req.bn
            if model is None:
                failed += 1
                continue
            gc.collect()  # the previous request's CLI models, as above
            ns["probe"].append(_probe())
            q = reach.ReachQuery(evidence=req.evidence, hypothesis=req.hypothesis)
            got = {}
            with spans("bench.query"):
                for engine, fn, args, kwargs in (
                    ("explicit", reach.conditional_query, (model.mc, q), {}),
                    ("symbolic", symbolic.infer, (model.sym, q), {}),
                    ("oracle", oracle.oracle_infer, (model.bn, q), {"enum_cap": ENUM_CAP}),
                ):
                    got[engine], t = _timed(fn, *args, **kwargs)
                    engine_ns += t
                    if got[engine].answered:
                        ns[engine].append(t)
            with spans("bench.cli"):
                printed, t = _cli_call(_cli_args(model, req, config))
            cli_ns += t
            ns["cli"].append(t)

            answers = {**got, **{f"cli {e}": o for e, o in printed.items()}}
            bad = [f"{k} {o.kind}" for k, o in answers.items() if not o.answered]
            if not bad:
                bad = [f"{k} wrong answer" for k, o in answers.items() if not o.agrees(got["oracle"])]
                wrong += bool(bad)
            errors.update(bad)
            failed += bool(bad)
            ill += not bad and got["oracle"].kind == "ill"
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)
    done = attempted - failed
    summary = {
        "attempted": attempted,
        "failed": failed,
        "wrong": wrong,
        "ill_conditioned": ill,
        "errors": errors,
        "timed_s": (sum(ns["setup"]) + engine_ns + cli_ns) / 1e9,
        "samples_ns": ns,
        "engine_queries_per_s": done / (engine_ns / 1e9) if engine_ns else 0.0,
        "cli_queries_per_s": done / (cli_ns / 1e9) if cli_ns else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        from tracing import layer_metrics

        trace_dir = WORK / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        tracer.write(trace_dir / f"{name}-s{seed}.json")
        summary["layers"] = layer_metrics(tracer.spans)
    return summary


# -- parent: children, metrics, report ------------------------------------------


def _child(args, deadline: float, seconds: float, max_requests: int | None = None,
           trace: bool = False) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(seconds), "--trace", str(int(trace)),
           "--child"]
    if max_requests is not None:
        cmd += ["--requests", str(max_requests)]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          timeout=max(deadline - time.monotonic(), 1.0), check=True)
    return json.loads(done.stdout.decode().splitlines()[-1])


def _p(samples_ns: list[int], q: int) -> float | None:
    """Percentile q (50 or 90) in ms."""
    if len(samples_ns) < 2:
        return None
    return statistics.quantiles(samples_ns, n=100)[q - 1] / 1e6


def _probe_ms(s: dict) -> float | None:
    probe = s["samples_ns"]["probe"]
    return statistics.median(probe) / 1e6 if probe else None


def _scale(s: dict) -> float:
    """Factor that brings a child's timings to the reference machine speed."""
    probe = _probe_ms(s)
    return PROBE_REF_MS / probe if probe else 1.0  # 1.0: no request ran


def end_to_end(workload, s: dict) -> dict[str, tuple[float, str, int]]:
    """Metric -> (value, unit, samples); see README.md for the definitions."""
    ns, scale = s["samples_ns"], _scale(s)
    qps = s["engine_queries_per_s"] if workload.session_size > 1 else s["cli_queries_per_s"]
    out = {
        "setup_s": (statistics.median(ns["setup"]) / 1e9 * scale, "s", len(ns["setup"])),
        "queries_per_s": (qps / scale, "1/s", s["attempted"]),
    }
    for series in (*ENGINES, "cli"):
        for q in (50, 90):
            value = _p(ns[series], q)
            out[f"{series}.p{q}_ms"] = (
                None if value is None else value * scale, "ms", len(ns[series]))
    out["peak_rss_mb"] = (s["peak_rss_mb"], "MB", 1)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="result file (default .bench_work/results/)")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--requests", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "bnmc" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'bnmc'}", file=sys.stderr)
        return 2
    if args.child:
        summary = run_child(args.workload, args.seed, args.seconds, args.requests,
                            bool(args.trace))
        print(json.dumps(summary))
        return 0

    sys.path[:0] = [str(SRC)]
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; use one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    try:
        if args.trace:
            plain = _child(args, deadline, args.seconds / 3)
            traced = _child(args, deadline, 0.0, plain["attempted"], trace=True)
            scale = _scale(traced)
            table = {k: (v * scale if u == "ms" else v, u, traced["attempted"])
                     for k, (v, u) in traced["layers"].items()}
            table["trace.overhead_ratio"] = (
                traced["timed_s"] * scale / (plain["timed_s"] * _scale(plain)), "ratio",
                traced["attempted"])
            runs = [plain, traced]
        else:
            runs = [_child(args, deadline, args.seconds)]
            table = end_to_end(workload, runs[0])
    except (subprocess.SubprocessError, OSError, ValueError, KeyError, IndexError) as exc:
        print(f"error: benchmark child failed: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    correct = all(r["wrong"] == 0 for r in runs)
    record = {
        "workload": workload.name,
        "why": workload.why,
        "params": workload.params,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "probe_ms": [_probe_ms(r) for r in runs],
        "caps": {"state_cap": STATE_CAP, "enum_cap": ENUM_CAP, "address_space": ADDRESS_SPACE},
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "errors": [r["errors"] for r in runs],
        "ill_conditioned": sum(r["ill_conditioned"] for r in runs),
        "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in table.items()},
        "failed_ratio": failed / max(attempted, 1),
    }
    out = args.out or WORK / "results" / f"{workload.name}-s{args.seed}-t{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    # failed_ratio is 0 on a working build and a reported metric must never
    # be 0, so the JSON line carries it as `failed` and `attempted` instead.
    shown = dict(table, failed_ratio=(failed / max(attempted, 1), "ratio", attempted))
    for key, (value, unit, n) in shown.items():
        value = "n/a" if value is None else f"{value:.6g}"
        print(f"{workload.name:13} {key:26} {value:>12} {unit:6} n={n}")
    for r in runs:
        for what, count in r["errors"].items():
            print(f"{workload.name:13} FAILED {what}: {count}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in table.items()},
    }))
    return 0 if failed == 0 and correct else 1


if __name__ == "__main__":
    sys.exit(main())
