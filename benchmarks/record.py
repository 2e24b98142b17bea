"""Run every workload over several seeds and record a BENCH_<label>.json file.

    python3 benchmarks/record.py --label baseline --seeds 10

Run from the repository root. Each workload runs once per seed with
`--trace 0`, and once with `--trace 1` on the first seed, through
`benchmarks/run.py` with the run length of BENCHMARK.json; `--workloads`
may add workloads that BENCHMARK.json does not gate. For every
end-to-end metric the record keeps the values, their median and
quartiles (`statistics.quantiles(values, n=4)`), and the spread: the
distance between the quartiles as a share of the median. The table printed
at the end marks a spread above a third of the metric's bound. The exit code
is non-zero when a run failed or a spread of a gated workload exceeds its
bound. With `--compare BENCH_<other>.json` it also prints, for every metric,
how much worse its median got than in that file (a share of the old median),
and the exit code is non-zero when a gated metric got worse by more than
its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work" / "record"


def _run(spec: dict, workload: str, seed: int, trace: int) -> dict:
    out = WORK / f"{workload}-s{seed}-t{trace}.json"
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace), "--out", str(out)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        print(done.stdout, end="")
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {done.returncode}")
    return json.loads(out.read_text())


def _commit() -> str | None:
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return done.stdout.strip() or None


def _summary(values: list[float], bound: float | None) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    out = {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
           "values": values}
    if bound is not None:
        out["bound"] = bound
    return out


def _compare(record: dict, old: dict, bounds: dict, better: dict, gated: list,
             worse: list) -> dict:
    """Change of each median against `old`, as a share of the old median and
    signed so that a positive change is worse; appends gated metrics that got
    worse by more than their bound to `worse`."""
    changes = {}
    for name, w in record["workloads"].items():
        if name not in old["workloads"]:
            continue
        changes[name] = {}
        for metric, m in w["metrics"].items():
            before = old["workloads"][name]["metrics"][metric]["median"]
            change = (m["median"] - before) / before
            if better.get(metric) == "higher":
                change = -change
            changes[name][metric] = change
            bound = bounds.get(metric)
            flag = ""
            if bound is not None and change > bound:
                flag = " above bound"
                if name in gated:
                    worse.append(f"{name} {metric}")
            print(f"{name:13} {metric:18} median {before:.6g} -> {m['median']:.6g}: "
                  f"{change:+.3f} worse, bound {bound}{flag}")
    return {"label": old["label"], "worse_by": changes}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workloads", nargs="*", help="default: all in BENCHMARK.json")
    parser.add_argument("--compare", type=Path,
                        help="an earlier BENCH_<label>.json: compare each median with it")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    gated = [w["name"] for w in spec["workloads"]]
    names = args.workloads or gated
    WORK.mkdir(parents=True, exist_ok=True)
    record = {
        "label": args.label,
        "commit": _commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "run_seconds": spec["run_seconds"],
        "seeds": list(range(1, args.seeds + 1)),
        "workloads": {},
    }
    too_wide = []
    for name in names:
        runs = [_run(spec, name, seed, 0) for seed in record["seeds"]]
        traced = _run(spec, name, 1, 1)
        metrics = {}
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            metrics[metric] = dict(unit=runs[0]["metrics"][metric]["unit"],
                                   **_summary(values, bounds.get(metric)))
            bound = bounds.get(metric)
            if name in gated and bound and metrics[metric]["spread"] > bound:
                too_wide.append(f"{name} {metric}")
        record["workloads"][name] = {
            "gated": name in gated,
            "params": runs[0]["params"],
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "ill_conditioned": sum(r["ill_conditioned"] for r in runs),
            "metrics": metrics,
            "per_layer_seed_1": {k: {"value": m["value"], "unit": m["unit"]}
                                 for k, m in traced["metrics"].items()},
        }
        w = record["workloads"][name]
        print(f"{name:13} {'failed_ratio':18} {w['failed'] / w['attempted']:12.6g} ratio "
              f"({w['failed']} of {w['attempted']} requests)")
        for metric, m in metrics.items():
            flag = " *" if m.get("bound") and m["spread"] > m["bound"] / 3 else ""
            print(f"{name:13} {metric:18} {m['median']:12.6g} {m['unit']:4} "
                  f"q1 {m['q1']:.6g} q3 {m['q3']:.6g} spread {m['spread']:.3f}"
                  f" bound {m.get('bound')}{flag}")
    worse = []
    if args.compare:
        record["compared_with"] = _compare(record, json.loads(args.compare.read_text()),
                                           bounds, better, gated, worse)
    out = HERE / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out.relative_to(ROOT)}")
    failed = sum(w["failed"] for w in record["workloads"].values())
    if too_wide:
        print("spread above bound: " + ", ".join(too_wide), file=sys.stderr)
    if worse:
        print("median worse by more than bound: " + ", ".join(worse), file=sys.stderr)
    return 1 if failed or too_wide or worse else 0


if __name__ == "__main__":
    sys.exit(main())
