"""Command-line front end.

Exit codes: 0 success, 2 input error, 3 ill-conditioned query, 4 resource
cap exceeded or memory or recursion depth exhausted. Human-readable results
go to stdout, diagnostics to stderr. Each cap comes from its flag (only
--state-cap has one), else from the JSON file named by --config, else from
the library default. Every command reads and checks a given --config before
it runs.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path
from typing import Callable

from . import bif, chain, export, oracle, psdd, reach, symbolic
from .errors import (
    BnmcError,
    CapError,
    IllConditionedQueryError,
)
from .network import BayesianNetwork, stats

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_ILL_CONDITIONED = 3
EXIT_CAP = 4

STATS_HEADERS = ("BN", "#Vertices", "#Edges", "InDegreeMax", "Dmax", "AMB", "#Parameters")


def _read_text(path: str) -> str:
    """The UTF-8 text of file `path`, any byte-order mark kept for its reader
    to drop; bytes that do not decode are refused by path and file offset."""
    try:
        return Path(path).read_text("utf-8")
    except UnicodeDecodeError as exc:
        raise BnmcError(f"{path} is not UTF-8 text: {exc.reason} at offset {exc.start}") from None


def _load_network(path: str) -> BayesianNetwork:
    # parse_bif already rejects structurally invalid networks.
    return bif.parse_bif(_read_text(path))


CAP_DEFAULTS = {"state_cap": chain.DEFAULT_STATE_CAP, "enum_cap": oracle.DEFAULT_ENUM_CAP}


def _resolve_caps(args) -> None:
    """Set every cap on `args`: its flag, else its `--config` key, else the default.

    A given config file is read and checked once, whatever the command. A
    cap is a nonnegative integer from either source.
    """
    config = {}
    if args.config:
        try:
            config = json.loads(_read_text(args.config).removeprefix("\ufeff"))
        except json.JSONDecodeError as exc:
            raise BnmcError(f"config file {args.config} is not JSON: {exc}") from None
        except RecursionError:
            raise BnmcError(f"config file {args.config} is nested too deeply") from None
        if not isinstance(config, dict):
            raise BnmcError(f"config file {args.config} must hold a JSON object")
        unknown = sorted(config.keys() - CAP_DEFAULTS.keys())
        if unknown:
            raise BnmcError(
                f"config file {args.config} has unknown keys {unknown}; "
                f"the keys are {' and '.join(CAP_DEFAULTS)}"
            )
    for key, default in CAP_DEFAULTS.items():
        value = config.get(key, default)
        if type(value) is not int or value < 0:
            raise BnmcError(
                f"config value {key} must be a nonnegative integer, got {value!r}"
            )
        flag = getattr(args, key, None)
        if flag is None:
            setattr(args, key, value)
        elif flag < 0:
            raise BnmcError(
                f"--{key.replace('_', '-')} must be a nonnegative integer, got {flag}"
            )


def _parse_bindings(items: list[str], decode: Callable[[str, str], tuple]) -> dict:
    """`var=value` items as `{key: (value, var, value text)}`, where
    `decode(var, value text)` gives the key and value.

    A name or a label may hold `=`, so each `=` of an item is tried from the
    left and the first split that `decode` accepts is taken. When none is,
    the first split's error is raised.
    """
    out: dict = {}
    for item in items:
        splits = [(item[:pos], item[pos + 1 :]) for pos, c in enumerate(item) if c == "="]
        if not splits:
            raise BnmcError(f"binding {item!r} is not of the form var=value")
        refusals = []
        for name, label in splits:
            try:
                key, value = decode(name, label)
                break
            except BnmcError as exc:
                refusals.append(exc)
        else:
            raise refusals[0]
        if key in out:
            raise BnmcError(f"variable {name} bound twice")
        out[key] = value, name, label
    return out


def _query_from_args(args, decode: Callable[[str, str], tuple]) -> reach.ReachQuery:
    """The query of `--ev` and `--hyp`; a variable bound to two values is
    refused with the name and labels as written."""
    evidence = _parse_bindings(args.ev, decode)
    hypothesis = _parse_bindings(args.hyp, decode)
    for key, (value, name, label) in hypothesis.items():
        if key in evidence and evidence[key][0] != value:
            raise BnmcError(
                f"variable {name} bound to {label} in the hypothesis and "
                f"{evidence[key][2]} in the evidence"
            )
    return reach.ReachQuery(
        evidence={key: value for key, (value, _, _) in evidence.items()},
        hypothesis={key: value for key, (value, _, _) in hypothesis.items()},
    )


def cmd_stats(args) -> int:
    bn = _load_network(args.network)
    s = stats(bn)
    row = (
        bn.name,
        str(s.vertex_count),
        str(s.edge_count),
        str(s.max_in_degree),
        str(s.max_domain_size),
        f"{float(s.avg_markov_blanket):.2f}",
        str(s.parameter_count),
    )
    widths = [max(len(h), len(c)) for h, c in zip(STATS_HEADERS, row)]
    print("  ".join(h.ljust(w) for h, w in zip(STATS_HEADERS, widths)))
    print("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return EXIT_OK


def cmd_translate(args) -> int:
    bn = _load_network(args.network)
    mc = chain.build_mc(bn, keep_zero_edges=args.keep_zero_edges, state_cap=args.state_cap)
    text = export.export_jani(mc) if args.format == "jani" else export.export_dot(mc)
    report = f"states: {len(mc.states)} (bound {chain.size_bound(bn)})"
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
        print(report)
    else:
        sys.stdout.write(text)
        print(report, file=sys.stderr)
    return EXIT_OK


def cmd_infer(args) -> int:
    bn = _load_network(args.network)
    by_name = {v.name: v for v in bn.variables}

    def domain_label(name: str, label: str) -> tuple[int, int]:
        v = by_name.get(name) or bn.by_name(name)  # bn.by_name raises if unknown
        if label not in v.domain:
            raise BnmcError(
                f"value {label!r} not in the domain of {v.name} {list(v.domain)}"
            )
        return v.id, v.domain.index(label)

    # Every engine and cap sees only the ancestors of the bound variables.
    bn, query = reach.ancestral_query(bn, _query_from_args(args, domain_label))
    engines = (
        ("explicit", "symbolic", "oracle") if args.engine == "all" else (args.engine,)
    )
    results: dict[str, float] = {}
    for engine in engines:
        if engine == "explicit":
            results[engine] = reach.query_chain_conditional(
                bn, query, state_cap=args.state_cap
            )
        elif engine == "symbolic":
            sym = symbolic.compile_network(bn)
            results[engine] = symbolic.infer(sym, query)
        else:
            results[engine] = oracle.oracle_infer(bn, query, enum_cap=args.enum_cap)
    if args.engine == "all":
        for engine in engines:
            print(f"{engine}: {results[engine]!r}")
        deviation = max(results.values()) - min(results.values())
        print(f"max deviation: {deviation:.3e}")
    else:
        print(repr(results[args.engine]))
    return EXIT_OK


def cmd_bench(args) -> int:
    bn = _load_network(args.network)
    try:
        counts = [int(c) for c in args.counts.split(",") if c != ""]
    except ValueError:
        raise BnmcError(f"counts must be whole numbers, got {args.counts!r}") from None
    if not counts:
        raise BnmcError(f"counts must name at least one count, got {args.counts!r}")
    if any(c < 0 for c in counts):
        raise BnmcError("counts must be nonnegative")
    # A fresh model per row, so no row is timed against masses or diagram
    # memos that an earlier row filled. One untimed row on a throwaway model
    # goes first: a process's first pass through the elimination code runs
    # about 1.6x slower than later ones, which the first row would show.
    symbolic.bench_evidence(symbolic.compile_network(bn), args.strategy, counts[0], args.seed)
    results = [
        symbolic.bench_evidence(
            symbolic.compile_network(bn), args.strategy, count, args.seed
        )
        for count in counts
    ]
    results.sort(key=lambda r: r.evidence_count)

    if args.csv:
        if args.csv == "-":
            symbolic.write_csv(results, sys.stdout)
        else:
            with open(args.csv, "w", newline="", encoding="utf-8") as fh:
                symbolic.write_csv(results, fh)
    else:
        for r in results:
            outcome = "ill-conditioned" if r.ill_conditioned else repr(r.result)
            print(
                f"{r.network} strategy={r.strategy} evidence={r.evidence_count} "
                f"seed={r.seed} time_ns={r.query_time_ns} result={outcome}"
            )
    return EXIT_OK


def cmd_psdd_eval(args) -> int:
    diagram = psdd.parse_psdd(_read_text(args.vtree), _read_text(args.psdd))
    report = psdd.validate_partition(diagram)
    if not report.ok:
        bad = [v.node_id for v in report.verdicts if not v.ok]
        raise psdd.PsddParseError(f"partition property fails at decision nodes {bad}")

    def boolean(name: str, label: str) -> tuple[str, int]:
        if name not in diagram.variables:
            raise BnmcError(f"unknown PSDD variable {name!r}")
        lowered = label.lower()
        if lowered in ("1", "true", "t"):
            return name, 1
        if lowered in ("0", "false", "f"):
            return name, 0
        raise BnmcError(f"PSDD values must be boolean, got {label!r}")

    query = _query_from_args(args, boolean)
    print(repr(reach.conditional(lambda b: psdd.prob_term(diagram, b), query)))
    return EXIT_OK


@functools.cache  # parse_args leaves the parser unchanged, so one per process
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bnmc",
        description="Exact Bayesian-network inference via Markov-chain "
        "reachability, decision diagrams, and enumeration.",
    )
    parser.add_argument("--config", help="JSON file with caps: state_cap, enum_cap")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="network statistics")
    p.add_argument("network", help="BIF file")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("translate", help="export the Markov chain")
    p.add_argument("network", help="BIF file")
    p.add_argument("--format", choices=("jani", "dot"), required=True)
    p.add_argument("--keep-zero-edges", action="store_true")
    p.add_argument("--state-cap", type=int, default=None)
    p.add_argument("-o", "--output", help="output file (default: stdout)")
    p.set_defaults(func=cmd_translate)

    p = sub.add_parser("infer", help="answer a conditional query")
    p.add_argument("network", help="BIF file")
    # A BIF name or label holds no comma, so one flag may carry many bindings.
    for flag in ("--ev", "--hyp"):
        p.add_argument(
            flag,
            action="extend",
            type=lambda text: text.split(","),
            default=[],
            metavar="VAR=VALUE[,...]",
        )
    p.add_argument(
        "--engine",
        choices=("explicit", "symbolic", "oracle", "all"),
        default="symbolic",
    )
    p.add_argument("--state-cap", type=int, default=None)
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("bench", help="evidence-strategy timing harness")
    p.add_argument("network", help="BIF file")
    p.add_argument("--strategy", choices=symbolic.STRATEGIES, default="first")
    p.add_argument("--counts", default="1", help="comma-separated evidence counts")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--csv", help="CSV output path, or - for stdout")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("psdd-eval", help="evaluate a PSDD term given evidence")
    p.add_argument("vtree", help="vtree file")
    p.add_argument("psdd", help="psdd file")
    p.add_argument("--ev", action="append", default=[], metavar="VAR=VALUE")
    p.add_argument("--hyp", action="append", default=[], metavar="VAR=VALUE")
    p.set_defaults(func=cmd_psdd_eval)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _resolve_caps(args)
        return args.func(args)
    except IllConditionedQueryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ILL_CONDITIONED
    except CapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (MemoryError, RecursionError) as exc:
        resource = "memory" if isinstance(exc, MemoryError) else "recursion depth"
        print(f"error: the process ran out of {resource}", file=sys.stderr)
        return EXIT_CAP
    except (BnmcError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
