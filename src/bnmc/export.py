"""Exporters for the explicit Markov chain: Jani (DTMC subset) and Graphviz.

The Jani emission uses one bounded-integer variable per network vertex.
Because Jani has no native "unset" value, the don't-care placeholder is
encoded as the extra domain value |D| (also the initial value); the model's
comment header documents the convention. Chain state `idx` is the location
`s{idx}`, the name the dot export gives its node, with `s0` initial. Each
state's one edge leaves its own location with no guard and assigns the next
variable on the way to each child, so every location is reached with
exactly the state's bound values and |D| past its end; a final state keeps
its probability-1 self-loop, which assigns nothing. Output is deterministic
and byte-identical for equal inputs.
"""

from __future__ import annotations

import json

from .chain import MarkovChain


def export_jani(mc: MarkovChain) -> str:
    bn = mc.network
    variables = []
    value_legend = []
    for var_id in mc.order:
        v = bn.variables[var_id]
        size = len(v.domain)
        variables.append(
            {
                "name": v.name,
                "type": {
                    "kind": "bounded",
                    "base": "int",
                    "lower-bound": 0,
                    "upper-bound": size,
                },
                "initial-value": size,
            }
        )
        labels = ", ".join(f"{i}={label}" for i, label in enumerate(v.domain))
        value_legend.append(f"{v.name}: {labels}, {size}=unset")

    edges = []
    for idx in range(len(mc.states)):
        depth = mc.depth(idx)
        final = mc.is_final(idx)
        destinations = [
            {
                "location": f"s{target}",
                "probability": {"exp": p},
                "assignments": []
                if final
                else [{"ref": variables[depth]["name"], "value": mc.states[target][depth]}],
            }
            for p, target in mc.successors(idx)
        ]
        edges.append({"location": f"s{idx}", "destinations": destinations})

    model = {
        "jani-version": 1,
        "name": bn.name,
        "type": "dtmc",
        "comment": (
            "Markov chain of a Bayesian network; the don't-care placeholder is "
            "encoded as the extra domain value |D| per variable (initial value). "
            "Value legend: " + "; ".join(value_legend)
        ),
        "actions": [],
        "variables": variables,
        "automata": [
            {
                "name": "chain",
                "locations": [{"name": f"s{idx}"} for idx in range(len(mc.states))],
                "initial-locations": ["s0"],
                "edges": edges,
            }
        ],
        "system": {"elements": [{"automaton": "chain"}]},
        "properties": [],
    }
    return json.dumps(model, indent=2, ensure_ascii=False) + "\n"


def export_dot(mc: MarkovChain) -> str:
    """Graphviz digraph; edge labels carry probabilities, finals are doubled."""
    lines = ["digraph mc {", "  rankdir=LR;"]
    for idx in range(len(mc.states)):
        label = mc.render_state(idx)
        shape = ", peripheries=2" if mc.is_final(idx) else ""
        lines.append(f'  s{idx} [label="{label}"{shape}];')
    for idx in range(len(mc.states)):
        for p, target in mc.successors(idx):
            lines.append(f'  s{idx} -> s{target} [label="{p!r}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
