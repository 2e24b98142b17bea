"""Exporters for the explicit Markov chain: Jani (DTMC subset) and Graphviz.

The Jani emission uses one bounded-integer variable per network vertex.
Because Jani has no native "unset" value, the don't-care placeholder is
encoded as the extra domain value |D| (also the initial value); the model's
comment header documents the convention. Output is deterministic and
byte-identical for equal inputs.
"""

from __future__ import annotations

import json

from .chain import MarkovChain


def _var_name(mc: MarkovChain, pos: int) -> str:
    return mc.network.variables[mc.order[pos]].name


def _eq(var: str, value: int) -> dict:
    return {"op": "=", "left": var, "right": value}


def _conj(terms: list[dict]) -> dict | bool:
    # An empty conjunction is the Jani literal true.
    expr = terms[0] if terms else True
    for term in terms[1:]:
        expr = {"op": "∧", "left": expr, "right": term}
    return expr


def _guard(mc: MarkovChain, state_index: int) -> dict:
    """Every variable equals its bound value, or |D| past the state's end."""
    state = mc.states[state_index]
    terms = []
    for pos, var_id in enumerate(mc.order):
        unset = len(mc.network.variables[var_id].domain)
        terms.append(_eq(_var_name(mc, pos), state[pos] if pos < len(state) else unset))
    return _conj(terms)


def export_jani(mc: MarkovChain) -> str:
    bn = mc.network
    variables = []
    value_legend = []
    for pos in range(len(mc.order)):
        v = bn.variables[mc.order[pos]]
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

    # A final state's one successor is its self-loop, which assigns nothing.
    edges = []
    for idx in range(len(mc.states)):
        depth = mc.depth(idx)
        final = mc.is_final(idx)
        destinations = [
            {
                "location": "loc",
                "probability": {"exp": p},
                "assignments": []
                if final
                else [{"ref": _var_name(mc, depth), "value": mc.states[target][depth]}],
            }
            for p, target in mc.successors(idx)
        ]
        edges.append(
            {
                "location": "loc",
                "guard": {"exp": _guard(mc, idx)},
                "destinations": destinations,
            }
        )

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
                "locations": [{"name": "loc"}],
                "initial-locations": ["loc"],
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
