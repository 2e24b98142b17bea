"""Brute-force inference oracle by full-joint enumeration.

Deliberately naive: sums CPT products over every full assignment that
agrees with the binding, in deterministic variable-index order, with
compensated summation. Used as the independent reference for the optimized
engines.
"""

from __future__ import annotations

from itertools import product
from math import fsum
from typing import Mapping

from .errors import EnumerationCapError
from .network import BayesianNetwork, check_assignment
from .reach import ReachQuery, conditional

DEFAULT_ENUM_CAP = 10_000_000


def _mass(bn: BayesianNetwork, binding: Mapping[int, int]) -> float:
    domains = [
        (binding[v.id],) if v.id in binding else range(len(v.domain))
        for v in bn.variables
    ]
    cpts = bn.cpts

    def terms():
        for values in product(*domains):
            p = 1.0
            for cpt in cpts:
                key = tuple(values[q] for q in cpt.parents)
                p *= cpt.rows[key][values[cpt.owner]]
            yield p

    return fsum(terms())


def oracle_infer(
    bn: BayesianNetwork, q: ReachQuery, *, enum_cap: int = DEFAULT_ENUM_CAP
) -> float:
    """Conditional probability by summing the joint over all full assignments."""
    # The evidence mass is the larger of the two passes: it fixes no more variables.
    total = 1
    for v in bn.variables:
        if v.id not in q.evidence:
            total *= len(v.domain)
    if total > enum_cap:
        raise EnumerationCapError(
            f"{total} assignments consistent with the evidence exceed the "
            f"enumeration cap of {enum_cap}"
        )
    check_assignment(bn, q.combined())
    return conditional(lambda b: _mass(bn, b), q)
