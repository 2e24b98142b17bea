"""Brute-force inference oracle by full-joint enumeration.

Deliberately naive: sums CPT products over every full assignment that
agrees with the binding, in deterministic variable-index order, with
compensated summation. Each term is `1.0` times one entry per CPT, taken in
declaration order. An entry is read from a flat table keyed by the
projection of the assignment onto that CPT's scope (its parents, then its
owner); the tables are built once per query and serve both masses. Used as
the independent reference for the optimized engines.
"""

from __future__ import annotations

from itertools import product
from math import fsum
from operator import itemgetter
from typing import Mapping

from .errors import EnumerationCapError
from .network import BayesianNetwork, check_assignment
from .reach import ReachQuery, conditional

DEFAULT_ENUM_CAP = 10_000_000


def _tables(bn: BayesianNetwork) -> list[tuple[itemgetter, dict]]:
    """Per CPT, a getter projecting a full assignment onto the CPT's scope
    (parents, then owner) and the entry for each projection. A parentless
    CPT's getter returns a scalar, so its table is keyed by the owner's value.
    """
    tables = []
    for cpt in bn.cpts:
        entries = {
            (*key, d) if cpt.parents else d: p
            for key, row in cpt.rows.items()
            for d, p in enumerate(row)
        }
        tables.append((itemgetter(*cpt.parents, cpt.owner), entries))
    return tables


def _mass(
    bn: BayesianNetwork,
    tables: list[tuple[itemgetter, dict]],
    binding: Mapping[int, int],
) -> float:
    domains = [
        (binding[v.id],) if v.id in binding else range(len(v.domain))
        for v in bn.variables
    ]

    def terms():
        for values in product(*domains):
            p = 1.0
            for get, entries in tables:
                p *= entries[get(values)]
            yield p

    return fsum(terms())


def oracle_infer(
    bn: BayesianNetwork, q: ReachQuery, *, enum_cap: int = DEFAULT_ENUM_CAP
) -> float:
    """Conditional probability by summing the joint over all full assignments."""
    check_assignment(bn, q.combined())
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
    tables = _tables(bn)
    return conditional(lambda b: _mass(bn, tables, b), q)
