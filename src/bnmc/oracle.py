"""Brute-force inference oracle by full-joint enumeration.

Deliberately naive in what it computes: the mass of a binding is the
compensated sum, over every full assignment that agrees with the binding, of
`1.0` times one entry per CPT, taken in declaration order. The enumeration is
a depth-first walk of the tree of partial assignments, and it shares each
prefix's partial product with every assignment below it.

Variables are taken in the order they first appear in the CPT scopes (CPTs
in declaration order, each scope's parents before its owner). Each variable
with more than one candidate value is one level of nested generators; a bound
variable, or one with a one-value domain, joins the level before it. A
CPT's entry is multiplied at the level where its scope and the scopes of all
the CPTs declared before it are complete, so every term is the same left-to-
right product `1.0 * e_0 * ... * e_{n-1}` as a flat enumeration would form,
bit for bit, and `fsum`, being exact, returns the same float in any order. A
level whose first entry is its own variable's CPT reads that row once per
prefix.

Rows are looked up in per-CPT tables keyed by the projection of the
assignment onto the CPT's parents; they are built once per query and serve
both masses. The current prefix lives in one list that each level writes its
variable's value into, so the enumeration streams. Used as the independent
reference for the optimized engines.
"""

from __future__ import annotations

from math import fsum
from operator import itemgetter
from typing import Iterable, Iterator, Mapping

from .errors import EnumerationCapError
from .network import BayesianNetwork, check_assignment
from .reach import ReachQuery, conditional

DEFAULT_ENUM_CAP = 10_000_000

# No enumeration visits more assignments than this, whatever the cap: no such
# run could finish, and it keeps the generators nested at most 64 deep.
MAX_ASSIGNMENTS = 2**64


def _tables(bn: BayesianNetwork) -> tuple[list[int], list[tuple[int, tuple]]]:
    """The enumeration order and, per CPT in declaration order, the position
    in that order where it and every CPT before it are complete, with the
    CPT's step: its owner, a getter projecting an assignment onto its parents
    (None when it has none) and its rows keyed by that projection (its one
    row when it has no parents).
    """
    position: dict[int, int] = {}
    for cpt in bn.cpts:
        for u in (*cpt.parents, cpt.owner):
            position.setdefault(u, len(position))
    steps = []
    complete = -1
    for cpt in bn.cpts:
        complete = max(complete, position[cpt.owner], *map(position.get, cpt.parents))
        if not cpt.parents:
            step = (cpt.owner, None, cpt.rows[()])
        elif len(cpt.parents) == 1:  # the getter returns the one value, not a tuple
            rows = {k: r for (k,), r in cpt.rows.items()}
            step = (cpt.owner, itemgetter(*cpt.parents), rows)
        else:
            step = (cpt.owner, itemgetter(*cpt.parents), cpt.rows)
        steps.append((complete, step))
    return list(position), steps


def _level(
    prefixes: Iterable[float], values: list[int], var: int, key, rows, rest: list[tuple]
) -> Iterator[float]:
    """Extend each prefix by every value of `var`, written into `values` for
    the levels below: multiply in the level's first entry, from one row per
    prefix, then each step of `rest` in order."""
    for p in prefixes:
        for d, e in enumerate(rows if key is None else rows[key(values)]):
            values[var] = d
            q = p * e
            for owner, k, r in rest:
                q *= (r if k is None else r[k(values)])[values[owner]]
            yield q


def _mass(
    bn: BayesianNetwork,
    tables: tuple[list[int], list[tuple[int, tuple]]],
    binding: Mapping[int, int],
) -> float:
    order, steps = tables
    values = [0] * len(bn.variables)
    for var, d in binding.items():
        values[var] = d
    # level[i]: how many branching variables the first i + 1 in the order hold.
    branching: list[int] = []
    level = []
    for var in order:
        if var not in binding and len(bn.variables[var].domain) > 1:
            branching.append(var)
        level.append(len(branching))
    by_level: list[list[tuple]] = [[] for _ in range(len(branching) + 1)]
    for complete, step in steps:
        by_level[level[complete]].append(step)

    p = 1.0
    for owner, key, rows in by_level[0]:
        p *= (rows if key is None else rows[key(values)])[values[owner]]
    terms: Iterable[float] = (p,)
    for i, var in enumerate(branching, 1):
        rest = by_level[i]
        if rest and rest[0][0] == var:
            (_, key, rows), *rest = rest
        else:
            # The first entry here is not `var`'s own: every entry is read
            # from `rest`, after a row of ones (exact: p * 1.0 == p).
            key, rows = None, (1.0,) * len(bn.variables[var].domain)
        terms = _level(terms, values, var, key, rows, rest)
    return fsum(terms)


def oracle_infer(
    bn: BayesianNetwork, q: ReachQuery, *, enum_cap: int = DEFAULT_ENUM_CAP
) -> float:
    """Conditional probability by summing the joint over all full assignments."""
    check_assignment(bn, q.combined())
    # The evidence mass is the larger of the two passes: it fixes no more variables.
    limit = min(enum_cap, MAX_ASSIGNMENTS)
    total = 1
    for v in bn.variables:
        if total > limit:
            break
        if v.id not in q.evidence:
            total *= len(v.domain)
    if total > limit:
        bound = (
            f"the enumeration cap of {enum_cap}"
            if enum_cap <= MAX_ASSIGNMENTS
            else "2^64, the most any enumeration visits"
        )
        raise EnumerationCapError(
            f"at least {total} assignments consistent with the evidence exceed {bound}"
        )
    tables = _tables(bn)
    return conditional(lambda b: _mass(bn, tables, b), q)
