import random
from itertools import product

import pytest

from bnmc import fixtures
from bnmc.network import BayesianNetwork, Cpt, Variable, network_from_cpts


@pytest.fixture
def student_mood() -> BayesianNetwork:
    return fixtures.student_mood()


@pytest.fixture
def student_mood_dpg() -> BayesianNetwork:
    return fixtures.student_mood_dpg()


@pytest.fixture
def student_mood_psdd():
    return fixtures.student_mood_psdd()


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240901)


def single_var_bn(p: float = 0.5, name: str = "one", var: str = "x") -> BayesianNetwork:
    v = Variable(id=0, name=var, domain=("0", "1"))
    cpt = Cpt(owner=0, parents=(), rows={(): (1.0 - p, p)})
    return network_from_cpts(name, [v], [cpt])


def chain_bn(n: int, seed: int = 1, name: str = "chain") -> BayesianNetwork:
    """Binary chain v0 -> v1 -> ... -> v{n-1} with seeded generic CPTs."""
    rng = random.Random(seed)
    variables = [Variable(id=i, name=f"v{i}", domain=("0", "1")) for i in range(n)]
    cpts = [Cpt(owner=0, parents=(), rows={(): _row(rng)})]
    for i in range(1, n):
        cpts.append(
            Cpt(owner=i, parents=(i - 1,), rows={(0,): _row(rng), (1,): _row(rng)})
        )
    return network_from_cpts(name, variables, cpts)


def permuted_ids(bn: BayesianNetwork, rng: random.Random) -> BayesianNetwork:
    """`bn` with its variable ids shuffled, so a CPT may be declared before
    its parents' CPTs, as a BIF file that declares a child first parses."""
    new = list(range(len(bn.variables)))
    rng.shuffle(new)
    variables = sorted(
        (Variable(id=new[v.id], name=v.name, domain=v.domain) for v in bn.variables),
        key=lambda v: v.id,
    )
    cpts = []
    for cpt in bn.cpts:
        # Parents stay in ascending-id order, and each row key follows them.
        parents = sorted(cpt.parents, key=new.__getitem__)
        slots = [cpt.parents.index(u) for u in parents]
        cpts.append(
            Cpt(
                owner=new[cpt.owner],
                parents=tuple(new[u] for u in parents),
                rows={tuple(key[i] for i in slots): row for key, row in cpt.rows.items()},
            )
        )
    return network_from_cpts(bn.name, variables, cpts)


def copy_chain_bn(n: int) -> BayesianNetwork:
    """Binary chain v0 -> ... -> v{n-1}: P(v0 = 1) = 0.75, each v_i a copy of v_{i-1}."""
    variables = [Variable(id=i, name=f"v{i}", domain=("0", "1")) for i in range(n)]
    copy = {(0,): (1.0, 0.0), (1,): (0.0, 1.0)}
    cpts = [Cpt(owner=0, parents=(), rows={(): (0.25, 0.75)})]
    cpts += [Cpt(owner=i, parents=(i - 1,), rows=copy) for i in range(1, n)]
    return network_from_cpts("copy", variables, cpts)


def and_chain_bn(n: int) -> BayesianNetwork:
    """Roots x0..x{n-1} with P(x_i = 1) = 0.9, y0 = x0 and y_i = AND(y_{i-1}, x_i).

    Every root's id is below every gate's, so all roots come first in the
    topological order; P(y{n-1} = 1) = 0.9^n.
    """
    roots = [Variable(id=i, name=f"x{i}", domain=("0", "1")) for i in range(n)]
    gates = [Variable(id=n + i, name=f"y{i}", domain=("0", "1")) for i in range(n)]
    copy = {(0,): (1.0, 0.0), (1,): (0.0, 1.0)}
    conj = {(a, b): (0.0, 1.0) if a and b else (1.0, 0.0) for a in (0, 1) for b in (0, 1)}
    cpts = [Cpt(owner=i, parents=(), rows={(): (0.1, 0.9)}) for i in range(n)]
    cpts.append(Cpt(owner=n, parents=(0,), rows=copy))
    cpts += [Cpt(owner=n + i, parents=(i, n + i - 1), rows=conj) for i in range(1, n)]
    return network_from_cpts("and_chain", roots + gates, cpts)


def two_and_chains_bn(n: int) -> BayesianNetwork:
    """Roots x0..x{n-1} with P(x_i = 1) = 0.9, each feeding two AND chains:
    a0 = b0 = x0, a_i = AND(a_{i-1}, x_i) and b_i = AND(b_{i-1}, x_i).

    Every x_i is placed before a_i and kept until b_i, so elimination in
    that order carries all the roots at once; P(a{n-1} = b{n-1} = 1) = 0.9^n.
    """
    roots = [Variable(id=i, name=f"x{i}", domain=("0", "1")) for i in range(n)]
    gates = [
        Variable(id=k * n + i, name=f"{chain}{i}", domain=("0", "1"))
        for k, chain in ((1, "a"), (2, "b"))
        for i in range(n)
    ]
    copy = {(0,): (1.0, 0.0), (1,): (0.0, 1.0)}
    conj = {(a, b): (0.0, 1.0) if a and b else (1.0, 0.0) for a in (0, 1) for b in (0, 1)}
    cpts = [Cpt(owner=i, parents=(), rows={(): (0.1, 0.9)}) for i in range(n)]
    for base in (n, 2 * n):
        cpts.append(Cpt(owner=base, parents=(0,), rows=copy))
        cpts += [
            Cpt(owner=base + i, parents=(i, base + i - 1), rows=conj) for i in range(1, n)
        ]
    return network_from_cpts("two_and_chains", roots + gates, cpts)


def two_layer_bn(seed: int = 0) -> BayesianNetwork:
    """30 binary roots r0..r29 and 32 binary children c0..c31, each child with
    3 seeded random roots as parents, like a two-layer QMR network."""
    rng = random.Random(seed)
    roots = [Variable(id=i, name=f"r{i}", domain=("0", "1")) for i in range(30)]
    children = [Variable(id=30 + j, name=f"c{j}", domain=("0", "1")) for j in range(32)]
    cpts = [Cpt(owner=i, parents=(), rows={(): _row(rng)}) for i in range(30)]
    for j in range(32):
        parents = tuple(sorted(rng.sample(range(30), 3)))
        rows = {key: _row(rng) for key in product((0, 1), repeat=3)}
        cpts.append(Cpt(owner=30 + j, parents=parents, rows=rows))
    return network_from_cpts("two_layer", roots + children, cpts)


def chain_forward(bn: BayesianNetwork, first: tuple[int, ...]) -> float:
    """P(v0 in `first`, v{n-1} = 1) on a `chain_bn` by one forward pass."""
    dist = [p if v in first else 0.0 for v, p in enumerate(bn.cpts[0].rows[()])]
    for cpt in bn.cpts[1:]:
        dist = [sum(dist[u] * cpt.rows[(u,)][v] for u in range(2)) for v in range(2)]
    return dist[1]


def _row(rng: random.Random) -> tuple[float, float]:
    p = rng.uniform(0.05, 0.95)
    return (1.0 - p, p)


def enumerate_mass(bn: BayesianNetwork, binding: dict[int, int]) -> float:
    """Independent brute-force mass of a partial assignment, for oracles."""
    total = 0.0
    sizes = [len(v.domain) for v in bn.variables]
    for values in product(*(range(s) for s in sizes)):
        if any(values[i] != d for i, d in binding.items()):
            continue
        p = 1.0
        for cpt in bn.cpts:
            key = tuple(values[q] for q in cpt.parents)
            p *= cpt.rows[key][values[cpt.owner]]
        total += p
    return total


def one_row_block_bif(n_parents: int) -> str:
    """BIF text of n_parents binary roots and one child that declares all of
    them as parents but writes only the row for parents all 0."""
    binary = "type discrete [ 2 ] { 0, 1 };"
    names = [f"v{i}" for i in range(n_parents)]
    lines = ["network wide { }"]
    lines += [f"variable {name} {{ {binary} }}" for name in names + ["child"]]
    lines += [f"probability ( {name} ) {{ table 0.5, 0.5; }}" for name in names]
    lines.append(f"probability ( child | {', '.join(names)} ) {{")
    lines.append(f"  ({', '.join(['0'] * n_parents)}) 0.5, 0.5;")
    lines.append("}")
    return "\n".join(lines) + "\n"
