"""Exact inference on discrete Bayesian networks.

Three interchangeable engines answer the same conditional queries: explicit
reachability on a Markov chain translated from the network (the tree of
every partial evaluation, or the chain of one query walked layer by layer), a
symbolic engine over a hash-consed multi-terminal decision-diagram kernel,
and a brute-force enumeration oracle. A PSDD evaluator covers the
circuit-based representation for cross-paradigm comparison.
"""

from .bif import BifDocument, parse_bif, parse_bif_document, write_bif
from .chain import MarkovChain, build_mc, final_states, size_bound
from .errors import (
    BifParseError,
    BnmcError,
    CapError,
    CycleError,
    EnumerationCapError,
    IllConditionedQueryError,
    MalformedQueryError,
    PsddError,
    PsddParseError,
    StateCapError,
)
from .export import export_dot, export_jani
from .mtbdd import MtbddManager, NodeRef
from .network import (
    BayesianNetwork,
    Cpt,
    NetworkStats,
    Variable,
    joint_probability,
    markov_blanket,
    stats,
    subnetwork,
    topological_order,
    validate,
)
from .oracle import oracle_infer
from .psdd import (
    Psdd,
    Vtree,
    compare_with_bn,
    parse_psdd,
    parse_vtree,
    prob_assignment,
    prob_term,
    validate_partition,
)
from .reach import ReachQuery, check_prop2, conditional_query, reach_probability
from .symbolic import (
    BenchResult,
    SymbolicBn,
    bench_evidence,
    compile_network,
    infer,
)

__version__ = "0.1.0"
