"""Partition-function zeros of small complex-weighted graphs.

The library computes the multivariate partition-function polynomial of a
weighted graph exactly, locates its roots in q, evaluates zero-free disc
radii built from weighted-degree quantities, and ships brute-force
verification sweeps for every supporting identity and inequality.
"""

from importlib import import_module as _import_module
from types import ModuleType as _ModuleType

from .bounds import (
    BoundSet,
    f_closed,
    f_lambda_series,
    f_lambda_variational,
    g_ratio,
    graph_bounds,
    kstar_lambda,
    kstar_psi,
    lambert_w,
    sokal_K,
)
from .errors import (
    BadIndex,
    BadLambda,
    DegenerateLambda,
    DegenerateWeights,
    Disconnected,
    EmptySet,
    LoopEdge,
    NoConvergence,
    NonFiniteWeight,
    NotATree,
    NotSimple,
    OutOfDomain,
    TooLarge,
    TutteZeroError,
    ZeroQ,
)
from .graph import (
    DegreeReport,
    WeightedGraph,
    build_graph,
    degree_quantities,
    delta_prime_a,
    graph_from_json,
    graph_to_json,
    induced_subgraph,
    load_graph,
    parallel_reduce,
    parse_edge_lines,
)
from .tutte import (
    QPolynomial,
    connected_by_support,
    connected_gen_poly,
    nonzero_component_count,
    spanning_tree_gen_poly,
    z_polynomial,
)
from .zeros import ZeroFreeReport, analyze, example_suite, q_max, q_roots

__version__ = "0.1.0"

# Each sweep module loads on first use of its name or of a name it exports
# here (PEP 562), so `import tuttezero` and the CLI's `analyze` load only the
# core modules.  families exports no names here but is reachable as
# `tuttezero.families`.
_LAZY = {
    "counting": (
        "c_m_table",
        "cmk",
        "counting_bound_rooted",
        "counting_bound_sokal",
        "counting_recursion_rhs",
        "subset_weight_sum",
    ),
    "families": (),
    "penrose": (
        "PartitionReport",
        "PenroseBounds",
        "enumerate_spanning_trees",
        "extended_penrose_bounds",
        "penrose_identity_eval",
        "penrose_map",
        "verify_partition",
    ),
    "polymer": (
        "PolymerWeights",
        "gkfp_margin",
        "gkfp_optimal",
        "kp_margin",
        "polymer_partition",
        "polymer_profile",
        "tutte_polymer_weights",
    ),
    "verify": (
        "examples_check",
        "verify_constants",
        "verify_counting",
        "verify_f_properties",
        "verify_f_routes",
        "verify_gkfp_pair",
        "verify_parallel_reduction",
        "verify_penrose_chains",
        "verify_penrose_partition",
        "verify_polymer_identity",
        "verify_zero_free",
    ),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}

__all__ = sorted(
    [name for name, value in globals().items()
     if not name.startswith("_") and not isinstance(value, _ModuleType)]
    + list(_HOME)
)


def __getattr__(name: str):
    if name in _LAZY:
        return _import_module(f".{name}", __name__)
    if name in _HOME:
        return getattr(_import_module(f".{_HOME[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY, *_HOME})
