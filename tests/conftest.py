"""Shared fixtures and independent oracles.

The oracles recompute library quantities by entirely different routes:
deletion/contraction for the partition polynomial, the weighted matrix
tree theorem for tree sums, and explicit closed forms for the named
families.  Test values frozen below were produced by these oracles.
"""

import warnings

import numpy as np
import pytest

from tuttezero import build_graph

# When a hypothesis test fails, its pytest plugin imports this module to
# print a patch hint; the module imports libcst, which makes mypy_extensions
# emit a DeprecationWarning, and with warnings as errors the run would end
# in INTERNALERROR instead of the failure report.  Import it once here with
# that one warning ignored; warnings stay errors inside the tests.
with warnings.catch_warnings():
    warnings.filterwarnings("ignore", message="mypy_extensions", category=DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # without libcst the plugin prints no patch hint
        pass


def dc_z_coeffs(n, edges):
    """Partition polynomial by deletion/contraction, coefficients in q.

    A loop (identified endpoints) multiplies by (1+w); an isolated vertex
    multiplies by q, i.e. shifts.  Completely independent of the subset
    enumeration the library uses.
    """
    edges = list(edges)
    if not edges:
        out = np.zeros(n + 1, dtype=complex)
        out[n] = 1.0
        return out
    (u, v, w), rest = edges[0], edges[1:]
    if u == v:
        return (1.0 + w) * dc_z_coeffs(n, rest)
    deleted = dc_z_coeffs(n, rest)
    relab = []
    for a, b, ww in rest:
        a2 = u if a == v else a
        b2 = u if b == v else b
        a2 = a2 if a2 < v else a2 - 1
        b2 = b2 if b2 < v else b2 - 1
        relab.append((a2, b2, ww))
    contracted = dc_z_coeffs(n - 1, relab)
    out = np.zeros(max(len(deleted), len(contracted)), dtype=complex)
    out[: len(deleted)] += deleted
    out[: len(contracted)] += w * contracted
    return out


def kirchhoff_tree_sum(n, edges):
    """Weighted spanning-tree sum via a cofactor of the Laplacian."""
    lap = np.zeros((n, n), dtype=complex)
    for u, v, w in edges:
        lap[u, u] += w
        lap[v, v] += w
        lap[u, v] -= w
        lap[v, u] -= w
    if n == 1:
        return 1.0 + 0.0j
    return complex(np.linalg.det(lap[1:, 1:]))


def brute_connected_sum(n, edges):
    """Sum over connected spanning edge sets of the weight product."""
    m = len(edges)
    total = 0.0 + 0.0j
    for mask in range(1 << m):
        parent = list(range(n))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        comps = n
        prod = 1.0 + 0.0j
        for i in range(m):
            if mask >> i & 1:
                u, v, w = edges[i]
                prod *= w
                ru, rv = find(u), find(v)
                if ru != rv:
                    parent[ru] = rv
                    comps -= 1
        if comps == 1:
            total += prod
    return total


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def triangle():
    return build_graph(range(3), [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])


@pytest.fixture
def small_weighted(rng):
    """A fixed 4-vertex graph with generic complex weights."""
    pairs = [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)]
    ws = [complex(a, b) for a, b in rng.normal(0, 1, (len(pairs), 2))]
    return build_graph(range(4), [(u, v, w) for (u, v), w in zip(pairs, ws)])
