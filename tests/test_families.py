import hashlib

import numpy as np
import pytest

from tuttezero import OutOfDomain, build_graph
from tuttezero.families import (
    WEIGHT_REGIMES,
    complete_graph,
    connected_multigraph_structures,
    connected_simple_structures,
    cycle_graph,
    cycle_one_heavy,
    grid_graph,
    k2_parallel,
    path_graph,
    sample_weights,
    weighted,
)
from tuttezero.tutte import component_count


# connected graphs on n unlabeled vertices, OEIS A001349
SIMPLE_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}

# sha256 of repr(connected_simple_structures(max_n)), as first built from
# the networkx graph atlas; every sweep's rng stream follows this order
SIMPLE_CORPUS_SHA256 = {
    5: "1afd05d6e08bb520ffd32c22aeeebf75368ba40b2b917ee10539e94dd7c19a60",
    7: "889ae719217765dfbd31ed2e1f5a414cc5a0128a6dece2acc79eba090b289486",
}


def test_simple_corpus_counts():
    for top, want in ((3, 4), (5, 31), (7, 996)):
        got = connected_simple_structures(top)
        assert len(got) == want
    by_n = {}
    for n, _ in connected_simple_structures(7):
        by_n[n] = by_n.get(n, 0) + 1
    assert by_n == SIMPLE_COUNTS
    # every smaller corpus is a prefix of the full one
    full = connected_simple_structures(7)
    for top in range(1, 8):
        want = sum(SIMPLE_COUNTS[n] for n in range(1, top + 1))
        assert connected_simple_structures(top) == full[:want]
    with pytest.raises(OutOfDomain):
        connected_simple_structures(8)


def test_simple_corpus_pinned():
    for top, want in SIMPLE_CORPUS_SHA256.items():
        corpus = connected_simple_structures(top)
        assert hashlib.sha256(repr(corpus).encode()).hexdigest() == want


def test_simple_corpus_is_the_networkx_atlas_prefix():
    # networkx is a test oracle only; the package decodes a shipped table
    import networkx as nx

    want = []
    for g in nx.graph_atlas_g()[1:]:
        n = g.number_of_nodes()
        if n <= 7 and nx.is_connected(g):
            want.append((n, tuple(sorted((min(u, v), max(u, v)) for u, v in g.edges()))))
    assert connected_simple_structures(7) == tuple(want)


def test_simple_corpus_all_connected():
    for n, pairs in connected_simple_structures(5):
        mask = (1 << len(pairs)) - 1
        assert component_count(n, tuple(pairs), mask) == 1


def test_simple_corpus_no_duplicate_edges():
    for n, pairs in connected_simple_structures(5):
        canon = {tuple(sorted(p)) for p in pairs}
        assert len(canon) == len(pairs)


def test_multigraph_corpus_size_and_caps():
    full = connected_multigraph_structures(4)
    assert len(full) == 260
    # every structure has at least one repeated pair: plain simple graphs
    # already live in the other corpus
    for n, pairs in full:
        canon = [tuple(sorted(p)) for p in pairs]
        assert len(set(canon)) < len(canon)


def test_multigraph_corpus_pinned():
    # sha256 of the corpus as built by taking, for every pattern, the least
    # image under all n! vertex relabelings; keying by the skeleton's
    # automorphisms must give the same structures in the same order
    full = connected_multigraph_structures(4)
    digest = hashlib.sha256(repr(full).encode()).hexdigest()
    assert digest == "5c1b8531dbf2e79c59294baeacbb28b2a985e53a451202171fccda394250b8f8"


def test_multigraph_multiplicity_cap():
    for n, pairs in connected_multigraph_structures(4):
        canon = [tuple(sorted(p)) for p in pairs]
        for p in set(canon):
            assert canon.count(p) <= 3


def test_complete_graph_edge_count():
    g = complete_graph(6, 1.0)
    assert g.n == 6 and g.m == 15
    assert g.is_simple


def test_cycle_and_path():
    assert cycle_graph(5, 2.0).m == 5
    assert path_graph(5, 2.0).m == 4
    with pytest.raises(OutOfDomain):
        cycle_graph(2, 1.0)


def test_cycle_one_heavy_weights():
    g = cycle_one_heavy(4, 100.0, 0.01)
    ws = sorted(abs(w) for _, _, w in g.edges)
    assert ws == [0.01, 0.01, 0.01, 100.0]


def test_k2_parallel():
    g = k2_parallel(3, 2.0 + 1.0j)
    assert g.n == 2 and g.m == 3
    assert not g.is_simple


def test_grid_graph_edges():
    g = grid_graph(2, 3, 1.0)
    assert g.n == 6
    assert g.m == 2 * 2 + 3 * 1  # horizontal runs + vertical rungs
    mask = (1 << g.m) - 1
    assert component_count(6, tuple((u, v) for u, v, _ in g.edges), mask) == 1


def test_weight_regimes_stay_in_their_half(rng):
    ws = sample_weights(400, "contractive", rng)
    assert all(abs(1 + w) <= 1 + 1e-12 for w in ws)
    ws = sample_weights(400, "expansive", rng)
    assert all(abs(1 + w) >= 1 - 1e-12 for w in ws)
    ws = sample_weights(400, "mixed", rng)
    inside = sum(1 for w in ws if abs(1 + w) <= 1)
    assert 100 < inside < 300  # the coin is fair
    with pytest.raises(OutOfDomain):
        sample_weights(3, "bogus", rng)


@pytest.mark.parametrize("regime", WEIGHT_REGIMES)
def test_sample_weights_rejects_negative_count(regime):
    rng = np.random.default_rng(3)
    with pytest.raises(OutOfDomain):
        sample_weights(-1, regime, rng)
    assert rng.random() == np.random.default_rng(3).random()  # nothing drawn


def test_sample_weights_deterministic():
    a = sample_weights(10, "mixed", np.random.default_rng(7))
    b = sample_weights(10, "mixed", np.random.default_rng(7))
    assert a == b


def test_weighted_attaches_in_order(rng):
    n, pairs = 4, [(0, 1), (1, 2), (2, 3)]
    ws = sample_weights(3, "mixed", rng)
    g = weighted((n, pairs), ws)
    assert [e[2] for e in g.edges] == list(ws)
    assert [(u, v) for u, v, _ in g.edges] == pairs


@pytest.mark.parametrize("count", [2, 4])
def test_weighted_rejects_a_weight_count_that_differs_from_the_edges(count):
    triangle = (3, ((0, 1), (1, 2), (0, 2)))
    with pytest.raises(OutOfDomain, match=f"3 edges but {count} weights"):
        weighted(triangle, [0.5] * count)
