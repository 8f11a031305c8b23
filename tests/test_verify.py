"""Shape and contract checks for the verification harnesses."""

from fractions import Fraction

import numpy as np
import pytest

from tuttezero import OutOfDomain, analyze, families, q_roots, verify
from tuttezero.bounds import f_closed, f_lambda_variational
from tuttezero.graph import MAX_ENUM_EDGES
from tuttezero.verify import (
    EXPANSION_F0,
    EXPANSION_F1,
    _expansion_coefficients,
    examples_check,
    verify_constants,
    verify_parallel_reduction,
    verify_penrose_chains,
    verify_polymer_identity,
    verify_zero_free,
)

REPORT_KEYS = {"name", "passed", "checked", "failures", "failure_count", "elapsed"}


def test_report_shape():
    r = verify_constants()
    assert REPORT_KEYS <= set(r)
    assert isinstance(r["failures"], list) and r["failure_count"] == 0
    assert r["checked"] > 0 and r["elapsed"] >= 0.0


def test_parallel_reduction_sweep():
    r = verify_parallel_reduction(samples=2000, seed=7)
    assert r["passed"], r["failures"]
    assert r["checked"] >= 2000


def test_zero_free_multigraph_option():
    r = verify_zero_free(
        max_vertices=4, draws=5, seed=0, max_multi=3,
    )
    assert r["passed"], r["failures"]
    assert r["multigraph_checked"] > 0


def _no_draws(monkeypatch):
    # a sweep that makes its generator has started to draw
    def refused(*args, **kwargs):
        raise AssertionError("a random generator was made")

    monkeypatch.setattr(np.random, "default_rng", refused)


def test_zero_free_rejects_negative_draws(monkeypatch):
    _no_draws(monkeypatch)
    with pytest.raises(OutOfDomain):
        verify_zero_free(max_vertices=3, draws=-1)


def test_penrose_chains_rejects_negative_draws(monkeypatch):
    _no_draws(monkeypatch)
    with pytest.raises(OutOfDomain):
        verify_penrose_chains(max_vertices=3, draws=-1)


def test_parallel_reduction_rejects_negative_samples(monkeypatch):
    _no_draws(monkeypatch)
    with pytest.raises(OutOfDomain):
        verify_parallel_reduction(samples=-5)


def test_bad_multigraph_bound_names_the_multigraph_corpus():
    # a bound outside 1..4 is reported against the multigraph corpus, not
    # against the simple atlas the multigraphs are built on
    for max_n in (7, 0, -2):
        with pytest.raises(OutOfDomain, match="multigraph corpus"):
            families.connected_multigraph_structures(max_n)
    with pytest.raises(OutOfDomain, match="multigraph corpus"):
        verify_zero_free(max_vertices=3, draws=1, max_multi=-2)
    with pytest.raises(OutOfDomain, match="multigraph corpus"):
        verify_polymer_identity(max_simple=3, max_multi=-2, n_q=2)


def test_multigraph_corpus_stops_at_the_edge_cap(monkeypatch):
    # tripled, K4 has 18 edges and K5 30, past the cap of 24: a sweep over
    # 5-vertex multigraphs could not finish, so it is refused before any
    # structure is built or analyzed
    assert families.MULTI_MAX_VERTICES == 4
    assert (families.MAX_MULTIPLICITY * 6 <= MAX_ENUM_EDGES
            < families.MAX_MULTIPLICITY * 10)
    assert max(len(p) for _, p in families.connected_multigraph_structures(4)) == 18

    def fail(*args):
        raise AssertionError("work done before the bound was checked")

    monkeypatch.setattr(families, "_edge_automorphisms", fail)
    monkeypatch.setattr(verify, "analyze", fail)
    for max_n in (5, 6):
        with pytest.raises(OutOfDomain, match="multigraph corpus covers 1..4 vertices"):
            families.connected_multigraph_structures(max_n)
        with pytest.raises(OutOfDomain, match="multigraph corpus"):
            verify_zero_free(max_vertices=1, draws=1, max_multi=max_n)
        with pytest.raises(OutOfDomain, match="multigraph corpus"):
            verify_polymer_identity(max_simple=1, max_multi=max_n, n_q=1)


def _report_bits(rep):
    """What a report says about its graph's roots; whole reports do not
    compare, since their BoundSet holds a closure."""
    return ([(r.real.hex(), r.imag.hex()) for r in rep.roots], rep.q_max.hex(),
            rep.q_zero_multiplicity, rep.general_disc_verified, rep.simple_disc_verified)


def test_zero_free_sweep_reports_match_a_fresh_analyze(monkeypatch):
    # the sweep computes the Z of a structure's draws in one engine pass
    # and hands each to analyze; every report must be the one analyze(g)
    # gives on its own
    seen = []
    sweep_analyze = verify.analyze

    def recorded(g, *args):
        rep = sweep_analyze(g, *args)
        seen.append((g, rep))
        return rep

    monkeypatch.setattr(verify, "analyze", recorded)
    r = verify_zero_free(max_vertices=4, draws=5, seed=3, max_multi=3)
    corpus = (families.connected_simple_structures(4)
              + families.connected_multigraph_structures(3))
    assert r["passed"] and len(seen) == len(corpus) * 3 * 5
    assert r["multigraph_checked"] == sum(not g.is_simple for g, _ in seen) > 0
    for g, rep in seen:
        assert _report_bits(rep) == _report_bits(analyze(g))
        assert _report_bits(analyze(g, q_roots(g))) == _report_bits(rep)


def test_examples_check_documents_known_gap():
    r = examples_check(seed=0)
    sub = r["sub_checks"]
    assert sub["single_edge_general"] is False
    assert all(v for k, v in sub.items() if k != "single_edge_general")
    assert r["known_structural_gap"] == "single_edge_general"
    assert r["failure_count"] == 1


def test_expansion_coefficient_fractions():
    # leading entry is the 1/beta coefficient; signs alternate from index 2
    assert EXPANSION_F0[0] == 4.0 and EXPANSION_F1[0] == 4.0
    assert EXPANSION_F0[1] == 1.0 and EXPANSION_F1[1] == 3.0
    assert EXPANSION_F0[2] == EXPANSION_F1[2] == -7.0 / 48.0
    assert EXPANSION_F0[3] == 11.0 / 192.0 and EXPANSION_F1[3] == 17.0 / 192.0


def test_library_f_matches_small_beta_expansion():
    # F_lambda(beta) = sum_i c_i beta^(i-1); the six exact coefficients leave
    # a truncation error near beta^6 relative
    for lam in (0, 1):
        coeffs = _expansion_coefficients(lam)
        for beta in (1e-2, 3e-3):
            b = Fraction(beta)
            want = float(sum(c * b ** (i - 1) for i, c in enumerate(coeffs)))
            for got in (f_lambda_variational(lam, beta), f_closed(lam, beta)):
                assert abs(got / want - 1) < 1e-10, (lam, beta, got, want)
