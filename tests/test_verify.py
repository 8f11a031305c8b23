"""Shape and contract checks for the verification harnesses."""

from fractions import Fraction

from tuttezero.bounds import f_closed, f_lambda_variational
from tuttezero.verify import (
    EXPANSION_F0,
    EXPANSION_F1,
    _expansion_coefficients,
    examples_check,
    verify_constants,
    verify_parallel_reduction,
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
