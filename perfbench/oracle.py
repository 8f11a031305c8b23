"""Independent reference for Z_G(q, w), with a rounding bound per coefficient.

Deletion-contraction: Z(G) = Z(G - e) + w_e * Z(G / e), with parallel edges
merged as w = (1 + w1)(1 + w2) - 1 (evaluated as w1 + w2 + w1*w2, which is
the same number without cancelling against 1) and isolated vertices
factored out as powers of q.  The same recursion run on |w| gives, for each
coefficient, the sum M_k of the moduli of every monomial that contributes
to it.  Any method that adds up those monomials in floating point errs by
at most a small multiple of M_k, which is the tolerance used here.

This module shares no code with the package under test: it reads plain
(n, [(u, v, w), ...]) data and returns plain lists.
"""

from __future__ import annotations

import sys

UNIT_ROUNDOFF = 2.0 ** -53
# relative backward error accepted for a reported root
ROOT_RESIDUAL = 1e-8


def _merge(edges):
    """Canonical edge tuple: endpoints ordered, parallel edges merged."""
    merged = {}
    for u, v, w, a in edges:
        key = (u, v) if u < v else (v, u)
        if key in merged:
            w0, a0 = merged[key]
            merged[key] = (w0 + w + w0 * w, a0 + a + a0 * a)
        else:
            merged[key] = (w, a)
    return tuple(sorted((u, v, w, a) for (u, v), (w, a) in merged.items()))


def _strip_isolated(n, edges):
    """Relabel the touched vertices 0..k-1; return (k, relabelled edges)."""
    touched = sorted({x for u, v, _, _ in edges for x in (u, v)})
    if len(touched) == n:
        return n, edges
    lab = {x: i for i, x in enumerate(touched)}
    return len(touched), tuple((lab[u], lab[v], w, a) for u, v, w, a in edges)


def z_with_bound(n: int, edges) -> tuple[list[complex], list[float]]:
    """Coefficients of Z_G ascending in q, and their modulus sums M_k."""
    memo: dict = {}

    def rec(n, edges):
        core_n, core = _strip_isolated(n, edges)
        key = (core_n, core)
        hit = memo.get(key)
        if hit is None:
            if not core:
                hit = ([0j] * core_n + [1 + 0j], [0.0] * core_n + [1.0])
            else:
                (u, v, w, a), rest = core[0], core[1:]
                dz, da = rec(core_n, rest)
                # contract v into u, close the gap left by v
                def lab(x):
                    x = u if x == v else x
                    return x - 1 if x > v else x

                cz, ca = rec(core_n - 1, _merge([(lab(x), lab(y), ww, aa)
                                                  for x, y, ww, aa in rest]))
                z = list(dz)
                m = list(da)
                for k in range(core_n):
                    z[k] += w * cz[k]
                    m[k] += a * ca[k]
                hit = (z, m)
            memo[key] = hit
        shift = n - core_n
        return [0j] * shift + hit[0], [0.0] * shift + hit[1]

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 10_000))
    try:
        return rec(n, _merge([(u, v, complex(w), abs(complex(w))) for u, v, w in edges]))
    finally:
        sys.setrecursionlimit(limit)


def coefficient_tolerance(n: int, m: int, mags: list[float]) -> list[float]:
    """Per-coefficient error allowed between an engine and this oracle.

    Recursive summation of N terms errs by at most (N - 1) u times the sum
    of their moduli, and a product of m factors by about m u.  The engine
    may sum all 2**m monomials one by one, or go through the 2**n vertex
    subsets n at a time; the oracle adds its own O(m + n) steps per
    monomial.  The factor 4 covers complex multiplication.
    """
    gamma = 4.0 * ((1 << m) + n * (1 << n) + 16 * (m + n + 1)) * UNIT_ROUNDOFF
    return [gamma * mk for mk in mags]


def check_coefficients(n, edges, coeffs, oracle=None) -> str | None:
    """None when coeffs match the oracle within tolerance, else a reason."""
    z, mags = oracle or z_with_bound(n, edges)
    if len(coeffs) != len(z):
        return f"degree {len(coeffs) - 1}, expected {n}"
    tol = coefficient_tolerance(n, len(edges), mags)
    for k, (got, want, t) in enumerate(zip(coeffs, z, tol)):
        if abs(complex(got) - want) > t:
            return f"coefficient q^{k}: {complex(got)!r} vs oracle {want!r} (tol {t:.3g})"
    return None


def check_profile(n, edges, profile, oracle=None) -> str | None:
    """None when the gas profile p_j matches the oracle's q^(n-j) coefficient."""
    z, mags = oracle or z_with_bound(n, edges)
    if len(profile) != n:
        return f"profile length {len(profile)}, expected {n}"
    tol = coefficient_tolerance(n, len(edges), mags)
    for j, got in enumerate(profile):
        want, t = z[n - j], tol[n - j]
        if abs(complex(got) - want) > t:
            return f"profile p_{j}: {complex(got)!r} vs oracle {want!r} (tol {t:.3g})"
    return None


def check_roots(n, edges, roots, zero_multiplicity, oracle=None) -> str | None:
    """None when the reported roots are roots of the oracle polynomial.

    Every nonzero root r must satisfy |Z(r)| <= ROOT_RESIDUAL * sum_k M_k |r|^k
    plus the coefficient tolerance, the multiplicity at q = 0 must be the
    lowest power with a nonzero monomial, and the counts must add up to n.
    """
    z, mags = oracle or z_with_bound(n, edges)
    lowest = next(k for k, mk in enumerate(mags) if mk > 0.0)
    if zero_multiplicity != lowest:
        return f"zero multiplicity {zero_multiplicity}, expected {lowest}"
    if len(roots) + zero_multiplicity != n:
        return f"{len(roots)} nonzero roots + {zero_multiplicity} at 0, expected {n}"
    tol = coefficient_tolerance(n, len(edges), mags)
    for r in roots:
        r = complex(r)
        val = 0j
        for c in reversed(z):
            val = val * r + c
        ar = abs(r)
        scale = sum(mk * ar ** k for k, mk in enumerate(mags))
        slack = sum(t * ar ** k for k, t in enumerate(tol))
        if abs(val) > ROOT_RESIDUAL * scale + slack:
            return f"root {r!r}: |Z| = {abs(val):.3g} above {ROOT_RESIDUAL * scale + slack:.3g}"
    return None
