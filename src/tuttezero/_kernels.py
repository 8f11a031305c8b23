"""Subset kernels behind the partition polynomials.

z_coefficients walks every subset of the edge set as a bitmask, through a
vectorized numpy engine.  The masks over the first BLOCK_BITS edges form a
block, built by doubling: adding edge j copies every mask of the first j
edges, merges the classes of its endpoints in the copy's vertex labels in
one array step, and multiplies its weight into the copy's products.  The
higher edges are walked depth first, each applied to a whole block in one
step, so a block is a fixed set of high edges together with every subset
of the low ones.  Every product is multiplied in increasing edge order, as
in a per-mask loop.

The products are summed per component count within each block.  The
block sums are then reduced pairwise in order of their high edges, which
keeps the summation order deterministic and the rounding error
logarithmic in the number of blocks.

connected_by_support works over vertex subsets instead, in O(3^n) time
for any number of edges, by the Fortuin-Kasteleyn set-partition recursion
(Bjorklund, Husfeldt, Kaski and Koivisto, "Computing the Tutte polynomial
in vertex-exponential time", arXiv:0711.2585).  Its subtraction can cancel,
so the float pass carries a rounding bound per vertex subset and falls
back to exact Gaussian rationals when a bound is not small against the
value it bounds.  It shares nothing with the edge engine, so the polymer
identity compares two independent routes.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .errors import OutOfDomain

# Edge masks over the first BLOCK_BITS edges form one block of the engine.
# At 12 a block's products take 64 KiB and a label row 4 KiB, so the
# arrays of a whole call stay small enough for the C heap to reuse from one
# call to the next.  At 14 they go back to the system after each call and
# are faulted in again by the next (300 to 450 page faults per call at 15
# and 16 edges), so a call's time follows the cost of a page fault on the
# host rather than the work.
BLOCK_BITS = 12


def _join(labels: np.ndarray, u: int, v: int) -> tuple[np.ndarray, np.ndarray]:
    """Add edge uv to every mask of a vertex-class label matrix.

    labels[x, i] is the class of vertex x in mask i.  Returns the new
    labels, where the class of v becomes the class of u, and per mask
    whether the edge joined two classes.  The labels are unsigned, so the
    arithmetic wraps and lands exactly on the class of u.
    """
    a = labels[u]
    b = labels[v]
    return labels + (labels == b) * (a - b), a != b


def _edge_subset_blocks(n: int, pairs, weights):
    """Yield (high, k, prod) for every block of edge masks.

    A block holds the masks low + (high << B) for every low below 2^B,
    B = min(BLOCK_BITS, m), in ascending order of low.  k is the number of
    components of (V, mask), isolated vertices included; prod is the
    product of the mask's weights in increasing edge order.  Blocks come
    in depth-first order of the high edges, not in order of high.
    """
    m = len(pairs)
    used = sorted({x for p in pairs for x in p})
    index = {x: i for i, x in enumerate(used)}
    eu = [index[u] for u, _ in pairs]
    ev = [index[v] for _, v in pairs]
    b = min(BLOCK_BITS, m)

    labels = np.arange(len(used), dtype=np.min_scalar_type(len(used)))[:, None]
    k = np.array([n], dtype=np.min_scalar_type(n))
    prod = np.ones(1, dtype=np.complex128)
    for j in range(b):
        merged, joined = _join(labels, eu[j], ev[j])
        labels = np.concatenate([labels, merged], axis=1)
        k = np.concatenate([k, k - joined])
        prod = np.concatenate([prod, prod * weights[j]])

    def walk(e, high, labels, k, prod):
        if e == m:
            yield high, k, prod
            return
        yield from walk(e + 1, high, labels, k, prod)
        merged, joined = _join(labels, eu[e], ev[e])
        yield from walk(e + 1, high | 1 << (e - b), merged, k - joined, prod * weights[e])

    yield from walk(b, 0, labels, k, prod)


def _pairwise_reduce(blocks: np.ndarray) -> np.ndarray:
    """Tree-order sum of block rows; deterministic regardless of count."""
    cur = blocks
    while cur.shape[0] > 1:
        half = cur.shape[0] // 2
        nxt = cur[: 2 * half : 2] + cur[1 : 2 * half : 2]
        if cur.shape[0] % 2:
            nxt = np.vstack([nxt, cur[-1:]])
        cur = nxt
    return cur[0]


def z_coefficients(n: int, edges) -> np.ndarray:
    """Coefficients (ascending in q) of sum_A q^{k(A)} prod_{e in A} w_e.

    Raises OutOfDomain when a coefficient is not finite, which happens
    when the products of finite weights overflow.
    """
    pairs = [(u, v) for u, v, _ in edges]
    w = np.array([complex(x) for _, _, x in edges], dtype=np.complex128)
    nhigh = max(0, len(pairs) - BLOCK_BITS)
    blocks = np.zeros((1 << nhigh, n + 1), dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        for high, k, prod in _edge_subset_blocks(n, pairs, w):
            # group the products by k, keeping mask order, and sum each
            # group with numpy's pairwise summation
            grouped = prod[np.argsort(k, kind="stable")]
            start = 0
            for c, size in enumerate(np.bincount(k, minlength=n + 1).tolist()):
                blocks[high, c] = grouped[start:start + size].sum()
                start += size
        out = _pairwise_reduce(blocks)
    if not np.isfinite(out).all():
        raise OutOfDomain("a partition-function coefficient overflows floating point")
    return out


# Unit roundoff of binary64, and a bound on the relative rounding error of
# one complex product (sqrt(5) u for the textbook formula, rounded up).
_U = 2.0 ** -53
_MUL = 3.0 * _U
# The float table is kept only if every entry's rounding bound is at most
# this share of its modulus; otherwise the whole graph is redone exactly.
CANCEL_TOL = 1e-12
_TABLE_OVERFLOW = "a connected-subgraph value overflows floating point"


class _Gauss:
    """Exact Gaussian rational re + i*im with Fraction parts."""

    __slots__ = ("re", "im")

    def __init__(self, re: Fraction, im: Fraction):
        self.re = re
        self.im = im

    def __mul__(self, other: "_Gauss") -> "_Gauss":
        return _Gauss(self.re * other.re - self.im * other.im,
                      self.re * other.im + self.im * other.re)

    def __sub__(self, other: "_Gauss") -> "_Gauss":
        return _Gauss(self.re - other.re, self.im - other.im)

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))


def _induced_connected(n: int, edges) -> list[bool]:
    """Per vertex mask: True iff its induced nonzero-weight edges connect it.

    Singletons count as connected and the empty mask does not.  A mask
    that fails has C = 0 exactly, since every edge subset connecting it
    must use an edge of weight zero.
    """
    adj = [0] * n
    for u, v, w in edges:
        if w != 0:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    out = [False] * (1 << n)
    for s in range(1, 1 << n):
        reach = frontier = s & -s
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            new = adj[low.bit_length() - 1] & s & ~reach
            reach |= new
            frontier |= new
        out[s] = reach == s
    return out


def _support_products(n: int, edges, one, lift) -> list:
    """F(S) = prod over edges inside S of lift(w), for every vertex mask S.

    Each mask extends the mask without its lowest vertex a by the factors
    of the edges joining a to the rest, so every edge factor is used once.
    """
    by_low: list[list] = [[] for _ in range(n)]
    for u, v, w in edges:
        a, b = (u, v) if u < v else (v, u)
        by_low[a].append((b, lift(w)))
    f = [one] * (1 << n)
    for s in range(1, 1 << n):
        low = s & -s
        rest = s ^ low
        acc = f[rest]
        for b, x in by_low[low.bit_length() - 1]:
            if rest >> b & 1:
                acc = acc * x
        f[s] = acc
    return f


def _proper_subsets_with_low(s: int):
    """Yield (T, S minus T) for every T strictly inside S holding low(S)."""
    low = s & -s
    rest = s ^ low
    sub = rest
    while sub:
        sub = (sub - 1) & rest
        yield low | sub, rest ^ sub


def _float_table(n: int, edges, conn: list[bool]) -> list[complex] | None:
    """C by the set-partition recursion in floats, or None on cancellation.

    Alongside each C(S) runs a first-order bound on its rounding error,
    propagated from the errors of the C(T) and F(S minus T) it is built
    from plus one rounding per product and per subtraction.  The moduli
    in the bound are never subtracted, so cancellation in C(S) shows as a
    bound large against |C(S)|.  A non-finite table (overflow or
    non-finite weights) is returned as it is, since no comparison flags
    NaN; connected_by_support rejects it.
    """
    f = _support_products(n, edges, 1.0 + 0j, lambda w: 1.0 + w)
    a_f = [abs(x) for x in f]
    rel_f = len(edges) * (_U + _MUL)
    c = [0j] * (1 << n)
    # per connected T: the factor of |F(S minus T)| in the error of C(T)F(S minus T)
    w_c = [0.0] * (1 << n)
    for s in range(1, 1 << n):
        if not conn[s]:
            continue
        acc = f[s]  # a singleton has no T and keeps F = 1
        err = rel_f * a_f[s]
        for t, r in _proper_subsets_with_low(s):
            if conn[t]:
                acc -= c[t] * f[r]
                err += w_c[t] * a_f[r] + _U * abs(acc)
        mod = abs(acc)
        if err > CANCEL_TOL * mod:
            return None
        c[s] = acc
        w_c[s] = (_MUL + rel_f) * mod + (1.0 + rel_f) * err
    return c


def _exact_table(n: int, edges, conn: list[bool]) -> list[complex]:
    """The same recursion in exact Gaussian rationals, rounded at the end.

    Float weights are binary rationals, so this is C for the graph exactly
    as given, correctly rounded per component.
    """
    f = _support_products(
        n, edges, _Gauss(Fraction(1), Fraction(0)),
        lambda w: _Gauss(1 + Fraction(w.real), Fraction(w.imag)),
    )
    c = [None] * (1 << n)
    for s in range(1, 1 << n):
        if not conn[s]:
            continue
        acc = f[s]
        for t, r in _proper_subsets_with_low(s):
            if conn[t]:
                acc = acc - c[t] * f[r]
        c[s] = acc
    return [0j if x is None else complex(x) for x in c]


def connected_by_support(n: int, edges) -> np.ndarray:
    """For every vertex bitmask S, C(S): the sum of prod w_e over edge
    subsets whose endpoint support is exactly S and which connect S.

    Computed over vertex subsets in O(3^n) time whatever the edge count.
    With F(S) = prod over edges inside S of (1 + w_e) and C({v}) = 1,

        C(S) = F(S) - sum over T strictly inside S holding low(S) of C(T) F(S minus T),

    since F(S) sums over the partitions of S the products of C over the
    blocks; T is the block holding the lowest vertex.  Masks whose
    induced subgraph is disconnected (by nonzero weights) get an exact 0,
    singletons get 0 (an edge always touches two vertices) and so does
    the empty mask.  The subtraction can cancel catastrophically when
    heavy and light weights mix, so the float pass carries a rounding
    bound per mask; if any bound exceeds CANCEL_TOL times |C(S)|, the
    table is recomputed in exact rational arithmetic.  Raises OutOfDomain
    when a value does not fit in floating point.
    """
    conn = _induced_connected(n, edges)
    table = _float_table(n, edges, conn)
    if table is None:
        try:
            table = _exact_table(n, edges, conn)
        except OverflowError:
            raise OutOfDomain(_TABLE_OVERFLOW) from None
    out = np.asarray(table, dtype=np.complex128)
    for v in range(n):
        out[1 << v] = 0
    if not np.isfinite(out).all():
        raise OutOfDomain(_TABLE_OVERFLOW)
    return out
