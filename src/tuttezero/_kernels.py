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

The walk is two generators that visit the blocks in the same order.  The
weight-free one joins labels, carries the component counts k and yields
each block's gather plan (_gather_plan): the stable order that sorts its
masks by k, with a sentinel slot ahead of the masks of each count, and
the slots where the counts' segments start.  The other only multiplies
weights into the products.  A plan depends only on the edge structure,
which the sweeps and analyze-wide revisit, so the plans of a structure
with at most CACHED_HIGH_EDGES edges past the first block (16 blocks)
are cached whole; a larger one (17 to 24 edges) is streamed block by
block and cached nowhere, since its plans would take up to 34 MB.

A join relabels the class of v with the label of u, which is the label of
a vertex in u's class, so every class keeps the label of one of its own
vertices.  The component count of a mask is therefore the number of
vertices that carry their own label, plus the vertices no edge touches;
the first block counts them once, from its final labels.

Each block's products are gathered by its plan in one take, the
sentinel slots are set to +0.0, and one np.add.reduceat sums every
count's segment.  reduceat seeds a segment with its first element, so
without the +0.0 lead its sums would differ in the last bits from those
of np.add.reduce, which starts from +0.0; with it they are the same bit
for bit, since the rest of the segment goes through the same pairwise
summation.  A count that no mask has sums to +0.0 from its sentinel
alone.  The sentinels are written after the gather, not carried through
the products, where 0 w can turn into -0.0.  The block sums are then
reduced pairwise in order of their high edges, which keeps the summation
order deterministic and the rounding error logarithmic in the number of
blocks.

The weights may come as rows, one per graph of one edge structure
(z_coefficient_rows): a pass walks the plans once for all its rows.
Each row's products lie contiguous in memory, and the gather and the
per-count sums run along them, so every row gets the bits of its own
single-row call (z_coefficients).  A pass takes rows until they walk
ROW_SUBSETS = 2^16 edge subsets between them, so its products take at
most 1 MB; a core of 16 edges or more goes one row a pass.  A single
row keeps 1-D arrays, whose numpy calls cost less than 2-D ones.

connected_by_support works over vertex subsets instead, in O(3^n) time
for any number of edges, by the Fortuin-Kasteleyn set-partition recursion
(Bjorklund, Husfeldt, Kaski and Koivisto, "Computing the Tutte polynomial
in vertex-exponential time", arXiv:0711.2585).  Its subtraction can cancel,
so the float pass carries a rounding bound per vertex subset and falls
back to exact arithmetic, in Gaussian integers scaled by a power of two,
when a bound is not small against the value it bounds.  Both passes
walk the T inside S that hold low(S) inline, by the decreasing submask
loop sub = (sub - 1) & rest, so T comes in decreasing order; the
polymer DPs read their subsets from a cached plan instead (see polymer),
since they walk only the masks of one table.  Which vertex masks their
nonzero-weight edges connect is cached per vertex count and edge
support (_connected_masks), which the multigraphs of one skeleton share.
It shares nothing with the edge engine, so the polymer identity compares
two independent routes.
"""

from __future__ import annotations

import functools

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

# A structure with at most this many edges past the first block has the
# plans of all its blocks cached; past it they are streamed.
CACHED_HIGH_EDGES = 4


def _join(labels: np.ndarray, u: int, v: int) -> np.ndarray:
    """Add edge uv to every mask of a vertex-class label matrix.

    labels[x, i] is the class of vertex x in mask i.  Returns the new
    labels, where the class of v becomes the class of u.  The labels are
    unsigned, so the arithmetic wraps and lands exactly on the class of u.
    """
    a = labels[u]
    b = labels[v]
    return labels + (labels == b) * (a - b)


def _gather_plan(k: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(gather, starts) for a block whose masks have component counts k.

    One stable argsort of the keys 2k + 1 of the masks followed by 2c
    for c = 0..n orders the masks by k, in mask order within each k, with
    a sentinel slot ahead of the masks of each count c.  starts holds the
    slots of the sentinels, where the segments of the counts begin.  A
    sentinel gathers mask 0, and _z_sums writes +0.0 over it.  The keys
    share k's dtype, a byte wide for n up to 127: numpy's stable sort is
    a radix sort only for narrow integer keys.
    """
    size = len(k)
    keys = np.empty(size + n + 1, dtype=k.dtype)
    np.add(k, k, out=keys[:size])
    keys[:size] += 1
    keys[size:] = np.arange(0, 2 * n + 2, 2)
    gather = np.argsort(keys, kind="stable")
    starts = np.flatnonzero(gather >= size)
    gather[starts] = 0
    return gather, starts


def _plans(e, high, labels, k, b, eu, ev, n):
    """Yield (high, gather, starts) for every choice of the edges from e on.

    Depth first, without edge e before with it; (gather, starts) is the
    _gather_plan of the block's component counts k.  Past the last edge
    no label is read, so the last edge makes no join.  A module-level
    generator that takes its arrays as arguments, so a call leaves no
    reference cycle behind for the cyclic garbage collector.
    """
    if e == len(eu):
        yield (high,) + _gather_plan(k, n)
        return
    yield from _plans(e + 1, high, labels, k, b, eu, ev, n)
    joined = labels[eu[e]] != labels[ev[e]]
    after = _join(labels, eu[e], ev[e]) if e + 1 < len(eu) else None
    yield from _plans(e + 1, high | 1 << (e - b), after, k - joined, b, eu, ev, n)


def _blocks(n: int, pairs: tuple, b: int):
    """Yield the plan (high, gather, starts) of every block of one edge
    structure, the first block (high == 0) first.

    The first block is built by doubling over the first b edges; its
    component counts k count the vertices that keep their own label and
    the n - |used| vertices no edge touches.  k is wide enough for the
    keys 2k + 1 of _gather_plan.
    """
    used = sorted({x for p in pairs for x in p})
    index = {x: i for i, x in enumerate(used)}
    eu = tuple(index[u] for u, _ in pairs)
    ev = tuple(index[v] for _, v in pairs)
    own = np.arange(len(used), dtype=np.min_scalar_type(len(used)))[:, None]
    labels = own
    for j in range(b):
        labels = np.concatenate([labels, _join(labels, eu[j], ev[j])], axis=1)
    count_type = np.min_scalar_type(2 * n + 1)
    k = (labels == own).sum(axis=0, dtype=count_type) + count_type.type(n - len(used))
    yield from _plans(b, 0, labels, k, b, eu, ev, n)


@functools.lru_cache(maxsize=64)
def _layout(n: int, pairs: tuple, b: int) -> tuple:
    """Every block's plan for one edge structure, from _blocks.

    An entry holds one (high, gather, starts) per block and no labels or
    component counts, since the weights need only the plans.  gather
    takes 2 bytes for each of its 2^b + n + 1 slots at 12 low edges, and
    starts 8 bytes for each of its n + 1.  z_coefficients caches a
    structure only when at most CACHED_HIGH_EDGES edges lie past the
    first block, so an entry holds at most 16 plans: 16 x 8,322 bytes =
    133 KB at 12 vertices and 16 edges.  The cache is bounded by 64
    entries of about 133 KB, about 8.5 MB.

    verify_zero_free loops regime, then structure, then draw, so a
    structure comes back once per regime after every other one of the
    corpus, and analyze-wide passes over its cores again and again.  64
    entries hold every core of the sweeps to 5 vertices and of
    analyze-wide; the 99 cores to 6 vertices cycle past them.  The peak
    RSS of verify_polymer_identity(7, 4, 20), which meets cores of 13 to
    16 edges, went from 48.5 MB with first-block entries to 51.8 MB with
    whole entries (CPython 3.11, numpy 2.4).
    """
    narrow = np.min_scalar_type((1 << b) - 1)
    entry = []
    for high, gather, starts in _blocks(n, pairs, b):
        gather = gather.astype(narrow)
        gather.flags.writeable = False
        starts.flags.writeable = False
        entry.append((high, gather, starts))
    return tuple(entry)


def _products(e, prod, by_edge):
    """Yield the products of every block, in the order of _plans.

    Depth first, without edge e before with it, each product multiplied
    in increasing edge order.  by_edge[e] is edge e's weight: one number,
    or one per row, with prod indexed by mask first and row second.
    """
    if e == len(by_edge):
        yield prod
        return
    yield from _products(e + 1, prod, by_edge)
    yield from _products(e + 1, prod * by_edge[e], by_edge)


def _pairwise_reduce(blocks: np.ndarray) -> np.ndarray:
    """Tree-order sum of the block sums, in order of their high edges.

    There are always 1 << (m - b) blocks, a power of two, so every level
    pairs them all.
    """
    while len(blocks) > 1:
        blocks = blocks[0::2] + blocks[1::2]
    return blocks[0]


Z_OVERFLOW = "a partition-function coefficient overflows floating point"

# The rows of one engine pass walk at most this many edge subsets between
# them, so that its products take at most 1 MB (16 bytes a subset).
ROW_SUBSETS = 1 << 16


def _z_sums(n: int, pairs: tuple, w: np.ndarray) -> np.ndarray:
    """The engine: Z's coefficients for one weight row w (edges,), or for
    each row of w (rows x edges), as an array of the same rank.

    Every row's products are contiguous, so its gathers and per-count sums
    are those of a single row, and each row keeps the bits it gets on its
    own.  The products are handled through views indexed by mask first,
    so that one row takes the plain 1-D indexing of numpy's cheapest
    calls.
    """
    b = min(BLOCK_BITS, len(pairs))
    if len(pairs) - b <= CACHED_HIGH_EDGES:
        plans = _layout(n, pairs, b)
    else:
        plans = _blocks(n, pairs, b)
    rows = w.shape[:-1]
    by_edge = w.T
    blocks = np.empty((1 << len(pairs) - b,) + rows + (n + 1,), dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        # the products of the first block, each in increasing edge order
        prod = np.empty(rows + (1 << b,), dtype=np.complex128).T
        prod[0] = 1
        for j in range(b):
            np.multiply(prod[:1 << j], by_edge[j], out=prod[1 << j:2 << j])
        for (high, gather, starts), block_prod in zip(plans, _products(b, prod, by_edge)):
            # each row's products grouped by k in mask order, each group
            # led by a +0.0, on which reduceat sums it as np.add.reduce
            # would, with numpy's pairwise summation
            grouped = block_prod.T.take(gather, -1)
            grouped[..., starts] = 0
            np.add.reduceat(grouped, starts, axis=-1, out=blocks[high])
        out = _pairwise_reduce(blocks)
    if not np.isfinite(out).all():
        raise OutOfDomain(Z_OVERFLOW)
    return out


def z_coefficients(n: int, edges, pairs: tuple | None = None) -> np.ndarray:
    """Coefficients (ascending in q) of sum_A q^{k(A)} prod_{e in A} w_e.

    pairs, if given, is the tuple of the edges' endpoint pairs, in edge
    order; a caller that holds it already hands it over rather than have
    it built again.  Raises OutOfDomain when a coefficient is not finite,
    which happens when the products of finite weights overflow.
    """
    if pairs is None:
        pairs = tuple((u, v) for u, v, _ in edges)
    w = np.array([complex(x) for _, _, x in edges], dtype=np.complex128)
    return _z_sums(n, pairs, w)


def z_coefficient_rows(n: int, pairs: tuple, weights) -> np.ndarray:
    """z_coefficients for many weightings of one edge structure: row i of
    the result has the coefficients, and the bits, that z_coefficients
    gives for the weights in row i of weights (rows x edges).

    The rows share one walk over the structure's plans; they go
    through the engine in passes of at most ROW_SUBSETS edge subsets in
    all, one row per pass from 2^16 subsets on.  Raises OutOfDomain when
    any row overflows.
    """
    w = np.array(weights, dtype=np.complex128)
    step = max(1, ROW_SUBSETS >> len(pairs))
    return np.concatenate([_z_sums(n, pairs, w[i:i + step])
                           for i in range(0, len(w), step)])


# Unit roundoff of binary64, and a bound on the relative rounding error of
# one complex product (sqrt(5) u for the textbook formula, rounded up).
_U = 2.0 ** -53
_MUL = 3.0 * _U
# The float table is kept only if every entry's rounding bound is at most
# this share of its modulus; otherwise the whole graph is redone exactly.
CANCEL_TOL = 1e-12
_TABLE_OVERFLOW = "a connected-subgraph value overflows floating point"


def _induced_connected(n: int, edges) -> tuple[bool, ...]:
    """Per vertex mask: True iff its induced nonzero-weight edges connect it.

    Singletons count as connected and the empty mask does not.  A mask
    that fails has C = 0 exactly, since every edge subset connecting it
    must use an edge of weight zero.  The answer depends only on n and
    the distinct vertex pairs joined by a nonzero weight, so it comes
    from _connected_masks, which parallel edges share.
    """
    support = {(u, v) if u < v else (v, u) for u, v, w in edges if w != 0}
    return _connected_masks(n, tuple(sorted(support)))


@functools.lru_cache(maxsize=64)
def _connected_masks(n: int, support: tuple) -> tuple[bool, ...]:
    """_induced_connected for the sorted vertex pairs support.

    An entry is a tuple of 2^n of the two shared bools, at most 2^12
    entries at the vertex-subset cap (32 KB of pointers), so the 64
    entries take at most about 2 MB.  A polymer sweep unit to 5 vertices
    with multigraphs to 4 meets 31 supports.
    """
    adj = [0] * n
    for u, v in support:
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
    return tuple(out)


def _support_products(n: int, edges) -> list[complex]:
    """F(S) = prod over edges inside S of (1 + w), for every vertex mask S.

    Each mask extends the mask without its lowest vertex a by the factors
    of the edges joining a to the rest, so every edge factor is used once.
    """
    by_low: list[list] = [[] for _ in range(n)]
    for u, v, w in edges:
        a, b = (u, v) if u < v else (v, u)
        by_low[a].append((b, 1.0 + w))
    f = [1.0 + 0j] * (1 << n)
    for s in range(1, 1 << n):
        low = s & -s
        rest = s ^ low
        acc = f[rest]
        for b, x in by_low[low.bit_length() - 1]:
            if rest >> b & 1:
                acc = acc * x
        f[s] = acc
    return f


def _float_table(n: int, edges, conn: tuple[bool, ...]) -> list[complex] | None:
    """C by the set-partition recursion in floats, or None on cancellation.

    Alongside each C(S) runs a first-order bound on its rounding error,
    propagated from the errors of the C(T) and F(S minus T) it is built
    from plus one rounding per product and per subtraction.  The moduli
    in the bound are never subtracted, so cancellation in C(S) shows as a
    bound large against |C(S)|.  A table with a non-finite entry (a
    product that overflows) is returned as it is, since no comparison
    flags NaN, and abs() raises OverflowError on finite parts whose
    modulus overflows; connected_by_support turns both into OutOfDomain.
    """
    f = _support_products(n, edges)
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
        # T = low | sub for every sub strictly inside rest, in decreasing sub
        low = s & -s
        rest = sub = s ^ low
        while sub:
            sub = (sub - 1) & rest
            t = low | sub
            if conn[t]:
                r = rest ^ sub
                acc -= c[t] * f[r]
                err += w_c[t] * a_f[r] + _U * abs(acc)
        mod = abs(acc)
        if err > CANCEL_TOL * mod:
            return None
        c[s] = acc
        w_c[s] = (_MUL + rel_f) * mod + (1.0 + rel_f) * err
    return c


def _scaled(x: float, s: int) -> int:
    """2^s x as an integer, for a float x with at most s fractional bits."""
    num, den = x.as_integer_ratio()
    return num << (s + 1 - den.bit_length())


def _exact_table(n: int, edges, conn: tuple[bool, ...]) -> list[complex]:
    """The same recursion in exact scaled Gaussian integers, rounded at the end.

    Float weights are binary rationals.  With s the most fractional bits
    in any weight's real or imaginary part, 2^s w is a Gaussian integer,
    and so is 2^s (1 + w), whose real part gains 1 << s.  Each value over
    a vertex mask S is kept scaled by 2^(s e(S)), e(S) the number of
    edges inside S: F(S) multiplies the lifted weights of those edges,
    and C(T) F(S minus T) lacks the edges between T and S minus T, so it
    is shifted left by s times their number.  Each entry is rounded once,
    by int/int true division, which Python rounds correctly, so this is C
    for the graph exactly as given, correctly rounded per component.  A
    value beyond the float range raises OverflowError.
    """
    s = max((x.as_integer_ratio()[1].bit_length() - 1
             for _, _, w in edges for x in (w.real, w.imag)), default=0)
    by_low: list[list] = [[] for _ in range(n)]
    for u, v, w in edges:
        a, b = (u, v) if u < v else (v, u)
        by_low[a].append((b, _scaled(w.real, s) + (1 << s), _scaled(w.imag, s)))
    size = 1 << n
    # F(S) = f_re + i f_im, scaled by 2^(s e(S)); built as in _support_products
    f_re, f_im, e = [1] * size, [0] * size, [0] * size
    for m in range(1, size):
        low = m & -m
        rest = m ^ low
        x, y, k = f_re[rest], f_im[rest], e[rest]
        for b, p, q in by_low[low.bit_length() - 1]:
            if rest >> b & 1:
                x, y, k = x * p - y * q, x * q + y * p, k + 1
        f_re[m], f_im[m], e[m] = x, y, k
    c_re, c_im = [0] * size, [0] * size
    out = [0j] * size
    for m in range(1, size):
        if not conn[m]:
            continue
        x, y = f_re[m], f_im[m]
        low = m & -m
        rest = sub = m ^ low
        while sub:  # the T of _float_table, in its order
            sub = (sub - 1) & rest
            t = low | sub
            if conn[t]:
                r = rest ^ sub
                shift = s * (e[m] - e[t] - e[r])
                a, b, p, q = c_re[t], c_im[t], f_re[r], f_im[r]
                x -= (a * p - b * q) << shift
                y -= (a * q + b * p) << shift
        c_re[m], c_im[m] = x, y
        scale = 1 << s * e[m]
        out[m] = complex(x / scale, y / scale)
    return out


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
    table is recomputed in exact scaled-integer arithmetic.  Raises
    OutOfDomain when a value, or its modulus, does not fit in floating
    point.
    """
    conn = _induced_connected(n, edges)
    try:
        table = _float_table(n, edges, conn)
        if table is None:
            table = _exact_table(n, edges, conn)
    except OverflowError:
        raise OutOfDomain(_TABLE_OVERFLOW) from None
    for v in range(n):
        table[1 << v] = 0j
    out = np.asarray(table, dtype=np.complex128)
    if not np.isfinite(np.abs(out)).all():
        raise OutOfDomain(_TABLE_OVERFLOW)
    return out
