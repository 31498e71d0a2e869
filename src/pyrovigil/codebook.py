"""Visual vocabulary: k-means codebook, exact brute-force neighbor index,
Gaussian soft assignment, and bag-of-words encoding of descriptor sets.

Neighbor queries are exact: distances are computed with the same
expression as the linear-scan oracle used in tests, and ties in distance
are broken toward the lower center index, so the index and the oracle
agree bit for bit.
"""

import hashlib
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataError

CODEBOOK_MAGIC = b"PVCB"
CODEBOOK_VERSION = 1


@dataclass
class Codebook:
    centers: np.ndarray  # (k, dim)
    sigma: float
    sse_trace: np.ndarray = field(default_factory=lambda: np.zeros(0))

    @property
    def k(self) -> int:
        return self.centers.shape[0]

    @property
    def dim(self) -> int:
        return self.centers.shape[1]

    def fingerprint(self) -> bytes:
        return hashlib.sha256(_serialize(self)).digest()


@dataclass(frozen=True)
class EncoderParams:
    m: int = 10
    sigma: float = 1.0

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"neighbor count m must be >= 1, got {self.m}")
        if not (math.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError(f"sigma must be finite and > 0, got {self.sigma}")


# ---------------------------------------------------------------------------
# k-means


# Values per block of the blocked passes below (256 KB of float64): a
# block and its companion buffer stay in a core's cache, where the
# whole-array temporaries of a one-expression pass would not.
_BLOCK_VALUES = 1 << 15


def squared_distances(X, Y, xx=None):
    """(nx, ny) squared Euclidean distances (|x|^2 + |y|^2) - 2 x.y between
    the rows of X and of Y, floored at 0. `xx`, when given, is X's
    `(X * X).sum(axis=1)`, summed once by a caller that reuses X.

    One `X @ Y.T` product; the rest is evaluated in blocks of rows written
    into the product itself, with the operand order of the one expression,
    so the bits are those of the expression."""
    d2 = X @ Y.T
    xx = (X * X).sum(axis=1) if xx is None else xx
    yy = (Y * Y).sum(axis=1)
    nx, ny = d2.shape
    rows = max(1, _BLOCK_VALUES // max(1, ny))
    norms = np.empty((min(nx, rows), ny))
    for s in range(0, nx, rows):
        block = d2[s : s + rows]
        part = norms[: block.shape[0]]
        np.add(xx[s : s + rows, None], yy, out=part)
        block *= 2.0
        np.subtract(part, block, out=block)
        np.maximum(block, 0.0, out=block)
    return d2


def _assign_points(X, C):
    n = X.shape[0]
    k = C.shape[0]
    assign = np.empty(n, dtype=np.int64)
    best = np.empty(n, dtype=np.float64)
    chunk = max(1, (1 << 22) // max(1, k))
    for s in range(0, n, chunk):
        e = min(n, s + chunk)
        d2 = squared_distances(X[s:e], C)
        a = d2.argmin(axis=1)
        assign[s:e] = a
        best[s:e] = d2[np.arange(e - s), a]
    return assign, best


def _rescore(X, c, out, block, idx):
    """out[j] = ((X[idx[j]] - c) ** 2).sum() for each j, in blocks of rows
    gathered into the buffer `block`."""
    m = out.shape[0]
    rows = block.shape[0]
    for s in range(0, m, rows):
        e = min(m, s + rows)
        part = block[: e - s]
        # idx is in range; "clip" writes straight into `part`, where
        # "raise" would copy through a buffer
        np.take(X, idx[s:e], axis=0, out=part, mode="clip")
        np.subtract(part, c, out=part)
        np.square(part, out=part)
        part.sum(axis=1, out=out[s:e])
    return out


def _plusplus_seed(X, k, rng):
    """k-means++ seeding: each next center is drawn with probability
    proportional to d2, a point's squared distance to its nearest chosen
    center, its owner. Points that a new center provably cannot come nearer
    to are skipped; the rest are rescored with ((x - c) ** 2).sum(), so every
    d2 value, and so every draw, has the bits of a full pass."""
    n, dim = X.shape
    eps = np.finfo(np.float64).eps
    # A sum of dim squared differences is within a relative g = (dim + 2) eps
    # of the exact squared distance. Let D_a be the sum for a point and its
    # owner, D_e for its owner and the new center, and skip the point when
    # D_e / q > D_a, with q = 4 (1 + s). Then the exact distances obey
    # e > 2 r a with r^2 = (1 + s)(1 - eps)(1 - g) / (1 + g), and by the
    # triangle inequality b >= e - a > (2r - 1) a >= r a for the new center,
    # whose sum is then at least D_a once r^2 >= (1 + g) / (1 - g). That
    # needs s >= 4g + eps + O(g^2); s = 8 (dim + 2) eps leaves a factor of
    # two. Underflow adds at most dim 2^-1074 to a sum, which the slack
    # absorbs for a D_a of 2^-900 or more; a point with a smaller D_a sits so
    # near its owner that a D_e of 2^-800 or more puts the new center farther
    # by far. An overflowed D_e proves nothing. So only a D_e in
    # [2^-800, inf) is used.
    q = 4.0 * (1.0 + 8.0 * (dim + 2) * eps)
    block = np.empty((min(n, max(1, _BLOCK_VALUES // max(1, dim))), dim))
    centers = np.empty((k, dim))
    d2 = np.empty(n)
    new = np.empty(n)
    probs = np.empty(n)
    owner = np.zeros(n, dtype=np.int64)
    centers[0] = X[int(rng.integers(n))]
    _rescore(X, centers[0], d2, block, np.arange(n))
    for i in range(1, k):
        np.divide(d2, d2.sum(), out=probs)
        c = centers[i]
        c[:] = X[int(rng.choice(n, p=probs))]
        apart = ((centers[:i] - c) ** 2).sum(axis=1)
        cutoff = np.where((apart >= 2.0**-800) & (apart < np.inf), apart / q, 0.0)
        live = np.flatnonzero(cutoff[owner] <= d2)
        nd = _rescore(X, c, new[: live.size], block, live)
        closer = nd < d2[live]
        moved = live[closer]
        d2[moved] = nd[closer]
        owner[moved] = i
    return centers


def kmeans(descriptors, k: int, iterations: int = 50, rng_seed: int = 0) -> Codebook:
    """Lloyd's algorithm with k-means++ seeding.

    Runs exactly `iterations` passes unless no assignment changes; empty
    clusters are re-seeded to the point currently farthest from its
    center. Raises when fewer than k (distinct) descriptors are given.
    The result carries the per-iteration SSE trace and sigma, the mean
    distance of the training points to their nearest final center.
    """
    X = np.ascontiguousarray(np.asarray(descriptors, dtype=np.float64))
    if X.ndim != 2:
        raise ValueError(f"descriptors must be 2-d, got shape {X.shape}")
    n = X.shape[0]
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    if n < k:
        raise ValueError(f"need at least k={k} descriptors, got {n}")
    if np.unique(X, axis=0).shape[0] < k:
        raise ValueError(
            f"need at least k={k} distinct descriptors to form k distinct centers"
        )

    rng = np.random.default_rng(rng_seed)
    C = _plusplus_seed(X, k, rng)
    trace = []
    prev = None
    for _ in range(iterations):
        assign, best = _assign_points(X, C)
        trace.append(float(best.sum()))
        if prev is not None and np.array_equal(assign, prev):
            break
        prev = assign
        counts = np.bincount(assign, minlength=k).astype(np.float64)
        # each center's sum adds its points in index order
        keys = (assign * X.shape[1])[:, None] + np.arange(X.shape[1])
        sums = np.bincount(keys.ravel(), X.ravel(), k * X.shape[1]).reshape(C.shape)
        nonempty = counts > 0
        C[nonempty] = sums[nonempty] / counts[nonempty, None]
        if not nonempty.all():
            avail = best.copy()
            for e in np.nonzero(~nonempty)[0]:
                far = int(avail.argmax())
                C[e] = X[far]
                avail[far] = -1.0

    C = _dedup_centers(X, C)
    assign, best = _assign_points(X, C)
    trace.append(float(best.sum()))
    sigma = float(np.sqrt(best).mean())
    return Codebook(C, sigma, sse_trace=np.asarray(trace))


def _dedup_centers(X, C):
    # duplicated centers can appear when duplicate descriptors dominate;
    # replace extras with the worst-fit points not already used as centers
    while True:
        _, first = np.unique(C, axis=0, return_index=True)
        dup = np.setdiff1d(np.arange(C.shape[0]), first)
        if dup.size == 0:
            return C
        _, best = _assign_points(X, C)
        order = np.argsort(-best, kind="stable")
        cursor = 0
        for e in dup:
            while cursor < order.size and best[order[cursor]] <= 0.0:
                cursor += 1
            if cursor >= order.size:
                raise ValueError("cannot form distinct centers from the data")
            C[e] = X[order[cursor]]
            cursor += 1


# ---------------------------------------------------------------------------
# neighbor index

# OpenBLAS multiplies on one thread while m * n * k <= 65536 *
# GEMM_MULTITHREAD_THRESHOLD (4 unless built otherwise)
_ONE_THREAD_MADDS = 65536 * 4


class NNIndex:
    """Exact m-nearest-neighbor index over codebook centers.

    One matrix product, |q|^2 + |c|^2 - 2 q.c, ranks every center for a
    whole batch of queries. That expansion is only accurate to a rounding
    bound, so it serves as a filter: each row keeps every center within
    the bound of its m-th smallest expanded distance, and the shortlist
    is rescored as ((c - q) ** 2).sum(), the expression of the
    linear-scan oracle, then ordered by (distance, lower index).

    The product is taken in blocks of rows and centers with at most
    `_ONE_THREAD_MADDS` multiply-adds each. OpenBLAS runs a product of that
    size on the calling thread; a larger one wakes its worker threads,
    which keep spinning on a CPU for a while after the call returns, so a
    stream that queries every few milliseconds would hold a second CPU.
    """

    def __init__(self, points: np.ndarray):
        self.points = np.ascontiguousarray(np.asarray(points, dtype=np.float64))
        if self.points.ndim != 2 or self.points.shape[0] == 0:
            raise ValueError("index needs a non-empty (k, dim) point matrix")
        self._sq = (self.points * self.points).sum(axis=1)
        self._points_t = np.ascontiguousarray(self.points.T)
        # With S = |q|^2 + max|c|^2: an expanded distance is within
        # (2 dim + 3) eps S of the exact one, the oracle's direct sum within
        # a relative (dim + 2) eps, and the m-th smallest distance is below
        # 2.1 S. So the oracle's m nearest lie within
        # 2 (2 dim + 3) eps S + 4.2 (dim + 2) eps S of the m-th smallest
        # expanded distance; 16 (dim + 4) eps S leaves a factor of two.
        self._slack = 16.0 * (self.points.shape[1] + 4) * np.finfo(np.float64).eps
        self._sq_max = float(self._sq.max())

    @property
    def size(self) -> int:
        return self.points.shape[0]

    def _dot_centers(self, Q):
        """Q @ points.T, one block of rows and centers per BLAS call."""
        n, dim = Q.shape
        out = np.empty((n, self.size))
        rows = max(1, min(n, 64))
        step = max(1, _ONE_THREAD_MADDS // (rows * max(1, dim)))
        for r in range(0, n, rows):
            for s in range(0, self.size, step):
                np.matmul(
                    Q[r : r + rows],
                    self._points_t[:, s : s + step],
                    out=out[r : r + rows, s : s + step],
                )
        return out

    def query_batch(self, Q: np.ndarray, m: int):
        """m nearest centers of each row of Q: (indices, distances), each
        (n, m), rows ascending by distance with ties to the lower index."""
        if not 1 <= m <= self.size:
            raise ValueError(f"m must be in [1, {self.size}], got {m}")
        Q = np.ascontiguousarray(np.asarray(Q, dtype=np.float64))
        q2 = (Q * Q).sum(axis=1)
        approx = q2[:, None] + self._sq - 2.0 * self._dot_centers(Q)
        cand = np.argpartition(approx, m - 1, axis=1)
        kth = np.take_along_axis(approx, cand[:, m - 1 : m], axis=1)
        limit = kth + self._slack * (q2[:, None] + self._sq_max)
        width = int((approx <= limit).sum(axis=1).max(initial=m))
        # the m smallest are the only candidates of every row, unless some
        # row has more within the slack
        if width > m:
            cand = np.argpartition(approx, width - 1, axis=1)
        cand = cand[:, :width]
        d2 = ((self.points[cand] - Q[:, None, :]) ** 2).sum(axis=2)
        order = np.lexsort((cand, d2), axis=1)[:, :m]
        idx = np.take_along_axis(cand, order, axis=1)
        return idx, np.sqrt(np.take_along_axis(d2, order, axis=1))


# ---------------------------------------------------------------------------
# soft assignment and encoding


def gaussian_kernel(x, sigma):
    """K(x) = exp(-x^2 / (2 sigma^2)) / sqrt(2 pi sigma)."""
    return np.exp(-0.5 * (x * x) / (sigma * sigma)) / math.sqrt(2.0 * math.pi * sigma)


def _soft_weights(dists, sigma):
    """Rows of normalized kernel weights; a fully-underflowed row falls
    back to full weight on its nearest neighbor."""
    k_vals = gaussian_kernel(dists, sigma)
    sums = k_vals.sum(axis=1)
    dead = sums == 0.0
    if dead.any():
        k_vals[dead] = 0.0
        k_vals[dead, 0] = 1.0
        sums = k_vals.sum(axis=1)
    return k_vals / sums[:, None]


def encode(descriptors, counts, nn_index: NNIndex, params: EncoderParams, global_hists):
    """(n, k + 96) feature rows, one per blob: blob i owns the next
    `counts[i]` rows of the (sum(counts), dim) descriptors. A row is the
    blob's soft-assignment weights accumulated into a k-bin histogram
    (pre-normalization mass equals its descriptor count) and
    L1-normalized, followed by the blob's row of the (n, 96) global
    histograms. Every blob is encoded from one neighbor query."""
    hist = raw_bow_histogram(descriptors, counts, nn_index, params)
    bow = hist / hist.sum(axis=1, keepdims=True)
    return np.concatenate([bow, np.asarray(global_hists, dtype=np.float64)], axis=1)


def raw_bow_histogram(descriptors, counts, nn_index: NNIndex, params: EncoderParams):
    """(n, k) un-normalized accumulations of the soft-assignment weights of
    each blob's descriptor rows, blob i owning the next `counts[i]`."""
    D = np.ascontiguousarray(descriptors, dtype=np.float64)
    counts = np.asarray(counts, dtype=np.int64)
    if counts.sum() != D.shape[0]:
        raise ValueError(f"counts cover {counts.sum()} descriptors, got {D.shape[0]}")
    if (counts < 1).any():
        raise ValueError("empty blob: no descriptors to encode")
    idx, dist = nn_index.query_batch(D, params.m)
    w = _soft_weights(dist, params.sigma)
    # one bincount over (blob, word); each bin adds its weights in row order
    k = nn_index.size
    keys = idx + (np.repeat(np.arange(counts.size), counts) * k)[:, None]
    return np.bincount(keys.ravel(), w.ravel(), counts.size * k).reshape(-1, k)


# ---------------------------------------------------------------------------
# file format


def _serialize(cb: Codebook) -> bytes:
    head = CODEBOOK_MAGIC + struct.pack(
        "<III", CODEBOOK_VERSION, cb.k, cb.dim
    )
    body = np.ascontiguousarray(cb.centers, dtype="<f8").tobytes()
    return head + body + struct.pack("<d", cb.sigma)


def write_codebook(cb: Codebook, path) -> None:
    with open(path, "wb") as f:
        f.write(_serialize(cb))


def read_binary(path, what, magic, version, header):
    """(content, fields) of the `what` file at `path`, with the `header`
    struct after its 4-byte magic and u32 version; a fault is a DataError."""
    try:
        raw = Path(path).read_bytes()
    except OSError as e:
        raise DataError(f"cannot read {what} {path}: {e}") from None
    if raw[:4] != magic:
        raise DataError(f"{path}: bad {what} magic {raw[:4]!r}")
    if len(raw) < 8 + struct.calcsize(header):
        raise DataError(f"{path}: {what} is {len(raw)} bytes, shorter than its header")
    (found,) = struct.unpack_from("<I", raw, 4)
    if found != version:
        raise DataError(f"{path}: unsupported {what} version {found}")
    return raw, struct.unpack_from(header, raw, 8)


def read_codebook(path) -> Codebook:
    raw, (k, dim) = read_binary(path, "codebook", CODEBOOK_MAGIC, CODEBOOK_VERSION, "<II")
    if k == 0 or dim == 0:
        raise DataError(f"{path}: codebook has {k} words of {dim} values, needs one of each")
    need = 16 + k * dim * 8 + 8
    if len(raw) != need:
        raise DataError(f"{path}: codebook payload is {len(raw)} bytes, expected {need}")
    centers = np.frombuffer(raw, dtype="<f8", count=k * dim, offset=16)
    centers = centers.reshape(k, dim).astype(np.float64)
    (sigma,) = struct.unpack_from("<d", raw, 16 + k * dim * 8)
    if not np.isfinite(centers).all():
        raise DataError(f"{path}: codebook centers must be finite")
    if not (math.isfinite(sigma) and sigma > 0):
        raise DataError(f"{path}: codebook sigma must be finite and > 0, got {sigma}")
    return Codebook(centers, sigma)

