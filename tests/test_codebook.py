import math
import struct

import numpy as np
import pytest

from pyrovigil import codebook
from pyrovigil.codebook import (
    _BLOCK_VALUES,
    _ONE_THREAD_MADDS,
    Codebook,
    EncoderParams,
    NNIndex,
    _dedup_centers,
    _soft_weights,
    encode,
    gaussian_kernel,
    kmeans,
    raw_bow_histogram,
    read_codebook,
    squared_distances,
    write_codebook,
)
from pyrovigil.errors import DataError
from pyrovigil.features import SamplingPlan
from pyrovigil.synth import fire_patch, nonfire_patch

from oracles import plusplus_seed_loop, squared_distances_expr
from test_features import sample_whole


def brute_force_nn(points, q, m):
    """Linear-scan oracle; ties broken toward the lower index."""
    d2 = ((points - q) ** 2).sum(axis=1)
    order = np.lexsort((np.arange(points.shape[0]), d2))[:m]
    return order, np.sqrt(d2[order])


def soft_weights(idx, descriptor, m, sigma):
    """(center indices, weights) of one descriptor: a one-row
    `query_batch` call and its row of soft-assignment weights."""
    got, dist = idx.query_batch(descriptor[None], m)
    return got[0], _soft_weights(dist, sigma)[0]


def encode_oracle(descriptors, centers, m, sigma):
    """Eq-by-eq accumulation without the index: linear-scan neighbors,
    scalar kernel evaluations, plain Python sums."""
    hist = np.zeros(centers.shape[0])
    for d in descriptors:
        idx, dist = brute_force_nn(centers, d, m)
        kv = [
            math.exp(-0.5 * x * x / (sigma * sigma)) / math.sqrt(2 * math.pi * sigma)
            for x in dist
        ]
        total = sum(kv)
        if total == 0.0:
            hist[idx[0]] += 1.0
            continue
        for i, k in zip(idx, kv):
            hist[i] += k / total
    return hist


class TestKMeans:
    def test_k_equals_n_centers_are_points(self, rng):
        X = rng.normal(size=(6, 4))
        book = kmeans(X, 6, iterations=10, rng_seed=0)
        got = sorted(map(tuple, np.round(book.centers, 9)))
        want = sorted(map(tuple, np.round(X, 9)))
        assert got == want

    def test_two_separated_groups(self):
        X = np.array(
            [[0.0, 0.001], [0.001, 0.0], [1000.0, 1000.001], [1000.001, 1000.0]]
        )
        for seed in range(20):
            book = kmeans(X, 2, iterations=20, rng_seed=seed)
            centers = sorted(map(tuple, book.centers))
            assert np.allclose(centers[0], X[:2].mean(axis=0), atol=1e-9)
            assert np.allclose(centers[1], X[2:].mean(axis=0), atol=1e-9)

    def test_sse_non_increasing(self, rng):
        X = rng.normal(size=(100, 8))
        book = kmeans(X, 5, iterations=30, rng_seed=1)
        trace = book.sse_trace
        assert len(trace) >= 2
        assert np.all(np.diff(trace) <= 1e-9)

    def test_too_few_descriptors(self, rng):
        with pytest.raises(ValueError, match="at least k"):
            kmeans(rng.normal(size=(4, 8)), 5)

    def test_duplicates_still_yield_distinct_centers(self, rng):
        base = rng.normal(size=(6, 3))
        X = np.concatenate([np.repeat(base[:1], 50, axis=0), base])
        book = kmeans(X, 6, iterations=15, rng_seed=2)
        assert np.unique(book.centers, axis=0).shape[0] == 6

    def test_dedup_replaces_duplicates_with_worst_fit_points(self):
        # squared distances to the nearest center (0, 0) or (7, 0):
        # 0, 1, 0, 9, 9, 4; each duplicate, in index order, takes the
        # farthest point left, the lower index first on a tie
        X = np.array([[0, 0], [1, 0], [7, 0], [3, 0], [-3, 0], [-2, 0]], dtype=float)
        C = np.array([[0, 0], [0, 0], [7, 0], [0, 0], [0, 0]], dtype=float)
        got = _dedup_centers(X, C.copy())
        assert got.tolist() == [[0, 0], [3, 0], [7, 0], [-3, 0], [-2, 0]]
        # a worst-fit point repeated in the data becomes a duplicate center
        # in turn, and the next pass replaces it by a point not yet used
        X = np.array([[0, 0], [1, 0], [7, 0], [3, 0], [3, 0], [-2, 0]], dtype=float)
        C = np.array([[0, 0], [0, 0], [7, 0], [0, 0]], dtype=float)
        got = _dedup_centers(X, C.copy())
        assert got.tolist() == [[0, 0], [3, 0], [7, 0], [-2, 0]]

    def test_dedup_without_a_point_left_raises(self):
        # every point already sits on a center: no distance is positive
        X = np.array([[0, 0], [1, 0], [1, 0], [0, 0]], dtype=float)
        C = np.array([[0, 0], [1, 0], [1, 0]], dtype=float)
        with pytest.raises(ValueError, match="cannot form distinct centers from the data"):
            _dedup_centers(X, C)

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one(self, rng, k):
        with pytest.raises(ValueError, match="k must be >= 1"):
            kmeans(rng.normal(size=(4, 8)), k)

    def test_not_enough_distinct(self):
        X = np.tile(np.array([[1.0, 2.0]]), (10, 1))
        with pytest.raises(ValueError, match="distinct"):
            kmeans(X, 3)

    def test_runs_exactly_requested_iterations(self, rng):
        # hard data (k far below structure) does not converge in 3 passes,
        # so the trace holds one SSE per iteration plus the final pass
        X = rng.normal(size=(400, 6))
        book = kmeans(X, 12, iterations=3, rng_seed=0)
        assert len(book.sse_trace) == 4

    def test_early_stop_on_stable_assignment(self):
        X = np.array([[0.0, 0.0], [0.1, 0.0], [10.0, 10.0], [10.1, 10.0]])
        book = kmeans(X, 2, iterations=50, rng_seed=0)
        # converges almost immediately: far fewer trace entries than 51
        assert len(book.sse_trace) < 10

    def test_seed_reproducible(self, rng):
        X = rng.normal(size=(80, 8))
        a = kmeans(X, 7, iterations=15, rng_seed=9)
        b = kmeans(X, 7, iterations=15, rng_seed=9)
        assert a.centers.tobytes() == b.centers.tobytes()
        assert a.sigma == b.sigma

    def test_sigma_is_mean_nearest_distance(self, rng):
        X = rng.normal(size=(60, 5))
        book = kmeans(X, 4, iterations=20, rng_seed=3)
        d2 = ((X[:, None, :] - book.centers[None]) ** 2).sum(axis=2)
        assert abs(book.sigma - np.sqrt(d2.min(axis=1)).mean()) <= 1e-9


def bits(a):
    return np.ascontiguousarray(np.asarray(a, dtype=np.float64)).view(np.uint64)


def kmeans_with(monkeypatch, X, k, iterations, seed, oracle, initial=None):
    """(seeded centers, codebook) of one `kmeans` run, with the oracle seeding
    loop and one-expression `squared_distances` patched in when `oracle`.
    `initial` replaces the seeding with fixed centers."""
    seeded = []
    seed_fn = plusplus_seed_loop if oracle else codebook._plusplus_seed

    def recorded(X, k, rng):
        C = seed_fn(X, k, rng) if initial is None else initial.copy()
        seeded.append(C.copy())
        return C

    with monkeypatch.context() as m:
        m.setattr(codebook, "_plusplus_seed", recorded)
        if oracle:
            m.setattr(codebook, "squared_distances", squared_distances_expr)
        book = kmeans(X, k, iterations, seed)
    return seeded[0], book


def assert_same_kmeans(monkeypatch, X, k, iterations, seed, initial=None):
    want_seed, want = kmeans_with(monkeypatch, X, k, iterations, seed, True, initial)
    got_seed, got = kmeans_with(monkeypatch, X, k, iterations, seed, False, initial)
    assert np.array_equal(bits(got_seed), bits(want_seed))
    assert np.array_equal(bits(got.centers), bits(want.centers))
    assert np.array_equal(bits(got.sigma), bits(want.sigma))
    assert np.array_equal(bits(got.sse_trace), bits(want.sse_trace))


def clustered(rng, n, dim, groups):
    centers = rng.normal(scale=10.0, size=(groups, dim))
    return centers[rng.integers(groups, size=n)] + rng.normal(size=(n, dim))


def recorded_gathers(monkeypatch):
    """The number of rows each `_rescore` call gathers, in call order."""
    gathered = []
    rescore = codebook._rescore

    def recorded(X, c, out, block, idx):
        gathered.append(idx.size)
        return rescore(X, c, out, block, idx)

    monkeypatch.setattr(codebook, "_rescore", recorded)
    return gathered


class TestKMeansBits:
    """The pruned seeding and the blocked distances keep the bits of the
    plain loop and the one expression, draw for draw."""

    def test_normal_across_the_product_chunk(self, monkeypatch):
        # 9000 rows pass the (1 << 22) // 500 = 8388-row chunk of _assign_points
        X = np.random.default_rng(0).normal(size=(9000, 88))
        assert_same_kmeans(monkeypatch, X, 500, 2, 3)

    def test_normal_low_dimension(self, monkeypatch):
        X = np.random.default_rng(1).normal(size=(7200, 16))
        assert_same_kmeans(monkeypatch, X, 500, 2, 3)

    @pytest.mark.parametrize("seed", [0, 5])
    def test_clustered(self, monkeypatch, seed):
        X = clustered(np.random.default_rng(2), 3000, 16, 40)
        assert_same_kmeans(monkeypatch, X, 200, 3, seed)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_uniform_plane(self, monkeypatch, seed):
        # in two dimensions many new centers lie just under twice a point's
        # distance from its owner, where the bound must not skip
        X = np.random.default_rng(0).random((500, 2))
        assert_same_kmeans(monkeypatch, X, 100, 3, seed)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_duplicate_heavy(self, monkeypatch, seed):
        # 64 distinct points, each repeated: many points sit at distance 0
        # from a chosen center
        X = np.random.default_rng(3).integers(0, 4, size=(400, 3)).astype(np.float64)
        assert_same_kmeans(monkeypatch, X, 40, 5, seed)

    def test_k_equals_n(self, monkeypatch):
        X = np.random.default_rng(4).normal(size=(60, 5))
        assert_same_kmeans(monkeypatch, X, 60, 5, 7)

    def test_reseeds_an_empty_cluster(self, monkeypatch):
        # the first center starts far from every point and owns none, so
        # the first update moves it to the point farthest from its center
        rng = np.random.default_rng(5)
        X = clustered(rng, 300, 4, 6)
        initial = np.concatenate([np.full((1, 4), 1e3), X[:9]])
        counts = []
        assign_points = codebook._assign_points

        def counted(X, C):
            assign, best = assign_points(X, C)
            counts.append(np.bincount(assign, minlength=C.shape[0]))
            return assign, best

        monkeypatch.setattr(codebook, "_assign_points", counted)
        assert_same_kmeans(monkeypatch, X, 10, 6, 0, initial)
        assert counts[0][0] == 0 and (counts[1] > 0).all()

    def test_seeding_prunes(self, monkeypatch):
        # clustered data: every step gathers only the rows the bound
        # cannot rule out, and those are few
        X = clustered(np.random.default_rng(2), 3000, 16, 40)
        gathered = recorded_gathers(monkeypatch)
        codebook._plusplus_seed(X, 200, np.random.default_rng(0))
        assert gathered[0] == X.shape[0] and len(gathered) == 200
        assert np.median(gathered[1:]) < 0.2 * X.shape[0]

    def test_seeding_on_patch_descriptors(self, monkeypatch):
        # the descriptors training clusters: equal bits, and the bound prunes
        patches = [make(i) for i in range(20) for make in (fire_patch, nonfire_patch)]
        X = np.concatenate([sample_whole(p, SamplingPlan()) for p in patches])
        assert X.shape == (1440, 88)
        gathered = recorded_gathers(monkeypatch)
        got = codebook._plusplus_seed(X, 100, np.random.default_rng(3))
        want = plusplus_seed_loop(X, 100, np.random.default_rng(3))
        assert np.array_equal(bits(got), bits(want))
        assert np.median(gathered[1:]) < 0.6 * X.shape[0]


class TestSquaredDistances:
    def _check(self, X, Y):
        got = squared_distances(X, Y)
        assert np.array_equal(bits(got), bits(squared_distances_expr(X, Y)))

    @pytest.mark.parametrize("extra", [-1, 0, 1, 2, None])
    def test_rows_around_the_block(self, rng, extra):
        k = 500
        block = _BLOCK_VALUES // k
        n = 1 if extra is None else (block + extra if extra < 2 else 2 * block + 1)
        C = rng.normal(size=(k, 88))
        # rows equal to centers cancel to about 0 and below, which is floored
        X = np.concatenate([C[: min(n, 7)], rng.normal(size=(n, 88))])[:n]
        self._check(X, C)

    def test_svm_gram_matrix(self, rng):
        X = rng.random((160, 596))
        X /= X.sum(axis=1, keepdims=True)
        self._check(X, X)

    def test_svm_predict_shape(self, rng):
        support = rng.random((55, 596))
        self._check(support, rng.random((1, 596)))
        self._check(support, support[3:4])

    def test_floored_at_zero(self, rng):
        X = rng.normal(size=(40, 30)) * 1e3
        d2 = squared_distances(X, X)
        assert (d2 >= 0.0).all()
        assert (np.diag(d2) <= 1e-6 * (X * X).sum(axis=1)).all()


class TestNNIndex:
    def test_query_center_is_itself(self, rng):
        pts = rng.normal(size=(50, 8))
        idx = NNIndex(pts)
        (got,), (dist,) = idx.query_batch(pts[17][None], 1)
        assert got[0] == 17
        assert dist[0] == 0.0

    def test_query_all_returns_sorted(self, rng):
        pts = rng.normal(size=(40, 6))
        idx = NNIndex(pts)
        (got,), (dist,) = idx.query_batch(rng.normal(size=6)[None], 40)
        assert sorted(got.tolist()) == list(range(40))
        assert np.all(np.diff(dist) >= 0)

    def test_matches_brute_force(self, rng):
        pts = rng.normal(size=(500, 88))
        idx = NNIndex(pts)
        for _ in range(200):
            q = rng.normal(size=88)
            (got,), (dist,) = idx.query_batch(q[None], 10)
            want, wdist = brute_force_nn(pts, q, 10)
            assert np.array_equal(got, want)
            assert np.array_equal(dist, wdist)

    def test_tie_break_low_index(self):
        # integer coordinates make distances exactly representable
        pts = np.array(
            [[2.0, 0.0], [0.0, 2.0], [-2.0, 0.0], [0.0, -2.0], [5.0, 5.0]]
        )
        idx = NNIndex(pts)
        (got,), (dist,) = idx.query_batch(np.array([0.0, 0.0])[None], 3)
        assert got.tolist() == [0, 1, 2]
        assert np.allclose(dist, 2.0)

    def test_m_bounds(self, rng):
        idx = NNIndex(rng.normal(size=(10, 3)))
        with pytest.raises(ValueError):
            idx.query_batch(np.zeros(3)[None], 0)
        with pytest.raises(ValueError):
            idx.query_batch(np.zeros(3)[None], 11)

    def test_batch_matches_single(self, rng):
        pts = rng.normal(size=(120, 12))
        idx = NNIndex(pts)
        Q = rng.normal(size=(30, 12))
        bi, bd = idx.query_batch(Q, 4)
        for row, q in enumerate(Q):
            (si,), (sd,) = idx.query_batch(q[None], 4)
            assert np.array_equal(bi[row], si)
            assert np.array_equal(bd[row], sd)
        ei, ed = idx.query_batch(np.zeros((0, 12)), 4)
        assert ei.shape == ed.shape == (0, 4)

    def test_stress_exactness_on_structured_data(self, rng):
        # tie-heavy layouts: integer lattices and tight clusters, queried
        # on grid points, between points, and far outside
        lattice = np.array(
            [[x, y, z] for x in range(4) for y in range(4) for z in range(4)],
            dtype=float,
        )
        clusters = np.concatenate(
            [rng.normal(c, 0.01, (20, 3)) for c in (0.0, 5.0, -5.0)]
        )
        line = np.column_stack([np.arange(50.0), np.zeros(50), np.zeros(50)])
        for pts in (lattice, clusters, line):
            idx = NNIndex(pts)
            n = pts.shape[0]
            queries = [
                pts[int(rng.integers(n))],  # exactly on a point
                pts[int(rng.integers(n))] + 0.5,  # between points
                rng.normal(0, 10, 3),  # generic
                np.array([100.0, 100.0, 100.0]),  # far outside
            ]
            for m in (1, 5, n):
                for q in queries:
                    (got_i,), (got_d,) = idx.query_batch(q[None], m)
                    want_i, want_d = brute_force_nn(pts, q, m)
                    assert np.array_equal(got_i, want_i)
                    assert np.array_equal(got_d, want_d)

    @pytest.mark.parametrize("offset", [1e4, 1e6])
    def test_exact_under_cancellation(self, rng, offset):
        # a large common offset makes |q|^2 + |c|^2 - 2 q.c cancel almost
        # every digit; the result must still equal the linear scan, also
        # for queries sitting exactly on a center
        pts = offset + 1e-3 * rng.normal(size=(200, 16))
        Q = offset + 1e-3 * rng.normal(size=(60, 16))
        Q[::3] = pts[rng.integers(200, size=20)]
        idx = NNIndex(pts)
        got_i, got_d = idx.query_batch(Q, 7)
        for row, q in enumerate(Q):
            want_i, want_d = brute_force_nn(pts, q, 7)
            assert np.array_equal(got_i[row], want_i)
            assert np.array_equal(got_d[row], want_d)
        assert np.all(got_d[::3, 0] == 0.0)

    def test_codebook_scale_batch(self, rng):
        pts = rng.normal(size=(500, 88))
        Q = rng.normal(size=(320, 88))
        got_i, got_d = NNIndex(pts).query_batch(Q, 10)
        assert got_i.shape == got_d.shape == (320, 10)
        for row, q in enumerate(Q):
            want_i, want_d = brute_force_nn(pts, q, 10)
            assert np.array_equal(got_i[row], want_i)
            assert np.array_equal(got_d[row], want_d)

    @pytest.mark.parametrize("rows", [1, 12, 40, 300])
    def test_products_small_enough_for_one_blas_thread(self, rng, monkeypatch, rows):
        # OpenBLAS runs larger products on worker threads, which then spin
        # after the call; the blocks must still cover Q @ centers.T once
        pts = rng.normal(size=(500, 88))
        Q = rng.normal(size=(rows, 88))
        idx = NNIndex(pts)
        sizes = []
        matmul = np.matmul

        def spy(a, b, *args, **kw):
            sizes.append(a.shape[0] * a.shape[1] * b.shape[1])
            return matmul(a, b, *args, **kw)

        monkeypatch.setattr(np, "matmul", spy)
        got_i, got_d = idx.query_batch(Q, 10)
        monkeypatch.undo()
        assert max(sizes) <= _ONE_THREAD_MADDS
        assert sum(sizes) == rows * 88 * 500
        for row, q in enumerate(Q):
            want_i, want_d = brute_force_nn(pts, q, 10)
            assert np.array_equal(got_i[row], want_i)
            assert np.array_equal(got_d[row], want_d)

    def test_duplicate_points_tolerated(self):
        pts = np.tile(np.array([[1.0, 1.0]]), (40, 1))
        idx = NNIndex(pts)
        (got,), (dist,) = idx.query_batch(np.array([1.0, 1.0])[None], 3)
        assert got.tolist() == [0, 1, 2]
        assert np.allclose(dist, 0.0)


class TestSoftAssign:
    def test_m1_single_weight(self, rng):
        pts = rng.normal(size=(20, 5))
        idx = NNIndex(pts)
        _, w = soft_weights(idx, rng.normal(size=5), 1, 0.5)
        assert w.tolist() == [1.0]

    def test_equidistant_uniform(self):
        pts = np.array(
            [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [9.0, 9.0]]
        )
        idx = NNIndex(pts)
        _, w = soft_weights(idx, np.zeros(2), 4, 1.0)
        assert np.allclose(w, 0.25)

    def test_two_distance_ratio_matches_formula(self):
        # neighbors at sigma and 2*sigma: weights exp(-.5) and exp(-2),
        # normalized; the 1/sqrt(2 pi sigma) prefactor cancels
        sigma = 1.7
        pts = np.array([[sigma, 0.0], [-2.0 * sigma, 0.0], [50.0, 50.0]])
        idx = NNIndex(pts)
        _, w = soft_weights(idx, np.zeros(2), 2, sigma)
        e1, e2 = math.exp(-0.5), math.exp(-2.0)
        assert abs(w[0] - e1 / (e1 + e2)) <= 1e-12
        assert abs(w[1] - e2 / (e1 + e2)) <= 1e-12
        assert abs(w[0] - 0.8175744761936437) <= 1e-12

    def test_underflow_falls_back_to_nearest(self):
        pts = np.array([[1000.0, 0.0], [2000.0, 0.0], [3000.0, 0.0]])
        idx = NNIndex(pts)
        _, w = soft_weights(idx, np.zeros(2), 2, 1e-3)
        assert w.tolist() == [1.0, 0.0]

    def test_weights_sum_to_one(self, rng):
        pts = rng.normal(size=(64, 8))
        idx = NNIndex(pts)
        for _ in range(20):
            _, w = soft_weights(idx, rng.normal(size=8), 10, 0.8)
            assert abs(w.sum() - 1.0) <= 1e-12

    def test_gaussian_kernel_formula(self):
        s, x = 0.9, 1.3
        want = math.exp(-0.5 * x * x / (s * s)) / math.sqrt(2 * math.pi * s)
        assert abs(gaussian_kernel(x, s) - want) <= 1e-15


class TestEncode:
    def test_single_descriptor_m1(self, rng):
        pts = rng.normal(size=(12, 6))
        idx = NNIndex(pts)
        [row] = encode(pts[3][None, :], [1], idx, EncoderParams(m=1, sigma=1.0), np.zeros((1, 96)))
        assert row[3] == 1.0
        assert row[:12].sum() == 1.0

    def test_prenorm_mass_equals_count(self, rng):
        pts = rng.normal(size=(30, 8))
        idx = NNIndex(pts)
        D = rng.normal(size=(57, 8))
        hist = raw_bow_histogram(D, [20, 37], idx, EncoderParams(m=5, sigma=0.7))
        assert np.allclose(hist.sum(axis=1), [20.0, 37.0], rtol=0, atol=1e-9)

    def test_matches_linear_scan_oracle(self, rng):
        centers = rng.normal(size=(10, 7))
        idx = NNIndex(centers)
        D = rng.normal(size=(5, 7))
        sigma = 0.9
        [got] = raw_bow_histogram(D, [5], idx, EncoderParams(m=3, sigma=sigma))
        want = encode_oracle(D, centers, 3, sigma)
        assert np.allclose(got, want, atol=1e-9)

    def test_permutation_invariance(self, rng):
        centers = rng.normal(size=(25, 6))
        idx = NNIndex(centers)
        D = rng.normal(size=(40, 6))
        params = EncoderParams(m=4, sigma=0.6)
        a = encode(D, [40], idx, params, np.zeros((1, 96)))[0, :25]
        perm = rng.permutation(40)
        b = encode(D[perm], [40], idx, params, np.zeros((1, 96)))[0, :25]
        assert np.allclose(a, b, atol=1e-12)

    def test_sigma_changes_weights_not_support(self, rng):
        centers = rng.normal(size=(25, 6))
        idx = NNIndex(centers)
        d = rng.normal(size=6)
        i1, w1 = soft_weights(idx, d, 6, 0.3)
        i2, w2 = soft_weights(idx, d, 6, 3.0)
        assert np.array_equal(i1, i2)
        assert not np.allclose(w1, w2)

    def test_empty_blob_errors(self, rng):
        idx = NNIndex(rng.normal(size=(10, 4)))
        with pytest.raises(ValueError, match="empty blob"):
            encode(np.zeros((0, 4)), [0], idx, EncoderParams(m=2, sigma=1.0), np.zeros((1, 96)))
        with pytest.raises(ValueError, match="empty blob"):
            encode(np.zeros((2, 4)), [2, 0], idx, EncoderParams(m=2, sigma=1.0), np.zeros((2, 96)))
        with pytest.raises(ValueError, match="counts cover 3 descriptors, got 2"):
            encode(np.zeros((2, 4)), [3], idx, EncoderParams(m=2, sigma=1.0), np.zeros((1, 96)))

    def test_combined_concatenation(self, rng):
        centers = rng.normal(size=(15, 4))
        idx = NNIndex(centers)
        g = rng.random(96)
        [row] = encode(rng.normal(size=(3, 4)), [3], idx, EncoderParams(m=2, sigma=1.0), g[None])
        assert row.shape == (15 + 96,)
        assert np.array_equal(row[15:], g)


    @pytest.mark.parametrize("counts", [[1], [7, 1, 30], [1, 1, 1, 1], [12, 60, 9, 2, 40]])
    def test_batch_keeps_each_blobs_bits(self, rng, counts):
        # blobs encoded together: each row has the bits of its blob
        # encoded on its own, as one neighbor query serves them all
        centers = rng.normal(size=(120, 88))
        idx = NNIndex(centers)
        params = EncoderParams(m=10, sigma=3.0)
        D = rng.normal(size=(sum(counts), 88))
        g = rng.random((len(counts), 96))
        rows = encode(D, counts, idx, params, g)
        ends = np.cumsum(counts)
        for i, (n, end) in enumerate(zip(counts, ends)):
            [want] = encode(D[end - n : end], [n], idx, params, g[i : i + 1])
            assert np.array_equal(rows[i].view(np.uint64), want.view(np.uint64))


class TestEncoderParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            EncoderParams(m=0, sigma=1.0)
        with pytest.raises(ValueError):
            EncoderParams(m=3, sigma=0.0)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf, -1.0])
    def test_sigma_must_be_finite_and_positive(self, sigma):
        with pytest.raises(ValueError, match="sigma must be finite and > 0"):
            EncoderParams(m=3, sigma=sigma)


class TestCodebookIO:
    def test_roundtrip_bit_exact(self, rng, tmp_path):
        book = Codebook(rng.normal(size=(17, 88)), sigma=0.4321)
        path = tmp_path / "book.pvcb"
        write_codebook(book, path)
        back = read_codebook(path)
        assert back.centers.tobytes() == book.centers.tobytes()
        assert back.sigma == book.sigma
        assert back.k == 17 and back.dim == 88

    def test_magic_bytes(self, rng, tmp_path):
        path = tmp_path / "book.pvcb"
        write_codebook(Codebook(rng.normal(size=(3, 4)), 1.0), path)
        assert path.read_bytes()[:4] == b"PVCB"

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.pvcb"
        path.write_bytes(b"NOPE" + b"\x00" * 40)
        with pytest.raises(DataError, match="magic"):
            read_codebook(path)

    def test_truncated_rejected(self, rng, tmp_path):
        path = tmp_path / "short.pvcb"
        write_codebook(Codebook(rng.normal(size=(3, 4)), 1.0), path)
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(DataError, match="bytes"):
            read_codebook(path)

    def test_shorter_than_header_rejected(self, tmp_path):
        path = tmp_path / "short.pvcb"
        path.write_bytes(b"PVCB\x01\x00\x00\x00")
        with pytest.raises(DataError, match="header"):
            read_codebook(path)

    def test_other_version_rejected(self, rng, tmp_path):
        path = tmp_path / "book.pvcb"
        write_codebook(Codebook(rng.normal(size=(3, 4)), 1.0), path)
        raw = bytearray(path.read_bytes())
        raw[4:8] = struct.pack("<I", 2)
        path.write_bytes(bytes(raw))
        with pytest.raises(DataError, match="book.pvcb: unsupported codebook version 2"):
            read_codebook(path)

    @pytest.mark.parametrize("k, dim", [(0, 88), (5, 0)], ids=["no word", "no value"])
    def test_empty_codebook_rejected(self, tmp_path, k, dim):
        # k = 0 used to pass, and training then failed on m as a config error
        path = tmp_path / "empty.pvcb"
        write_codebook(Codebook(np.zeros((k, dim)), 1.0), path)
        with pytest.raises(DataError, match=f"empty.pvcb: codebook has {k} words of {dim} values"):
            read_codebook(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(DataError, match="cannot read codebook"):
            read_codebook(tmp_path / "missing.pvcb")

    def test_fingerprint_tracks_content(self, rng, tmp_path):
        a = Codebook(rng.normal(size=(5, 6)), 1.0)
        b = Codebook(a.centers.copy(), 1.0)
        c = Codebook(a.centers + 1e-12, 1.0)
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != c.fingerprint()
        assert len(a.fingerprint()) == 32


    @pytest.mark.parametrize(
        "center, sigma, match",
        [
            (np.nan, 1.0, "centers must be finite"),
            (-np.inf, 1.0, "centers must be finite"),
            (0.5, np.nan, "sigma must be finite and > 0"),
            (0.5, np.inf, "sigma must be finite and > 0"),
            (0.5, 0.0, "sigma must be finite and > 0"),
            (0.5, -1.0, "sigma must be finite and > 0"),
        ],
        ids=["nan center", "inf center", "nan sigma", "inf sigma", "zero sigma",
             "negative sigma"],
    )
    def test_bad_values_rejected(self, rng, tmp_path, center, sigma, match):
        # a NaN center is never returned as a neighbor, and a bad sigma
        # fails encoding; both are data errors naming the file
        centers = rng.normal(size=(3, 4))
        centers[1, 2] = center
        path = tmp_path / "bad.pvcb"
        write_codebook(Codebook(centers, sigma), path)
        with pytest.raises(DataError, match=f"bad.pvcb: codebook {match}"):
            read_codebook(path)
