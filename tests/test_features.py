import math

import numpy as np
import pytest

from pyrovigil.features import (
    GLOBAL_BINS_PER_CHANNEL,
    LOCAL_BINS_PER_CHANNEL,
    LOCAL_KEY_SHIFT,
    SampleContext,
    SamplingPlan,
    _center_span,
    _gauss_weights,
    _lab_bin_params,
    _local_hist_batch,
    _subregion_lut,
    _surf_batch,
    haar_margin,
    histogram_from_pixels,
    lab_bin_keys,
    sample,
    sample_positions,
)
from pyrovigil.imaging import (
    LAB_DOMAINS, ColorSpace, Frame, convert, integral, integral_table, integral_window, luma,
)
from pyrovigil.proposal import Blob, ProposalConfig, ProposalEngine
from pyrovigil.synth import SceneSpec, SyntheticScene

from oracles import (
    integral_loops, kernel_fits, local_hist_direct, sample_per_region, surf_batch_gathers,
)
from test_imaging import _ref_lab


# Brute-force SURF oracle: same geometry as the package convention, but
# every box sum comes from raw pixel slicing (no integral image, no
# batching), and subregion accumulation is a plain dict walk.
def surf_oracle(gray, cx, cy, scale):
    h = haar_margin(scale)
    x0 = cx - scale // 2
    y0 = cy - scale // 2
    c = (scale - 1) / 2.0
    sigma = 0.165 * scale
    acc = np.zeros((4, 4, 4))
    for v in range(scale):
        py = y0 + v
        sv = min(3, 4 * v // scale)
        for u in range(scale):
            px = x0 + u
            su = min(3, 4 * u // scale)
            right = gray[py - h : py + h + 1, px + 1 : px + h + 1].sum()
            left = gray[py - h : py + h + 1, px - h : px].sum()
            dx = right - left
            bottom = gray[py + 1 : py + h + 1, px - h : px + h + 1].sum()
            top = gray[py - h : py, px - h : px + h + 1].sum()
            dy = bottom - top
            w = math.exp(-(((u - c) ** 2) + ((v - c) ** 2)) / (2 * sigma * sigma))
            acc[sv, su, 0] += w * dx
            acc[sv, su, 1] += w * dy
            acc[sv, su, 2] += w * abs(dx)
            acc[sv, su, 3] += w * abs(dy)
    vec = acc.reshape(64)
    norm = np.linalg.norm(vec)
    return vec / norm if norm > 0 else vec


# Local color histogram oracle: one kernel at a time, its scope sliced
# from `lab`, one bincount per channel. Scopes must lie inside `lab`.
def local_hist_oracle(lab, cxs, cys, scale, lo, inv_width):
    out = np.zeros((cxs.shape[0], 24))
    for j in range(cxs.shape[0]):
        x0, y0 = cxs[j] - scale // 2, cys[j] - scale // 2
        assert x0 >= 0 and y0 >= 0
        patch = lab[y0 : y0 + scale, x0 : x0 + scale].reshape(-1, 3)
        assert patch.shape[0] == scale * scale
        for c in range(3):
            b = np.clip(((patch[:, c] - lo[c]) * inv_width[c]).astype(np.int64), 0, 7)
            counts = np.bincount(b, minlength=8).astype(np.float64)
            out[j, c * 8 : c * 8 + 8] = counts / counts.sum()
    return out


# Global histogram oracle: one pixel at a time, each channel's bin from
# its domain, clipped to the end bins; counts over the pixel count.
def global_hist_oracle(lab, mask):
    bins = GLOBAL_BINS_PER_CHANNEL
    counts = np.zeros((3, bins))
    for y, x in zip(*np.nonzero(mask)):
        for c, (lo, hi) in enumerate(LAB_DOMAINS):
            b = int((lab[y, x, c] - lo) * (bins / (hi - lo)))
            counts[c, min(max(b, 0), bins - 1)] += 1
    return (counts / counts.sum(axis=1, keepdims=True)).ravel()


def _gray_frame(px):
    return Frame(np.asarray(px, dtype=float), ColorSpace.GRAY)


def _surf(table, cx, cy, scale):
    """SURF vector at one placement: a one-row `_surf_batch` call."""
    return _surf_batch(
        table, np.array([cx]), np.array([cy]), scale, haar_margin(scale),
        _subregion_lut(scale), _gauss_weights(scale),
    )[0]


def _local_hist(frame, cx, cy, scale):
    """Local LAB histogram of one kernel scope: a one-row
    `_local_hist_batch` call on the frame's LAB."""
    lab = convert(frame)
    lo, inv = _lab_bin_params(LOCAL_BINS_PER_CHANNEL)
    return _local_hist_batch(lab, np.array([cx]), np.array([cy]), scale, lo, inv)[0]


def sample_region(frame, plan, mask, anchor):
    """`sample` of one region, in a context that holds only it."""
    return sample(SampleContext(frame, luma(frame.pixels), plan, [(mask, anchor)]))


def sample_whole(frame, plan):
    """`sample` of all of `frame` as one region, as training samples a
    patch."""
    return sample_region(frame, plan, np.ones((frame.height, frame.width), bool), (0, 0))


def _random_lab(rng, height, width):
    """LAB values reaching past each end of the channel domains."""
    return np.dstack([
        rng.uniform(-10, 110, (height, width)),
        rng.uniform(-140, 140, (height, width)),
        rng.uniform(-140, 140, (height, width)),
    ])


class TestGlobalHistogram:
    def test_uniform_midgray_single_bins(self):
        lab = np.tile([50.0, 0.0, 0.0], (8, 8, 1))
        hist = histogram_from_pixels(lab_bin_keys(lab), np.ones(lab.shape[:2], dtype=bool), 1)[0]
        for c in range(3):
            block = hist[c * 32 : c * 32 + 32]
            assert (block > 0).sum() == 1
            assert block.max() == 1.0

    def test_total_mass_is_three(self, rng):
        img = rng.integers(0, 256, (20, 30, 3)).astype(np.uint8)
        lab = convert(Frame(img, ColorSpace.RGB))
        hist = histogram_from_pixels(lab_bin_keys(lab), np.ones(lab.shape[:2], dtype=bool), 1)[0]
        assert abs(hist.sum() - 3.0) <= 1e-9
        assert (hist >= 0).all()

    def test_two_pixel_split(self):
        # L values 10 and 90 land in different bins: 0.5 each
        lab = np.array([[[10.0, 0.0, 0.0], [90.0, 0.0, 0.0]]])
        hist = histogram_from_pixels(lab_bin_keys(lab), np.ones(lab.shape[:2], dtype=bool), 1)[0]
        block = hist[:32]
        assert sorted(block[block > 0].tolist()) == [0.5, 0.5]
        assert block[int(10 / 100 * 32)] == 0.5
        assert block[int(90 / 100 * 32)] == 0.5

    def test_mask_restricts_pixels(self, rng):
        lab = _random_lab(rng, 6, 6)
        mask = np.zeros((6, 6), dtype=bool)
        mask[0, 0] = True
        hist = histogram_from_pixels(lab_bin_keys(lab), mask, 1)[0]
        assert (hist > 0).sum() == 3

    def test_empty_mask_errors(self):
        with pytest.raises(ValueError, match="empty mask"):
            histogram_from_pixels(lab_bin_keys(np.zeros((4, 4, 3))), np.zeros((4, 4), dtype=bool), 1)

    def test_label_past_n_raises(self):
        keys = lab_bin_keys(np.zeros((2, 3, 3)))
        labels = np.array([[1, 1, 0], [0, 2, 2]])
        assert histogram_from_pixels(keys, labels, 2).shape == (2, 96)
        with pytest.raises(ValueError):
            histogram_from_pixels(keys, labels, 1)

    def test_matches_per_pixel_oracle(self, rng):
        lab = _random_lab(rng, 23, 31)
        mask = rng.random((23, 31)) < 0.4
        for m in (mask, np.ones((23, 31), bool)):
            got = histogram_from_pixels(lab_bin_keys(lab), m, 1)[0]
            want = global_hist_oracle(lab, m)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestSurf:
    def test_constant_image_zero_vector(self):
        ii = integral(_gray_frame(np.full((21, 21), 55.0)))
        vec = _surf(ii.table[0], 10, 10, 9)
        assert np.all(vec == 0.0)

    def test_matches_brute_force_oracle(self, rng):
        px = rng.integers(0, 256, (40, 40)).astype(float)
        ii = integral(_gray_frame(px))
        for scale in (9, 12, 15):
            for _ in range(5):
                cx = int(rng.integers(12, 28))
                cy = int(rng.integers(12, 28))
                got = _surf(ii.table[0], cx, cy, scale)
                want = surf_oracle(px, cx, cy, scale)
                assert np.allclose(got, want, atol=1e-10)

    def test_vertical_step_edge_dx_dominates(self):
        px = np.full((31, 31), 10.0)
        px[:, 15:] = 200.0  # vertical edge at x=15
        ii = integral(_gray_frame(px))
        vec = _surf(ii.table[0], 15, 15, 9).reshape(4, 4, 4)
        # the edge crosses subregion column su where x=15 falls: window
        # starts at 11, local u = 4 -> su = min(3, 16//9) = 1
        for sv in range(4):
            sum_abs_dx = vec[sv, 1, 2]
            sum_abs_dy = vec[sv, 1, 3]
            assert sum_abs_dx > sum_abs_dy
            assert sum_abs_dy == 0.0

    def test_unit_norm_on_nonflat(self, rng):
        px = rng.integers(0, 256, (30, 30)).astype(float)
        ii = integral(_gray_frame(px))
        vec = _surf(ii.table[0], 14, 14, 9)
        assert abs(np.linalg.norm(vec) - 1.0) <= 1e-6

    def test_mirror_equivariance(self, rng):
        # horizontally mirroring the image mirrors the dx sign pattern;
        # scale 12 splits into symmetric 3-pixel subregion columns
        px = rng.integers(0, 256, (36, 36)).astype(float)
        mirrored = px[:, ::-1].copy()
        scale, cx, cy = 12, 17, 18
        v1 = _surf(integral(_gray_frame(px)).table[0], cx, cy, scale)
        v2 = _surf(integral(_gray_frame(mirrored)).table[0], 36 - cx, cy, scale)
        a = v1.reshape(4, 4, 4)
        b = v2.reshape(4, 4, 4)
        for sv in range(4):
            for su in range(4):
                assert np.allclose(b[sv, 3 - su, 0], -a[sv, su, 0], atol=1e-9)
                assert np.allclose(b[sv, 3 - su, 2], a[sv, su, 2], atol=1e-9)
                assert np.allclose(b[sv, 3 - su, 1], a[sv, su, 1], atol=1e-9)
                assert np.allclose(b[sv, 3 - su, 3], a[sv, su, 3], atol=1e-9)


class TestLocalColorHistogram:
    def test_uniform_patch(self):
        frame = Frame(np.full((15, 15, 3), 80, np.uint8), ColorSpace.RGB)
        hist = _local_hist(frame, 7, 7, 9)
        for c in range(3):
            block = hist[c * 8 : c * 8 + 8]
            assert block.max() == 1.0
            assert (block > 0).sum() == 1

    def test_mass_is_three(self, rng):
        img = rng.integers(0, 256, (20, 20, 3)).astype(np.uint8)
        hist = _local_hist(Frame(img, ColorSpace.RGB), 10, 10, 9)
        assert abs(hist.sum() - 3.0) <= 1e-9

    def test_half_red_half_green(self):
        img = np.zeros((10, 10, 3), np.uint8)
        img[:, :5] = (200, 30, 30)  # red half
        img[:, 5:] = (30, 180, 30)  # green half
        hist = _local_hist(Frame(img, ColorSpace.RGB), 5, 5, 10)
        # oracle: a* bins of the two colors via the reference conversion
        _, a_red, _ = _ref_lab(200, 30, 30)
        _, a_green, _ = _ref_lab(30, 180, 30)
        bin_red = min(7, int((a_red + 128) / 255 * 8))
        bin_green = min(7, int((a_green + 128) / 255 * 8))
        a_block = hist[8:16]
        assert bin_red != bin_green
        assert abs(a_block[bin_red] - 0.5) <= 1e-9
        assert abs(a_block[bin_green] - 0.5) <= 1e-9

    @pytest.mark.parametrize("scale", [3, 9, 15, 27])
    def test_batch_matches_loop_oracle(self, rng, scale):
        height, width = 37, 53
        # values past each end of the LAB domain land in the end bins
        lab = _random_lab(rng, height, width)
        lo, inv = _lab_bin_params(LOCAL_BINS_PER_CHANNEL)
        half = scale // 2
        # first and last centers whose scope lies inside `lab`: scopes
        # that touch each edge and corner of it from inside
        xs_edge = [half, half + 1, width - scale + half - 1, width - scale + half]
        ys_edge = [half, half + 1, height - scale + half - 1, height - scale + half]
        cxs = np.concatenate([
            np.repeat(xs_edge, 4), rng.integers(xs_edge[0], xs_edge[-1] + 1, 500)
        ])
        cys = np.concatenate([
            np.tile(ys_edge, 4), rng.integers(ys_edge[0], ys_edge[-1] + 1, 500)
        ])
        got = _local_hist_batch(lab, cxs, cys, scale, lo, inv)
        want = local_hist_oracle(lab, cxs, cys, scale, lo, inv)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def _ulps_around(values, steps=3):
    """Each value and the `steps` floats on either side of it."""
    out = [values]
    for direction in (-np.inf, np.inf):
        v = values
        for _ in range(steps):
            v = np.nextafter(v, direction)
            out.append(v)
    return np.concatenate(out)


@pytest.mark.parametrize("channel", [0, 1, 2])
def test_local_keys_are_global_keys_shifted(channel):
    # at every 32-bin edge, at both ends of the channel's domain and past
    # them, the 8-bin key binned directly is the 32-bin key shifted right
    lo, hi = LAB_DOMAINS[channel]
    width = hi - lo
    edges = lo + width * np.arange(-3, 36) / GLOBAL_BINS_PER_CHANNEL
    values = _ulps_around(np.concatenate([
        edges, [lo, hi, lo - 1.0, hi + 1.0, lo - width, hi + width, lo - 1e6, hi + 1e6],
    ]))
    lab = np.tile([d[0] for d in LAB_DOMAINS], (values.size, 1))
    lab[:, channel] = values
    keys = lab_bin_keys(lab)[channel].astype(np.int64)
    for bins, got in ((GLOBAL_BINS_PER_CHANNEL, keys),
                      (LOCAL_BINS_PER_CHANNEL, keys >> LOCAL_KEY_SHIFT)):
        base, inv = _lab_bin_params(bins)
        direct = ((values - base[channel]) * inv[channel]).astype(np.int64)
        want = np.clip(direct, 0, bins - 1) + channel * bins
        assert np.array_equal(got, want), bins
    # every bin is reached, and the ends are clipped into the end bins
    assert set((keys - channel * GLOBAL_BINS_PER_CHANNEL).tolist()) == set(range(32))


def test_local_hist_batch_keeps_its_values_on_the_benchmark_case(monkeypatch):
    # perfbench/kernels.py times `_local_hist_batch` on a full frame of
    # random LAB with its own 8-bin bounds; the shared 32-bin keys must
    # give that case the histograms of direct 8-bin binning
    import inspect
    from pathlib import Path

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from kernels import _cases

    [call] = [c for name, c in _cases(np.random.default_rng(7))
              if name == "features.kernel_local_hist_ms"]
    case = inspect.getclosurevars(call).nonlocals
    want = local_hist_direct(
        case["lab"], case["cxs"], case["cys"], case["scale"], case["lo"], case["inv"]
    )
    got = call()
    assert got.shape == (case["cxs"].shape[0], 24)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("scale", [9, 15, 21])
def test_surf_batch_keeps_the_gather_bits(rng, scale):
    # one patch gather per window, against one gather per box corner
    gray = luma(rng.integers(0, 256, (240, 320, 3)).astype(np.uint8))
    table = integral(_gray_frame(gray)).table[0]
    xs, ys = _center_span(scale, 320), _center_span(scale, 240)
    args = (scale, haar_margin(scale), _subregion_lut(scale), _gauss_weights(scale))
    for n in (1, 2, 9, 40, 600):
        cxs = rng.integers(xs.start, xs.stop, n)
        cys = rng.integers(ys.start, ys.stop, n)
        # the kernels that reach the frame's edges
        cxs[: min(n, 2)] = (xs.start, xs.stop - 1)[: min(n, 2)]
        cys[: min(n, 2)] = (ys.stop - 1, ys.start)[: min(n, 2)]
        got = _surf_batch(table, cxs, cys, *args)
        want = surf_batch_gathers(table, cxs, cys, *args)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("scale", [9, 15, 21])
def test_surf_one_row_call_keeps_the_batch_bits(scale):
    # a blob with one kernel at a scale gets the row a batch would give it.
    # 100 rows keep each `onehot` product under 10^6 multiply-adds. Past
    # that OpenBLAS leaves its small-matrix kernel, and at scale 21, whose
    # sums run over 441 cells, a batch from 142 rows on rounds otherwise.
    frame = SyntheticScene(SceneSpec(seed=7)).frame(130)
    table = integral(_gray_frame(luma(frame.pixels))).table[0]
    xs, ys = _center_span(scale, frame.width), _center_span(scale, frame.height)
    rng = np.random.default_rng(scale)
    cxs = rng.integers(xs.start, xs.stop, 100)
    cys = rng.integers(ys.start, ys.stop, 100)
    args = (scale, haar_margin(scale), _subregion_lut(scale), _gauss_weights(scale))
    batch = _surf_batch(table, cxs, cys, *args)
    for i in range(100):
        row = _surf_batch(table, cxs[i : i + 1], cys[i : i + 1], *args)
        assert np.array_equal(row.view(np.uint64), batch[i : i + 1].view(np.uint64))


@pytest.mark.parametrize("scale", [21, 27])
def test_surf_large_batch_keeps_the_small_batch_bits(scale):
    # a window's row does not depend on how many windows share its batch:
    # each `onehot` product stays within OpenBLAS's one-thread size, where
    # one product over all 600 windows would leave its small-matrix kernel
    frame = SyntheticScene(SceneSpec(seed=7)).frame(130)
    table = integral(_gray_frame(luma(frame.pixels))).table[0]
    xs, ys = _center_span(scale, frame.width), _center_span(scale, frame.height)
    rng = np.random.default_rng(scale)
    cxs = rng.integers(xs.start, xs.stop, 600)
    cys = rng.integers(ys.start, ys.stop, 600)
    args = (scale, haar_margin(scale), _subregion_lut(scale), _gauss_weights(scale))
    batch = _surf_batch(table, cxs, cys, *args)
    for i in range(0, 600, 2):
        rows = _surf_batch(table, cxs[i : i + 2], cys[i : i + 2], *args)
        assert np.array_equal(rows.view(np.uint64), batch[i : i + 2].view(np.uint64)), i


def enumerate_valid_centers(width, height, scale, interval, anchor=(0, 0)):
    """Position oracle: test every grid point from the anchor to the frame's
    edges against the fit rule directly, in row-major order."""
    return [
        (cx, cy)
        for cy in range(anchor[1], height, interval)
        for cx in range(anchor[0], width, interval)
        if kernel_fits(cx, cy, scale, width, height)
    ]


def centers(placements):
    """((cx, cy), scale) of each descriptor row, in row order."""
    return [
        ((int(x), int(y)), s) for s, cxs, cys in placements for x, y in zip(cxs, cys)
    ]


class TestSampling:
    def test_27x27_grid_count(self, rng):
        img = rng.integers(0, 256, (27, 27, 3)).astype(np.uint8)
        frame = Frame(img, ColorSpace.RGB)
        plan = SamplingPlan(interval=9, scales=(9,))
        descs = sample_whole(frame, plan)
        oracle = enumerate_valid_centers(27, 27, 9, 9)
        assert len(descs) == len(oracle)
        mask = np.ones((27, 27), dtype=bool)
        got = [c for c, _ in centers(sample_positions(frame, plan, mask, (0, 0)))]
        assert sorted(got) == sorted(oracle)

    def test_grid_count_product_rule(self, rng):
        for _ in range(5):
            w = int(rng.integers(24, 60))
            h = int(rng.integers(24, 60))
            img = rng.integers(0, 256, (h, w, 3)).astype(np.uint8)
            plan = SamplingPlan(interval=7, scales=(9, 12))
            frame = Frame(img, ColorSpace.RGB)
            descs = sample_whole(frame, plan)
            expected = sum(
                len(enumerate_valid_centers(w, h, s, 7)) for s in plan.scales
            )
            assert len(descs) == expected

    def test_deterministic(self, rng):
        img = rng.integers(0, 256, (40, 40, 3)).astype(np.uint8)
        frame = Frame(img, ColorSpace.RGB)
        plan = SamplingPlan()
        a = sample_whole(frame, plan)
        b = sample_whole(frame, plan)
        assert a.shape == b.shape
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64))

    def test_all_zero_mask_gives_empty_list(self, rng):
        img = rng.integers(0, 256, (30, 30, 3)).astype(np.uint8)
        frame = Frame(img, ColorSpace.RGB)
        descs = sample_region(frame, SamplingPlan(), np.zeros((30, 30), dtype=bool), (0, 0))
        assert descs.shape == (0, 88)

    def test_too_small_frame_gives_no_rows(self):
        frame = Frame(np.zeros((8, 8, 3), np.uint8), ColorSpace.RGB)
        descs = sample_whole(frame, SamplingPlan(interval=9, scales=(9,)))
        assert descs.shape == (0, 88)

    def test_anchor_shifts_grid(self, rng):
        img = rng.integers(0, 256, (40, 40, 3)).astype(np.uint8)
        frame = Frame(img, ColorSpace.RGB)
        # the region is the frame from the anchor on
        placements = sample_positions(
            frame, SamplingPlan(), np.ones((40 - 6, 40 - 7), dtype=bool), (7, 6)
        )
        oracle = enumerate_valid_centers(40, 40, 9, 9, anchor=(7, 6))
        assert sorted(c for c, _ in centers(placements)) == sorted(oracle)

    def test_region_without_fitting_kernel_gives_no_rows(self, rng):
        # the region's grid holds no kernel that fits; the frame has some
        img = rng.integers(0, 256, (40, 40, 3)).astype(np.uint8)
        frame = Frame(img, ColorSpace.RGB)
        for anchor in ((0, 0), (35, 0), (0, 36), (35, 36)):
            descs = sample_region(frame, SamplingPlan(), np.ones((4, 5), dtype=bool), anchor)
            assert descs.shape == (0, 88)

    @pytest.mark.parametrize("scale,interval", [(9, 9), (9, 4), (15, 7), (27, 5)])
    def test_positions_of_an_all_true_mask(self, rng, scale, interval):
        width, height = 64, 48
        frame = Frame(np.zeros((height, width, 3), np.uint8), ColorSpace.RGB)
        plan = SamplingPlan(interval, (scale,))
        regions = [(0, 0, width, height)]
        # strips along each edge and corner squares, most of them outside
        # the span of fitting centers on one axis or both
        for w, h in ((64, 1), (1, 48), (20, 15), (3, 3)):
            regions += [(x, y, w, h) for x in (0, width - w) for y in (0, height - h)]
        for _ in range(40):
            w, h = int(rng.integers(1, width + 1)), int(rng.integers(1, height + 1))
            x, y = int(rng.integers(0, width - w + 1)), int(rng.integers(0, height - h + 1))
            regions.append((x, y, w, h))
        for x, y, w, h in regions:
            [(s, cxs, cys)] = sample_positions(
                frame, plan, mask=np.ones((h, w), dtype=bool), anchor=(x, y)
            )
            want = [
                (cx, cy)
                for cx, cy in enumerate_valid_centers(width, height, scale, interval, (x, y))
                if cx < x + w and cy < y + h
            ]
            assert s == scale
            assert cxs.dtype == cys.dtype == np.int64
            assert list(zip(cxs.tolist(), cys.tolist())) == want

    def test_descriptor_dimensions(self, rng):
        img = rng.integers(0, 256, (30, 30, 3)).astype(np.uint8)
        frame = Frame(img, ColorSpace.RGB)
        descs = sample_whole(frame, SamplingPlan())
        assert descs.ndim == 2 and descs.shape[1] == 88 and descs.shape[0] > 0
        norms = np.linalg.norm(descs[:, 0:64], axis=1)
        assert np.all((norms == 0.0) | (np.abs(norms - 1.0) <= 1e-6))
        assert np.all(np.abs(descs[:, 64:88].sum(axis=1) - 3.0) <= 1e-6)


def _full_frame_blob_features(frame, plan, blob):
    """Oracle: a blob's descriptors and global histogram read from the
    whole frame's LAB and a full-frame mask, as a frame-wide pass computes
    them. Returns ([(center, scale, vector)], bins); ([], None) when the
    grid has no kernel inside the frame."""
    lab = convert(frame)
    table = integral(_gray_frame(luma(frame.pixels))).table[0]
    mask = np.zeros((frame.height, frame.width), dtype=bool)
    mask[blob.y : blob.y + blob.h, blob.x : blob.x + blob.w] = blob.mask
    lo, inv = _lab_bin_params(LOCAL_BINS_PER_CHANNEL)
    out = []
    for scale in plan.scales:
        grid = [
            c
            for c in enumerate_valid_centers(
                frame.width, frame.height, scale, plan.interval, (blob.x, blob.y)
            )
            if mask[c[1], c[0]]
        ]
        if not grid:  # `_surf_batch` takes no empty batch, as `sample` skips one
            continue
        cxs, cys = np.array(grid, dtype=np.int64).T
        surfs = _surf_batch(
            table, cxs, cys, scale, haar_margin(scale),
            _subregion_lut(scale), _gauss_weights(scale),
        )
        colors = _local_hist_batch(lab, cxs, cys, scale, lo, inv)
        for j in range(cxs.shape[0]):
            out.append(((int(cxs[j]), int(cys[j])), scale, np.concatenate([surfs[j], colors[j]])))
    bins = histogram_from_pixels(lab_bin_keys(lab), mask, 1)[0] if out else None
    return out, bins


def _edge_blobs(rng, width, height):
    """Blobs with random masks touching each side and corner of the frame
    (most of their sizes put interval-4 grid centers on their last row
    and column), and blobs of random size at random places."""
    boxes = []
    for bw, bh in ((21, 17), (30, 25), (13, 29)):
        for x in (0, (width - bw) // 2, width - bw):
            for y in (0, (height - bh) // 2, height - bh):
                boxes.append((x, y, bw, bh))
    # strips along each edge, small boxes in each corner (most too close
    # to it for any kernel), and the whole frame
    for bw, bh in ((width, 1), (1, height), (width, 12), (12, height), (5, 4)):
        for x in sorted({0, width - bw}):
            for y in sorted({0, height - bh}):
                boxes.append((x, y, bw, bh))
    boxes.append((0, 0, width, height))
    for _ in range(12):
        bw, bh = int(rng.integers(1, 60)), int(rng.integers(1, 60))
        boxes.append((
            int(rng.integers(0, width - bw + 1)),
            int(rng.integers(0, height - bh + 1)), bw, bh,
        ))
    blobs = []
    for x, y, bw, bh in boxes:
        mask = rng.random((bh, bw)) < 0.7
        mask[0, 0] = mask[-1, -1] = True
        blobs.append(Blob(x, y, bw, bh, int(mask.sum()), 0, mask))
    return blobs


def _scene_blobs(camera, spec):
    scene = SyntheticScene(spec)
    engine = ProposalEngine(ProposalConfig(camera), spec.width, spec.height)
    found = []
    for t in range(0, 136):
        frame = scene.frame(t)
        blobs, _ = engine.propose(frame)
        if t >= 100 and t % 7 == 0:
            # the engine overwrites its luma plane at the next frame
            found.append((frame, blobs, engine.gray.copy()))
    return found


WINDOW_PLANS = [
    SamplingPlan(interval=9, scales=(9,)),
    SamplingPlan(interval=4, scales=(9, 15)),
]


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


class TestWindowedSampling:
    """A frame's blobs sampled in one context, each (blob, scale) from its
    own window of the integral table and every blob's LAB from one packed
    conversion, equal the full-frame computation bit for bit."""

    def _check(self, frame, plan, blobs, gray):
        """Sample `blobs` together and check each against the full-frame
        oracle; the number of blobs with descriptors."""
        ctx = SampleContext(frame, gray, plan, [(b.mask, (b.x, b.y)) for b in blobs])
        descs = np.split(sample(ctx), np.cumsum(ctx.counts)[:-1])
        kept = int((ctx.counts > 0).sum())
        bins = iter(histogram_from_pixels(ctx.keys, ctx.labels, kept))
        for blob, got in zip(blobs, descs):
            want, want_bins = _full_frame_blob_features(frame, plan, blob)
            placements = sample_positions(frame, plan, mask=blob.mask, anchor=(blob.x, blob.y))
            assert centers(placements) == [(c, s) for c, s, _ in want]
            assert got.shape == (len(want), 88)
            for row, (_, _, vector) in zip(got, want):
                assert np.array_equal(_bits(row), _bits(vector))
            if len(got):
                assert np.array_equal(_bits(next(bins)), _bits(want_bins))
        return kept

    @pytest.mark.parametrize("plan", WINDOW_PLANS, ids=["9", "9+15"])
    @pytest.mark.parametrize("camera", ["static", "moving"])
    def test_scene_blobs(self, camera, plan):
        checked = sum(
            self._check(frame, plan, blobs, gray)
            for frame, blobs, gray in _scene_blobs(camera, SceneSpec(seed=7))
        )
        assert checked >= 5

    @pytest.mark.parametrize("luma_of", ["random", "scene"])
    def test_window_table_keeps_the_bits(self, rng, luma_of):
        # cells of `integral_window` against the full table and the double
        # loops, on windows at each side and corner, of one cell, of the
        # whole table, at random, and on a frame two pixels wide
        if luma_of == "scene":
            gray = luma(SyntheticScene(SceneSpec(seed=11)).frame(120).pixels)
        else:
            gray = rng.uniform(0, 255, (240, 320))
        for g in (gray, gray[:, :2], gray[:2, :]):
            full = integral_table(g[np.newaxis])[0]
            loops = integral_loops(g)
            assert np.array_equal(_bits(full), _bits(loops))
            rows, cols = full.shape
            windows = [(0, rows, 0, cols)]
            for r0, r1 in ((0, 1), (0, 3), (rows - 1, rows), (rows // 2, rows), (1, rows - 1)):
                for c0, c1 in ((0, 1), (0, 2), (cols - 1, cols), (cols // 2, cols), (1, cols - 1)):
                    windows.append((r0, r1, c0, c1))
            for _ in range(200):
                r0, c0 = int(rng.integers(0, rows)), int(rng.integers(0, cols))
                windows.append((r0, int(rng.integers(r0 + 1, rows + 1)),
                                c0, int(rng.integers(c0 + 1, cols + 1))))
            for r0, r1, c0, c1 in windows:
                window = integral_window(g, r0, r1, c0, c1)
                assert np.array_equal(_bits(window), _bits(full[r0:r1, c0:c1]))
            with pytest.raises(ValueError, match="not inside"):
                integral_window(g, 0, rows + 1, 0, cols)

    def test_read_outside_window_raises(self):
        # each (blob, scale) reads exactly the cells of its window, so a
        # window one cell short on any side raises, never wraps around
        frame = SyntheticScene(SceneSpec(seed=11)).frame(120)
        gray = luma(frame.pixels)
        plan = SamplingPlan(interval=9, scales=(9,))
        mask = np.ones((28, 19), dtype=bool)
        [(scale, cxs, cys)] = sample_positions(frame, plan, mask, (20, 30))
        hmar = haar_margin(scale)
        args = (scale, hmar, _subregion_lut(scale), _gauss_weights(scale))
        top, left = cys.min() - scale // 2 - hmar, cxs.min() - scale // 2 - hmar
        bottom = cys.max() - scale // 2 + hmar + scale + 1
        right = cxs.max() - scale // 2 + hmar + scale + 1
        want = sample(SampleContext(frame, gray, plan, [(mask, (20, 30))]))[:, :64]
        table = integral_window(gray, top, bottom, left, right)
        got = _surf_batch(table, cxs - left, cys - top, *args)
        assert np.array_equal(_bits(got), _bits(want))
        full = integral_table(gray[np.newaxis])[0]
        assert np.array_equal(_bits(_surf_batch(full, cxs, cys, *args)), _bits(want))
        for r0, r1, c0, c1 in ((top + 1, bottom, left, right), (top, bottom - 1, left, right),
                               (top, bottom, left + 1, right), (top, bottom, left, right - 1)):
            table = integral_window(gray, r0, r1, c0, c1)
            with pytest.raises(IndexError):
                _surf_batch(table, cxs - c0, cys - r0, *args)

    def test_context_leaves_luma_writeable(self):
        # the luma buffer stays the caller's to reuse on the next frame
        frame = SyntheticScene(SceneSpec(seed=7)).frame(0)
        gray = luma(frame.pixels)
        mask = np.ones((frame.height, frame.width), dtype=bool)
        sample(SampleContext(frame, gray, SamplingPlan(), [(mask, (0, 0))]))
        assert gray.flags.writeable

    @pytest.mark.parametrize("plan", WINDOW_PLANS, ids=["9", "9+15"])
    def test_blobs_at_frame_edges(self, rng, plan):
        # each blob in a context of its own, then all of them in one, with
        # windows that overlap and blobs without descriptors between others
        frame = SyntheticScene(SceneSpec(seed=11)).frame(120)
        gray = luma(frame.pixels)
        blobs = _edge_blobs(rng, frame.width, frame.height)
        sampled = [self._check(frame, plan, [blob], gray) for blob in blobs]
        assert sum(sampled) >= 20
        first, last = sampled.index(1), len(sampled) - 1 - sampled[::-1].index(1)
        assert 0 in sampled[first:last]
        assert self._check(frame, plan, blobs, gray) == sum(sampled)

    def test_two_scale_plan_matches_per_region_loop(self, rng):
        # one SURF batch and one scope count per scale, for three regions
        # of which the middle one, beside the frame's left edge, fits the
        # 9-pixel kernel but not the 15-pixel one, against one of each per
        # (region, scale)
        frame = SyntheticScene(SceneSpec(seed=11)).frame(120)
        plan = SamplingPlan(interval=4, scales=(9, 15))
        masks = [
            np.ones((30, 30), dtype=bool),
            np.ones((40, 4), dtype=bool),
            rng.random((25, 41)) < 0.7,
        ]
        regions = list(zip(masks, [(100, 80), (5, 100), (200, 150)]))
        ctx = SampleContext(frame, luma(frame.pixels), plan, regions)
        per_scale = [[len(cxs) for _, cxs, _ in p] for p in ctx.placements]
        assert all(n > 0 for n in per_scale[0] + per_scale[2])
        assert per_scale[1][0] > 0 and per_scale[1][1] == 0
        want, want_bins = sample_per_region(ctx)
        got = sample(ctx)
        assert got.shape == want.shape == (ctx.counts.sum(), 88)
        assert np.array_equal(_bits(got), _bits(want))
        bins = histogram_from_pixels(ctx.keys, ctx.labels, 3)
        assert np.array_equal(_bits(bins), _bits(want_bins))
