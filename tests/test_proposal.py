import copy
import itertools
import tracemalloc

import numpy as np
import pytest

from pyrovigil.imaging import ColorSpace, Frame, luma
from pyrovigil.proposal import (
    BackgroundModel,
    _bg_update,
    ProposalConfig,
    ProposalEngine,
    binary_open3,
    extract_blobs,
    label_components,
    multi_level_threshold,
    pick_threshold,
)
from pyrovigil.synth import SceneSpec, SyntheticScene

from oracles import BackgroundModelFloat64, luma_float, paint_runs


def _flood_fill_labels(mask):
    """Reference labeller: per-pixel 8-connected flood fill, components
    numbered in the raster order of their first pixel."""
    h, w = mask.shape
    labels = np.zeros((h, w), dtype=np.int32)
    count = 0
    for sy, sx in zip(*np.nonzero(mask)):
        if labels[sy, sx] != 0:
            continue
        count += 1
        stack = [(int(sy), int(sx))]
        labels[sy, sx] = count
        while stack:
            y, x = stack.pop()
            for ny in range(max(0, y - 1), min(h, y + 2)):
                for nx in range(max(0, x - 1), min(w, x + 2)):
                    if mask[ny, nx] and labels[ny, nx] == 0:
                        labels[ny, nx] = count
                        stack.append((ny, nx))
    return labels, count


def _painted_labels(mask):
    """(label image, count) painted from the runs of `label_components`."""
    rows, starts, ends, labels, count = label_components(mask)
    return paint_runs(np.shape(mask), rows, starts, ends, labels), count


def _assert_matches_flood_fill(mask):
    rows, starts, ends, labels, count = label_components(mask)
    want_labels, want_count = _flood_fill_labels(mask)
    assert count == want_count
    assert np.array_equal(paint_runs(mask.shape, rows, starts, ends, labels), want_labels)
    # maximal, non-empty runs in raster order
    assert np.all(starts < ends)
    same_row = rows[1:] == rows[:-1]
    assert np.all(rows[1:] >= rows[:-1])
    assert np.all(ends[:-1][same_row] < starts[1:][same_row])
    assert int((ends - starts).sum()) == int(mask.sum())


def _count(mask):
    return label_components(mask)[-1]


def _blobs_from_flood_fill(mask, min_area):
    """Reference blobs: each flood-fill component's pixels, bbox, area,
    and perimeter (`_perimeter_oracle`); sorted like `extract_blobs`."""
    labels, count = _flood_fill_labels(mask)
    blobs = []
    for k in range(1, count + 1):
        ys, xs = np.nonzero(labels == k)
        if ys.size < min_area:
            continue
        x0, y0 = int(xs.min()), int(ys.min())
        local = labels[y0 : ys.max() + 1, x0 : xs.max() + 1] == k
        blobs.append((
            (x0, y0, local.shape[1], local.shape[0]),
            int(ys.size),
            _perimeter_oracle(local),
            local,
        ))
    blobs.sort(key=lambda b: (-b[1], b[0][1], b[0][0]))
    return blobs


def _assert_blobs_match_oracle(mask, min_area=1):
    got = extract_blobs(mask, min_area)
    want = _blobs_from_flood_fill(mask, min_area)
    assert len(got) == len(want)
    for b, (bbox, area, perimeter, local) in zip(got, want):
        assert b.bbox == bbox and b.area == area and b.perimeter == perimeter
        assert b.mask.dtype == bool and np.array_equal(b.mask, local)


def _serpentine(h, w):
    # columns joined alternately at the top and the bottom row
    mask = np.zeros((h, w), dtype=bool)
    mask[:, ::2] = True
    mask[0, 1::4] = True
    mask[-1, 3::4] = True
    return mask


def _spiral(n):
    # one clockwise path inwards, arms one pixel apart
    mask = np.zeros((n, n), dtype=bool)
    y, x, dy, dx = 0, 0, 0, 1
    mask[y, x] = True
    for length in (n - 1 - 2 * (i // 2) for i in range(1, n)):
        if length <= 0:
            break
        for _ in range(length):
            y, x = y + dy, x + dx
            mask[y, x] = True
        dy, dx = dx, -dy
    return mask


def _bg_update_gather(mean, var, gray, rho, lam, var_floor, warmup_phase):
    """Reference background update: gathers the learning pixels, updates
    them and scatters them back."""
    d = gray - mean
    if warmup_phase:
        fg = np.zeros(gray.shape, dtype=bool)
    else:
        std = np.maximum(np.sqrt(var), var_floor)
        fg = np.abs(d) > lam * std
    learn = ~fg
    mean[learn] = (1.0 - rho) * mean[learn] + rho * gray[learn]
    var[learn] = (1.0 - rho) * var[learn] + rho * d[learn] ** 2
    return fg


def _owned_buffers(shape):
    """Scratch planes and a foreground mask for `_bg_update`, filled with
    values it must overwrite."""
    return tuple(np.full(shape, np.nan) for _ in range(3)), np.ones(shape, dtype=bool)


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _open3_oracle(mask):
    """Reference 3x3 open: per-pixel erosion, then dilation; pixels off the
    frame are background."""
    h, w = mask.shape

    def window(m, y, x):
        return [
            0 <= y + dy < h and 0 <= x + dx < w and bool(m[y + dy, x + dx])
            for dy in (-1, 0, 1)
            for dx in (-1, 0, 1)
        ]

    eroded = np.zeros((h, w), dtype=bool)
    opened = np.zeros((h, w), dtype=bool)
    for y in range(h):
        for x in range(w):
            eroded[y, x] = all(window(mask, y, x))
    for y in range(h):
        for x in range(w):
            opened[y, x] = any(window(eroded, y, x))
    return opened


def _perimeter_oracle(local):
    """Pixels of the box-local mask with a 4-neighbour off the mask or off
    the box."""
    h, w = local.shape
    count = 0
    for y in range(h):
        for x in range(w):
            if not local[y, x]:
                continue
            for ny, nx in ((y - 1, x), (y + 1, x), (y, x - 1), (y, x + 1)):
                if not (0 <= ny < h and 0 <= nx < w and local[ny, nx]):
                    count += 1
                    break
    return count


class TestBackgroundModel:
    def test_static_scene_empty_after_warmup(self, rng):
        bg = BackgroundModel(20, 30, ProposalConfig(warmup=25))
        scene = rng.normal(100.0, 1.5, (20, 30))
        fg = None
        for _ in range(50):
            fg = bg.update(scene + rng.normal(0, 1.5, (20, 30)))
        assert fg.sum() == 0

    def test_appearing_square_detected(self):
        base = np.full((40, 40), 90.0)
        bg = BackgroundModel(40, 40, ProposalConfig(warmup=25))
        for _ in range(30):
            bg.update(base)
        lit = base.copy()
        lit[10:20, 15:25] = 220.0
        fg = bg.update(lit)
        want = np.zeros((40, 40), dtype=bool)
        want[10:20, 15:25] = True
        assert np.array_equal(fg, want)
        # selective update: the square stays foreground, not absorbed
        for _ in range(30):
            fg = bg.update(lit)
        assert np.array_equal(fg, want)

    def test_rho_one_is_frame_differencing(self, rng):
        bg = BackgroundModel(5, 5, ProposalConfig(rho=1.0, warmup=3))
        a = rng.uniform(0, 255, (5, 5))
        b = rng.uniform(0, 255, (5, 5))
        bg.update(a)
        bg.update(b)
        assert np.array_equal(bg.mean, b.astype(np.float32))

    def test_dimension_mismatch(self):
        bg = BackgroundModel(4, 4)
        with pytest.raises(ValueError, match="shape"):
            bg.update(np.zeros((5, 5)))

    def test_mean_converges_on_noisy_static_scene(self, rng):
        sigma_n = 3.0
        truth = rng.uniform(60, 120, (16, 16))
        bg = BackgroundModel(16, 16, ProposalConfig(rho=0.01, warmup=25))
        frames = 120
        for _ in range(frames):
            bg.update(truth + rng.normal(0, sigma_n, (16, 16)))
        eff_window = min(frames, (2 - bg.rho) / bg.rho)
        bound = 2 * sigma_n / np.sqrt(eff_window)
        err = np.abs(bg.mean - truth)
        assert (err <= bound).mean() >= 0.9

    def test_variance_nonnegative(self, rng):
        bg = BackgroundModel(8, 8)
        for _ in range(40):
            bg.update(rng.uniform(0, 255, (8, 8)))
        assert (bg.var >= 0).all()

    def test_update_matches_gather_oracle(self, rng):
        lam, var_floor = 2.5, 4.0
        scene = SyntheticScene(SceneSpec(seed=7, flame_onset=12))
        synth = [luma(scene.frame(t).pixels) for t in range(30)]
        noise = [rng.uniform(0, 255, (240, 320)) for _ in range(4)]
        # (frame, rho, warm-up): warm-up at 1/t, then the configured rate
        # with the flame appearing, then random frames and rho = 1
        steps = [(synth[t], 1.0 / (t + 1), True) for t in range(1, 10)]
        steps += [(synth[t], 0.01, False) for t in range(10, 30)]
        steps += [(noise[0], 1.0, True), (noise[1], 0.01, False)]
        steps += [(noise[2], 1.0, False), (noise[3], 0.01, False)]
        mean, var = synth[0].copy(), np.full((240, 320), var_floor * var_floor)
        want_mean, want_var = mean.copy(), var.copy()
        # one set of buffers for every step, as a model reuses its own
        planes, fg_out = _owned_buffers((240, 320))
        clamped = False
        for gray, rho, warmup in steps:
            clamped |= bool((var < var_floor * var_floor).any())
            fg = _bg_update(mean, var, gray, rho, lam, var_floor, warmup, planes, fg_out)
            assert fg is fg_out
            want_fg = _bg_update_gather(
                want_mean, want_var, gray, rho, lam, var_floor, warmup
            )
            assert np.array_equal(fg, want_fg)
            assert _same_bits(mean, want_mean) and _same_bits(var, want_var)
        assert clamped  # some pixels had their deviation raised to the floor

    def test_update_matches_gather_oracle_at_the_bound(self, rng):
        lam, var_floor = 2.5, 4.0
        mean = rng.uniform(0, 255, (240, 320))
        var = rng.uniform(0, 40, (240, 320))
        # rows 0-1: std 4 exactly; rows 2-3: std 1, raised to the floor 4;
        # both put the bound lam * std at 10 exactly
        mean[:4] = 100.0
        var[:2], var[2:4] = 16.0, 1.0
        gray = rng.uniform(0, 255, (240, 320))
        gray[:4, 0::3] = 110.0  # |d| == bound: background
        gray[:4, 1::3] = 90.0
        gray[:4, 2::3] = np.nextafter(110.0, 200.0)  # just past it
        want_mean, want_var = mean.copy(), var.copy()
        fg = _bg_update(
            mean, var, gray, 0.01, lam, var_floor, False, *_owned_buffers((240, 320))
        )
        want_fg = _bg_update_gather(want_mean, want_var, gray, 0.01, lam, var_floor, False)
        assert not fg[:4, 0::3].any() and not fg[:4, 1::3].any()
        assert fg[:4, 2::3].all()
        assert np.array_equal(fg, want_fg)
        assert _same_bits(mean, want_mean) and _same_bits(var, want_var)


def _masks_pair(config=ProposalConfig()):
    """A float32 model and the float64 one it replaced, for 320x240."""
    return BackgroundModel(240, 320, config), BackgroundModelFloat64(240, 320, config)


class TestFloat32Model:
    """The float32 model gives the foreground masks of the float64 model
    it replaced, so blobs and alarms stay as they were."""

    @pytest.mark.parametrize("seed", [7, 11, 13])
    def test_masks_match_float64_model(self, seed):
        model, want = _masks_pair()
        foreground = 0
        for frame in SyntheticScene(SceneSpec(seed=seed)).frames(400):
            gray = luma(frame.pixels)
            fg = model.update(gray)
            assert np.array_equal(fg, want.update(gray))
            # the state too, to float32's rounding (3e-4 at most here)
            np.testing.assert_allclose(model.mean, want.mean, rtol=0, atol=1e-3)
            np.testing.assert_allclose(model.var, want.var, rtol=0, atol=1e-3)
            foreground += int(fg.sum())
        assert foreground > 0

    def test_masks_match_after_luma_scaling(self):
        # a global change leaves most pixels foreground for good: the
        # slow path, at luma levels the plain scenes never reach
        frames = SyntheticScene(SceneSpec(seed=7)).frames(400)
        model, want = _masks_pair()
        for frame in itertools.islice(frames, 150):
            gray = luma(frame.pixels)
            assert np.array_equal(model.update(gray), want.update(gray))
        pairs = {
            gain: (copy.deepcopy(model), copy.deepcopy(want)) for gain in (0.3, 3.0, 6.5)
        }
        for frame in frames:
            gray = luma(frame.pixels)
            for gain, (scaled, scaled_want) in pairs.items():
                fg = scaled.update(gray * gain)
                assert np.array_equal(fg, scaled_want.update(gray * gain)), gain
                assert fg.mean() > 0.5
        assert all(m.frames_absorbed == 400 for m, _ in pairs.values())

    def test_shifted_frames_keep_candidates_and_blobs(self):
        # a (3, 4) px shift from frame 150 leaves a few foreground pixels on
        # either side of a bound; none of them survives into a candidate
        engine = ProposalEngine(ProposalConfig(), 320, 240)
        want = ProposalEngine(ProposalConfig(), 320, 240)
        want.model = BackgroundModelFloat64(240, 320)
        blobs_seen = 0
        for frame in SyntheticScene(SceneSpec(seed=7)).frames(400):
            if frame.index >= 150:
                pixels = np.roll(frame.pixels, (3, 4), axis=(0, 1))
                frame = Frame(pixels, ColorSpace.RGB, frame.index)
            blobs, cand = engine.propose(frame)
            want_blobs, want_cand = want.propose(frame)
            assert [_blob_key(b) for b in blobs] == [_blob_key(b) for b in want_blobs]
            assert np.array_equal(cand.mask, want_cand.mask)
            assert cand.threshold == want_cand.threshold
            blobs_seen += len(blobs)
        assert blobs_seen > 100

    def test_state_stays_float32(self, rng):
        bg = BackgroundModel(24, 32)
        for gray in (rng.uniform(0, 255, (24, 32)), rng.integers(0, 256, (24, 32))):
            for _ in range(bg.warmup + 2):
                bg.update(gray)
        planes = (bg.mean, bg.var, bg._gray) + bg._planes
        assert all(p.dtype == np.float32 for p in planes)
        assert all(type(v) is np.float32 for v in (bg.rho, bg.lam, bg.var_floor))


class TestMultiLevelThreshold:
    def test_black_scene_top_rung(self):
        assert pick_threshold(0.0) == 220.0
        mask = multi_level_threshold(np.zeros((4, 4)), 0.0)
        assert mask.threshold == 220.0
        assert mask.mask.sum() == 0

    def test_white_scene_bottom_rung(self):
        assert pick_threshold(255.0) == 160.0
        mask = multi_level_threshold(np.full((4, 4), 255.0), 255.0)
        assert mask.threshold == 160.0
        assert mask.mask.all()

    def test_equally_near_rungs_pick_the_higher(self):
        # mean 63.75 targets 205, halfway between 220 and 190
        assert pick_threshold(63.75) == 220.0
        assert pick_threshold(63.75, (160.0, 190.0, 220.0)) == 220.0
        # mean 191.25 targets 175, halfway between 190 and 160
        assert pick_threshold(191.25) == 190.0

    def test_midgray_with_saturated_patch(self):
        gray = np.full((30, 30), 128.0)
        gray[5:10, 5:12] = 255.0
        mask = multi_level_threshold(gray, float(gray.mean()))
        # q ~ 0.52 -> continuous 188.6 -> nearest rung 190
        assert mask.threshold == 190.0
        want = np.zeros((30, 30), dtype=bool)
        want[5:10, 5:12] = True
        assert np.array_equal(mask.mask, want)

    def test_mask_monotone_in_threshold(self, rng):
        gray = rng.uniform(0, 255, (20, 20))
        masks = [gray >= t for t in (160.0, 190.0, 220.0)]
        assert (masks[2] <= masks[1]).all()
        assert (masks[1] <= masks[0]).all()


class TestMorphology:
    def test_open_removes_specks_keeps_blocks(self):
        mask = np.zeros((12, 12), dtype=bool)
        mask[2, 2] = True  # single speck
        mask[5:10, 5:10] = True  # solid block
        out = binary_open3(mask)
        assert not out[2, 2]
        assert out[6:9, 6:9].all()

    def test_open_idempotent(self, rng):
        mask = rng.random((30, 30)) > 0.4
        once = binary_open3(mask)
        twice = binary_open3(once)
        assert np.array_equal(once, twice)

    def test_open_never_adds_outside_dilation_of_erosion(self):
        mask = np.ones((6, 6), dtype=bool)
        out = binary_open3(mask)
        assert out.all()  # erosion keeps the 4x4 interior; dilation refills

    @pytest.mark.parametrize("density", [0.1, 0.5, 0.7, 0.9])
    def test_open_matches_oracle(self, rng, density):
        for _ in range(6):
            h, w = rng.integers(3, 41, 2)
            mask = rng.random((h, w)) < density
            assert np.array_equal(binary_open3(mask), _open3_oracle(mask))

    @pytest.mark.parametrize("shape", [(1, 1), (1, 12), (12, 1), (2, 2), (3, 3)])
    def test_open_matches_oracle_on_thin_masks(self, rng, shape):
        for mask in (np.ones(shape, dtype=bool), rng.random(shape) < 0.6):
            out = binary_open3(mask)
            assert out.shape == mask.shape
            assert np.array_equal(out, _open3_oracle(mask))
        # nothing under three pixels across survives the erosion
        assert binary_open3(np.ones(shape, dtype=bool)).all() == (shape == (3, 3))


class TestLabeling:
    def test_two_components(self):
        mask = np.zeros((10, 10), dtype=bool)
        mask[1:4, 1:4] = True
        mask[6:9, 6:9] = True
        labels, count = _painted_labels(np.ascontiguousarray(mask))
        assert count == 2
        assert set(np.unique(labels)) == {0, 1, 2}

    def test_diagonal_is_connected(self):
        mask = np.zeros((4, 4), dtype=bool)
        mask[0, 0] = mask[1, 1] = mask[2, 2] = True
        assert _count(np.ascontiguousarray(mask)) == 1

    def test_partition_property(self, rng):
        mask = binary_open3(rng.random((40, 40)) > 0.45)
        blobs = extract_blobs(mask, min_area=1)
        assert sum(b.area for b in blobs) == int(mask.sum())
        # no pixel in two blobs
        cover = np.zeros_like(mask, dtype=int)
        for b in blobs:
            cover[b.y : b.y + b.h, b.x : b.x + b.w] += b.mask
        assert cover.max() <= 1


class TestLabelingOracle:
    def test_random_masks(self, rng):
        for _ in range(300):
            h, w = rng.integers(1, 61, 2)
            _assert_matches_flood_fill(rng.random((h, w)) < rng.uniform(0.1, 0.9))

    @pytest.mark.parametrize("density", [0.2, 0.45, 0.6, 0.8])
    def test_large_random_masks(self, rng, density):
        _assert_matches_flood_fill(rng.random((90, 120)) < density)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 17), (17, 1), (3, 64), (64, 3)])
    def test_thin_masks(self, rng, shape):
        for density in (0.3, 0.7):
            _assert_matches_flood_fill(rng.random(shape) < density)

    @pytest.mark.parametrize("shape", [(1, 9), (9, 1), (12, 15)])
    def test_all_true_and_all_false(self, shape):
        _assert_matches_flood_fill(np.ones(shape, dtype=bool))
        _assert_matches_flood_fill(np.zeros(shape, dtype=bool))
        assert _count(np.ones(shape, dtype=bool)) == 1
        assert _count(np.zeros(shape, dtype=bool)) == 0

    def test_frame_border_blobs(self):
        mask = np.zeros((20, 30), dtype=bool)
        mask[0, :] = True  # top row
        mask[5:15, 0] = True  # left column, apart from the top row
        mask[-3:, -3:] = True  # bottom-right corner
        mask[-1, 10:20] = True  # bottom row
        mask[8:12, -1] = True  # right column
        mask[-1, 0] = True  # bottom-left pixel
        _assert_matches_flood_fill(mask)
        assert _count(mask) == 6

    @pytest.mark.parametrize("shape", [(31, 40), (40, 31), (7, 64)])
    def test_serpentine(self, shape):
        mask = _serpentine(*shape)
        _assert_matches_flood_fill(mask)
        _assert_matches_flood_fill(np.ascontiguousarray(mask.T))
        assert _count(mask) == 1

    @pytest.mark.parametrize("n", [5, 16, 33])
    def test_spiral(self, n):
        mask = _spiral(n)
        _assert_matches_flood_fill(mask)
        _assert_matches_flood_fill(np.ascontiguousarray(mask[:, ::-1]))
        assert _count(mask) == 1

    def test_diagonal_chains(self):
        eye = np.eye(12, 15, dtype=bool)
        _assert_matches_flood_fill(eye)
        _assert_matches_flood_fill(np.ascontiguousarray(eye[:, ::-1]))
        # a V and a W: arms that start apart and meet further down
        v = np.eye(10, 20, dtype=bool) | np.eye(10, 20, dtype=bool)[:, ::-1]
        w = np.zeros((10, 40), dtype=bool)
        w[:, :20] = v
        w[:, 19:39] |= v
        _assert_matches_flood_fill(v)
        _assert_matches_flood_fill(w)
        assert _count(v) == 1 and _count(w) == 1
        # parallel anti-diagonals two columns apart stay separate
        hatch = np.zeros((12, 30), dtype=bool)
        for x0 in range(12, 30, 2):
            for y in range(12):
                hatch[y, x0 - y] = True
        _assert_matches_flood_fill(hatch)

    @pytest.mark.parametrize("t", [0, 130])
    def test_opened_mask_of_synth_frame(self, t):
        frame = SyntheticScene(SceneSpec(seed=7, flame_onset=100)).frame(t)
        engine = ProposalEngine(ProposalConfig(camera="moving"), frame.width, frame.height)
        _, cand = engine.propose(frame)
        assert cand.mask.shape == (240, 320) and cand.mask.any()
        _assert_matches_flood_fill(cand.mask)


class TestExtractBlobs:
    def test_empty_mask(self):
        assert extract_blobs(np.zeros((5, 5), dtype=bool)) == []

    def test_two_squares_sorted_by_area(self):
        mask = np.zeros((40, 40), dtype=bool)
        mask[5:15, 5:15] = True  # 100 px
        mask[25:30, 20:30] = True  # 50 px
        blobs = extract_blobs(mask, min_area=30)
        assert len(blobs) == 2
        assert blobs[0].area == 100 and blobs[1].area == 50
        assert blobs[0].bbox == (5, 5, 10, 10)

    def test_min_area_filters_everything(self):
        mask = np.zeros((20, 20), dtype=bool)
        mask[2:5, 2:5] = True
        assert extract_blobs(mask, min_area=50) == []

    def test_blob_geometry(self):
        mask = np.zeros((20, 20), dtype=bool)
        mask[3:9, 4:14] = True  # 6 rows x 10 cols
        (b,) = extract_blobs(mask)
        assert b.bbox == (4, 3, 10, 6)
        assert b.area == 60
        assert b.perimeter == 2 * (10 + 6) - 4
        assert b.mask.shape == (6, 10) and b.mask.all()

    def test_eight_connectivity(self):
        mask = np.zeros((6, 6), dtype=bool)
        mask[1, 1] = mask[2, 2] = mask[3, 3] = True
        blobs = extract_blobs(mask)
        assert len(blobs) == 1
        assert blobs[0].area == 3

    @pytest.mark.parametrize("density", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_matches_flood_fill_oracle(self, rng, density):
        for _ in range(20):
            h, w = rng.integers(1, 50, 2)
            _assert_blobs_match_oracle(rng.random((h, w)) < density)
        mask = rng.random((60, 80)) < density
        for min_area in (1, 5, 40):
            _assert_blobs_match_oracle(mask, min_area)

    @pytest.mark.parametrize("shape", [(31, 40), (40, 31), (7, 64)])
    def test_serpentine_matches_oracle(self, shape):
        _assert_blobs_match_oracle(_serpentine(*shape))
        _assert_blobs_match_oracle(np.ascontiguousarray(_serpentine(*shape).T))

    @pytest.mark.parametrize("n", [5, 16, 33])
    def test_spiral_matches_oracle(self, n):
        _assert_blobs_match_oracle(_spiral(n))
        _assert_blobs_match_oracle(np.ascontiguousarray(_spiral(n)[:, ::-1]))

    def test_frame_border_blobs_match_oracle(self):
        mask = np.zeros((20, 30), dtype=bool)
        mask[0, :] = True
        mask[5:15, 0] = True
        mask[-3:, -3:] = True
        mask[-1, 10:20] = True
        mask[8:12, -1] = True
        mask[-1, 0] = True
        _assert_blobs_match_oracle(mask)
        _assert_blobs_match_oracle(mask, min_area=4)
        _assert_blobs_match_oracle(np.ones((7, 9), dtype=bool))

    @pytest.mark.parametrize("density", [0.3, 0.6, 0.85])
    def test_perimeter_matches_oracle(self, rng, density):
        mask = rng.random((40, 50)) < density
        blobs = extract_blobs(mask)
        assert blobs
        for b in blobs:
            assert b.perimeter == _perimeter_oracle(b.mask)


def _gray_rgb_frame(levels):
    """An RGB frame with three equal channels of 8-bit `levels`, whose luma
    is exactly those levels (as it is for each level used here)."""
    px = np.asarray(levels).astype(np.uint8)
    frame = Frame(np.repeat(px[:, :, None], 3, axis=2), ColorSpace.RGB)
    assert np.array_equal(luma(frame.pixels), levels)
    return frame


class TestPropose:
    def test_synthetic_two_squares(self):
        px = np.full((60, 80), 40.0)
        px[10:20, 10:20] = 250.0  # 100 px bright square
        px[40:45, 50:60] = 250.0  # 50 px
        frame = _gray_rgb_frame(px)
        cfg = ProposalConfig(camera="moving", min_blob_area=30)
        blobs, _ = ProposalEngine(cfg, 80, 60).propose(frame)
        assert len(blobs) == 2
        assert abs(blobs[0].area - 100) <= 10
        assert abs(blobs[1].area - 50) <= 5

    def test_empty_scene(self):
        frame = _gray_rgb_frame(np.zeros((40, 40)))
        engine = ProposalEngine(ProposalConfig(camera="moving"), 40, 40)
        assert engine.propose(frame)[0] == []

    def test_intersection_with_background_model(self):
        cfg = ProposalConfig(min_blob_area=4, warmup=5)
        engine = ProposalEngine(cfg, 40, 40)
        base = np.full((40, 40), 60.0)
        bright = base.copy()
        bright[5:15, 5:15] = 245.0  # static bright square, absorbed in warmup
        for _ in range(30):
            blobs, mask = engine.propose(_gray_rgb_frame(bright))
        assert blobs == []  # bright but background
        lit = bright.copy()
        lit[25:35, 25:35] = 250.0  # new bright square
        blobs, mask = engine.propose(_gray_rgb_frame(lit))
        assert len(blobs) == 1
        assert blobs[0].bbox[0] >= 24

    def test_min_area_scales_with_resolution(self):
        cfg = ProposalConfig(min_blob_area=64)
        assert cfg.scaled_min_area(320, 240) == 64
        assert cfg.scaled_min_area(640, 480) == 256
        assert cfg.scaled_min_area(160, 120) == 16

    def test_rolling_brightness_keeps_last_window(self):
        engine = ProposalEngine(ProposalConfig(camera="moving", stats_window=3), 8, 8)
        for level in (10.0, 20.0, 30.0, 40.0, 50.0):
            engine.absorb(_gray_rgb_frame(np.full((8, 8), level)))
        assert list(engine._recent_means) == [30.0, 40.0, 50.0]

    @pytest.mark.parametrize("space", [ColorSpace.GRAY])
    def test_only_rgb_absorbed(self, space):
        engine = ProposalEngine(ProposalConfig(camera="moving"), 8, 8)
        with pytest.raises(ValueError, match=f"from {space.value} frame"):
            engine.absorb(Frame(np.zeros((8, 8)), space))

    def test_empty_rolling_window_rejected(self):
        # an empty window left the first propose dividing by zero
        with pytest.raises(ValueError, match="stats_window must be >= 1"):
            ProposalEngine(ProposalConfig(camera="moving", stats_window=0), 8, 8)

    def test_moving_camera_threshold_only(self):
        px = np.full((30, 30), 100.0)
        px[4:12, 4:12] = 255.0
        engine = ProposalEngine(ProposalConfig(camera="moving"), 30, 30)
        blobs, mask = engine.propose(_gray_rgb_frame(px))
        assert engine.model is None
        assert mask.threshold == pick_threshold(px.mean()) == 190.0
        assert np.array_equal(mask.mask, px >= 190.0)
        assert [b.bbox for b in blobs] == [(4, 4, 8, 8)]


def _blob_key(b):
    return (b.bbox, b.area, b.perimeter, b.mask.shape, b.mask.tobytes())


class TestAbsorb:
    """`absorb` on the frames between decisions leaves the engine in the
    state `propose` on every frame would, so decision frames give the
    same blobs and masks bit for bit."""

    @pytest.mark.parametrize("camera", ["static", "moving"])
    def test_matches_propose_on_every_frame(self, camera):
        scene = SyntheticScene(SceneSpec(seed=7, flame_onset=40))
        cfg = ProposalConfig(camera=camera)
        every = ProposalEngine(cfg, 320, 240)  # proposes on every frame
        strided = ProposalEngine(cfg, 320, 240)  # absorbs 4 frames in 5
        blobs_seen = 0
        for frame in scene.frames(120):
            want_blobs, want_cand = every.propose(frame)
            if frame.index % 5:
                fg = strided.absorb(frame)
                if camera == "moving":
                    assert fg is None
                else:
                    assert fg.dtype == bool and fg.shape == (240, 320)
            else:
                got_blobs, got_cand = strided.propose(frame)
                assert [_blob_key(b) for b in got_blobs] == [
                    _blob_key(b) for b in want_blobs
                ]
                assert np.array_equal(got_cand.mask, want_cand.mask)
                assert got_cand.threshold == want_cand.threshold
                blobs_seen += len(got_blobs)
            if camera == "static":
                assert _same_bits(strided.model.mean, every.model.mean)
                assert _same_bits(strided.model.var, every.model.var)
                assert strided.model.frames_absorbed == every.model.frames_absorbed
            else:
                assert strided.model is None
            assert strided._recent_means == every._recent_means
            assert _same_bits(strided.gray, every.gray)
            assert strided.index == every.index == frame.index
        assert blobs_seen > 10

    @pytest.mark.parametrize("camera", ["static", "moving"])
    def test_absorb_allocates_no_frame_plane(self, camera):
        # luma and the background update go to planes the engine owns; what
        # one absorb allocates is smaller than one float32 plane
        scene = SyntheticScene(SceneSpec(seed=7, flame_onset=30))
        engine = ProposalEngine(ProposalConfig(camera=camera), 320, 240)
        frames = list(scene.frames(40))
        for frame in frames[:-1]:
            engine.absorb(frame)
        assert camera == "moving" or engine.model.frames_absorbed > engine.model.warmup
        tracemalloc.start()
        try:
            fg = engine.absorb(frames[-1])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 320 * 240 * 4
        assert _same_bits(engine.gray, luma_float(frames[-1].pixels))
        assert camera == "moving" or fg.any()  # the flame is foreground
