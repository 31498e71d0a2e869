import weakref

import numpy as np
import pytest

from pyrovigil.pipeline import PipelineConfig
from pyrovigil.proposal import Blob, extract_blobs
from pyrovigil.temporal import (
    WINDOW,
    BlobTrack,
    Stability,
    StabilityThresholds,
    Tracker,
    TrackState,
    bbox_iou,
    classify_stability,
    spatial_distribution,
    window_stats,
)


def make_blob(x, y, mask):
    mask = np.asarray(mask, dtype=bool)
    h, w = mask.shape
    p = np.pad(mask, 1)
    interior = p[:-2, 1:-1] & p[2:, 1:-1] & p[1:-1, :-2] & p[1:-1, 2:]
    return Blob(
        x=x, y=y, w=w, h=h,
        area=int(mask.sum()),
        perimeter=int((mask & ~interior).sum()),
        mask=mask,
    )


def square_blob(x, y, side):
    return make_blob(x, y, np.ones((side, side)))


INDOOR = StabilityThresholds.preset("indoor")
# the tracker takes the pipeline's matching and gap settings as arguments
IOU, GAP = PipelineConfig.iou_threshold, PipelineConfig.track_max_gap


def flame_band_samples():
    """(p, a, d1..d4) rows with steady perimeter/area but a quadrant
    balance that churns: the hand-built flame signature."""
    samples = []
    for i in range(WINDOW):
        a = 400.0 * (1 + 0.05 * np.sin(i))
        s1 = 0.45 * np.sin(i * 1.7)
        s2 = 0.45 * np.cos(i * 2.3)
        d1 = a * 0.25 * (1 + s1)
        d2 = a * 0.25 * (1 - s1)
        d3 = a * 0.25 * (1 + s2)
        d4 = a * 0.25 * (1 - s2)
        samples.append((80.0, a, d1, d2, d3, d4))
    return samples


def flame_band_blobs():
    """A window of blobs with a fixed 20x20 box, area and perimeter whose
    7x7 hole cycles through the four quadrants: the flame signature as a
    tracker sees it."""
    blobs = []
    for i in range(WINDOW):
        m = np.ones((20, 20), dtype=bool)
        r, c = ((2, 2), (2, 11), (11, 2), (11, 11))[i % 4]
        m[r : r + 7, c : c + 7] = False
        blobs.append(make_blob(20, 20, m))
    return blobs


def verdict_frame(tracker, blobs):
    """Feed one blob per frame; (frame of the first confirmation or None,
    the confirmations)."""
    first, confirmed = None, []
    for t, blob in enumerate(blobs):
        new = tracker.update([blob], t, [0.0])
        if new and first is None:
            first = t
        confirmed += new
    return first, confirmed


def samples_of(blobs):
    """The window a track holds after seeing `blobs`."""
    tr = BlobTrack(track_id=1)
    for i, blob in enumerate(blobs):
        tr.add_sample(blob, i, 0.0)
    return list(tr.samples)


def stability_of(samples, thresholds=INDOOR):
    return classify_stability(*window_stats(samples), thresholds)


class TestSpatialDistribution:
    def test_solid_square_equal_quadrants(self):
        d = spatial_distribution(square_blob(0, 0, 8))
        assert d == (16, 16, 16, 16)

    def test_odd_dims_extra_to_lower_right(self):
        d = spatial_distribution(square_blob(0, 0, 5))
        # split at 2: quadrants 2x2, 2x3, 3x2, 3x3
        assert d == (4, 6, 6, 9)
        assert sum(d) == 25

    def test_l_shape_hand_count(self):
        # 6x6 L: full left 2 columns, full bottom 2 rows
        m = np.zeros((6, 6), dtype=bool)
        m[:, :2] = True
        m[4:, :] = True
        blob = make_blob(0, 0, m)
        # hand count: quadrants are 3x3 each;
        # TL: rows 0-2, cols 0-2 -> cols 0,1 filled -> 6
        # TR: rows 0-2, cols 3-5 -> 0
        # BL: rows 3-5: row 3 cols 0,1 + rows 4,5 all -> 2 + 6 = 8
        # BR: rows 3-5, cols 3-5: rows 4,5 -> 6
        assert spatial_distribution(blob) == (6, 0, 8, 6)

    def test_partition_sums_to_area(self, rng):
        for _ in range(20):
            m = rng.random((int(rng.integers(2, 12)), int(rng.integers(2, 12)))) > 0.4
            if not m.any():
                continue
            blobs = extract_blobs(m, min_area=1)
            for b in blobs:
                assert sum(spatial_distribution(b)) == b.area

    def test_tight_bbox_touches_all_sides(self, rng):
        # an extracted blob's bounding box is tight: every side of the
        # local mask carries at least one blob pixel
        for _ in range(20):
            m = rng.random((12, 12)) > 0.55
            for b in extract_blobs(m, min_area=1):
                assert b.mask[0].any() and b.mask[-1].any()
                assert b.mask[:, 0].any() and b.mask[:, -1].any()


class TestWindowStats:
    def test_one_pass_two_pass_agree(self, rng):
        samples = [tuple(rng.uniform(10, 300, 6)) for _ in range(WINDOW)]
        mu_p, sd_p, mu_a, sd_a, sd_d = window_stats(samples)
        arr = np.asarray(samples)
        # two-pass: explicit mean then sum of squared deviations
        p = arr[:, 0]
        two_pass = np.sqrt(((p - p.mean()) ** 2).sum() / len(p))
        # one-pass: E[x^2] - E[x]^2
        one_pass = np.sqrt((p * p).mean() - p.mean() ** 2)
        assert abs(sd_p - two_pass) <= 1e-9 * max(1.0, sd_p)
        assert abs(sd_p - one_pass) <= 1e-9 * max(1.0, sd_p)

    def test_population_std(self):
        samples = [(1.0, 0, 0, 0, 0, 0), (3.0, 0, 0, 0, 0, 0)]
        mu_p, sd_p, *_ = window_stats(samples)
        assert mu_p == 2.0
        assert sd_p == 1.0  # population, not sample, deviation


class TestClassifyStability:
    def test_constant_blob_stable_any_t1(self):
        for t1 in (1e-6, 0.01, 0.5):
            th = StabilityThresholds(t1, t1 * 2)
            assert classify_stability(80.0, 0.0, 400.0, 0.0, 0.0, th) is Stability.STABLE

    def test_strict_inequality_at_t2_boundary(self):
        th = StabilityThresholds(0.15, 0.5)
        # sd_a exactly t2 * mu_a: 0.5 > 0.5 is false -> not unstable
        out = classify_stability(100.0, 20.0, 1.0, 0.5, 0.2, th)
        assert out is Stability.UNDECIDED
        # nudge above the boundary -> unstable
        out = classify_stability(100.0, 20.0, 1.0, 0.5 + 1e-12, 0.2, th)
        assert out is Stability.UNSTABLE

    def test_strict_inequality_at_t1_boundary(self):
        th = StabilityThresholds(0.2, 0.6)
        # sd_p exactly t1 * mu_p: 0.2 < 0.2 false -> not stable
        out = classify_stability(1.0, 0.2, 100.0, 0.0, 0.0, th)
        assert out is Stability.UNDECIDED
        out = classify_stability(1.0, 0.2 - 1e-12, 100.0, 0.0, 0.0, th)
        assert out is Stability.STABLE

    def test_sigma_d_compared_against_area_mean(self):
        th = StabilityThresholds(0.15, 0.40)
        # sd_d above t2 * mu_a triggers unstable even with calm p and a
        out = classify_stability(100.0, 1.0, 200.0, 1.0, 90.0, th)
        assert out is Stability.UNSTABLE


class TestStabilityOnSequences:
    def test_constant_sequence_stable(self):
        assert stability_of([(80, 400, 100, 100, 100, 100)] * WINDOW) is Stability.STABLE

    def test_partial_buffer_undecided(self):
        # ten steady samples read as stable, but a part-filled window
        # gets no verdict yet
        blobs = [square_blob(20, 20, 10)] * 10
        assert stability_of(samples_of(blobs)) is Stability.STABLE
        tracker = Tracker(INDOOR, IOU, GAP)
        first, _ = verdict_frame(tracker, blobs)
        assert first is None
        assert len(tracker.tracks[0].samples) == 10
        assert tracker.tracks[0].state is TrackState.PENDING

    def test_balanced_alternation_not_unstable(self):
        # 12x100, 12x300, 1x200: sd_a/mu_a = sqrt(24/25)*100/200 ~ 0.4899
        areas = [100.0] * 12 + [300.0] * 12 + [200.0]
        samples = [(50.0, a, a / 4, a / 4, a / 4, a / 4) for a in areas]
        mu_p, sd_p, mu_a, sd_a, sd_d = window_stats(samples)
        assert abs(sd_a / mu_a - np.sqrt(24 / 25) * 100 / 200) <= 1e-12
        th = StabilityThresholds(0.15, 0.5)
        assert classify_stability(mu_p, sd_p, mu_a, sd_a, sd_d, th) is Stability.UNDECIDED

    def test_wider_alternation_unstable(self):
        # 100 vs 400 alternating: ratio ~ 0.614 > 0.5
        areas = ([100.0, 400.0] * 13)[:WINDOW]
        samples = [(50.0, a, a / 4, a / 4, a / 4, a / 4) for a in areas]
        assert stability_of(samples, StabilityThresholds(0.15, 0.5)) is Stability.UNSTABLE

    def test_flame_band_undecided(self):
        # anchored flicker: calm perimeter/area, churning quadrants
        for samples in (flame_band_samples(), samples_of(flame_band_blobs())):
            mu_p, sd_p, mu_a, sd_a, sd_d = window_stats(samples)
            assert sd_p < 0.15 * mu_p and sd_a < 0.15 * mu_a  # calm p, a
            assert 0.15 * mu_a < sd_d < 0.40 * mu_a  # churning quadrants
            assert stability_of(samples) is Stability.UNDECIDED

    def test_scale_covariance(self):
        # doubling all pixel coordinates: area x4, perimeter x~2, and the
        # ratio-based verdicts are unchanged for uniform scaling
        small = samples_of([square_blob(0, 0, 6 + (i % 2)) for i in range(WINDOW)])
        big = samples_of([square_blob(0, 0, 12 + 2 * (i % 2)) for i in range(WINDOW)])
        ss = window_stats(small)
        sb = window_stats(big)
        assert abs(sb[2] / ss[2] - 4.0) <= 0.2  # mu_a scales ~x4
        assert 1.8 <= sb[0] / ss[0] <= 2.2  # mu_p scales ~x2
        th = StabilityThresholds(0.05, 0.2)
        assert stability_of(small, th) == stability_of(big, th)


class TestVerdict:
    """`Tracker.update` gives a PENDING track its verdict at the frame its
    window fills, and only then."""

    def test_stable_rejected(self):
        tracker = Tracker(INDOOR, IOU, GAP)
        first, _ = verdict_frame(tracker, [square_blob(20, 20, 10)] * (WINDOW + 5))
        assert first is None
        assert tracker.tracks[0].state is TrackState.REJECTED

    def test_unstable_rejected(self):
        # 12 and 20 px squares alternate on one corner: IoU 0.36 keeps one
        # track, area ratio sd/mu = 128/272 ~ 0.47 > t2
        blobs = [square_blob(20, 20, (12, 20)[i % 2]) for i in range(WINDOW)]
        assert stability_of(samples_of(blobs)) is Stability.UNSTABLE
        tracker = Tracker(INDOOR, IOU, GAP)
        first, _ = verdict_frame(tracker, blobs)
        assert first is None
        assert len(tracker.tracks) == 1
        assert tracker.tracks[0].state is TrackState.REJECTED

    def test_undecided_confirms_fire(self):
        tracker = Tracker(INDOOR, IOU, GAP)
        first, confirmed = verdict_frame(tracker, flame_band_blobs())
        assert first == WINDOW - 1  # the frame that fills the window
        assert confirmed == tracker.tracks
        assert confirmed[0].state is TrackState.FIRE_CONFIRMED

    def test_partial_buffer_no_transition(self):
        tracker = Tracker(INDOOR, IOU, GAP)
        verdict_frame(tracker, [square_blob(20, 20, 10)] * (WINDOW - 1))
        assert not tracker.tracks[0].buffer_full
        assert tracker.tracks[0].state is TrackState.PENDING

    def test_verdict_only_once(self):
        # a rejected lamp that starts to flicker stays rejected
        tracker = Tracker(INDOOR, IOU, GAP)
        lamp = [square_blob(20, 20, 20)] * WINDOW
        first, _ = verdict_frame(tracker, lamp + flame_band_blobs() * 2)
        assert first is None
        assert len(tracker.tracks) == 1
        assert tracker.tracks[0].state is TrackState.REJECTED
        # a confirmed flame that goes still is not confirmed again
        tracker = Tracker(INDOOR, IOU, GAP)
        _, confirmed = verdict_frame(tracker, flame_band_blobs() * 2 + lamp)
        assert len(confirmed) == 1
        assert tracker.tracks[0].state is TrackState.FIRE_CONFIRMED


class TestAssociate:
    """`Tracker.update` matching blobs onto tracks."""

    def test_same_blob_continues_track(self):
        tracker = Tracker(INDOOR, IOU, GAP)
        tracker.update([square_blob(10, 10, 8)], 0, [0.0])
        tracker.update([square_blob(10, 10, 8)], 1, [0.0])
        assert len(tracker.tracks) == 1
        assert len(tracker.tracks[0].samples) == 2
        assert tracker.tracks[0].last_seen == 1

    def test_far_blobs_two_tracks(self):
        tracker = Tracker(INDOOR, IOU, GAP)
        blobs = [square_blob(0, 0, 5), square_blob(30, 30, 5)]
        tracker.update(blobs, 0, [0.5, 1.5])
        # new tracks start in blob order and carry the blob's margin
        assert [(t.track_id, t.bbox, t.last_margin) for t in tracker.tracks] == [
            (1, blobs[0].bbox, 0.5), (2, blobs[1].bbox, 1.5)
        ]

    def test_drifting_blob_single_track(self):
        tracker = Tracker(INDOOR, IOU, GAP)
        for t in range(WINDOW):
            tracker.update([square_blob(10 + 2 * t, 10, 12)], t, [0.0])  # 2 px/frame drift
        assert len(tracker.tracks) == 1
        assert tracker.tracks[0].buffer_full

    def test_vanished_track_closes_rejected(self):
        # a flame-band track that vanishes before its window fills is
        # closed without a fire verdict; the blob coming back starts a
        # fresh window under a new id
        tracker = Tracker(INDOOR, IOU, max_gap=5)
        blobs = flame_band_blobs()
        confirmed = []
        for t in range(WINDOW - 1):
            confirmed += tracker.update([blobs[t]], t, [0.0])
        vanished = tracker.tracks[0]
        for t in range(WINDOW - 1, WINDOW + 6):
            confirmed += tracker.update([], t, [])
        assert tracker.tracks == []
        assert vanished.state is not TrackState.FIRE_CONFIRMED
        confirmed += tracker.update([blobs[-1]], WINDOW + 6, [0.0])
        assert [(tr.track_id, len(tr.samples)) for tr in tracker.tracks] == [(2, 1)]
        assert confirmed == []

    def test_tracks_age_out_during_empty_frames(self):
        # a track unseen for max_gap frames is dropped, not kept for the
        # life of the stream
        tracker = Tracker(INDOOR, IOU, max_gap=5)
        tracker.update([square_blob(5, 5, 6)], 0, [0.0])
        track = weakref.ref(tracker.tracks[0])
        tracker.update([], 4, [])
        assert len(tracker.tracks) == 1  # 4 frames unseen
        tracker.update([], 5, [])
        assert tracker.tracks == []
        assert track() is None

    def test_iou_threshold_respected(self):
        tracker = Tracker(INDOOR, IOU, GAP)
        tracker.update([square_blob(0, 0, 10)], 0, [0.0])
        # far jump: IoU 0 -> same-position track misses, new track spawns
        tracker.update([square_blob(50, 50, 10)], 1, [0.0])
        assert len(tracker.tracks) == 2
        # IoU exactly at the threshold matches; just above it does not
        a, b = square_blob(0, 0, 10), square_blob(5, 0, 10)
        assert bbox_iou(a.bbox, b.bbox) == 1 / 3
        for threshold, n_tracks in ((1 / 3, 1), (1 / 3 + 1e-9, 2)):
            tracker = Tracker(INDOOR, iou_threshold=threshold, max_gap=GAP)
            tracker.update([a], 0, [0.0])
            tracker.update([b], 1, [0.0])
            assert len(tracker.tracks) == n_tracks

    def test_best_iou_wins_competing_blobs(self):
        # two blobs overlap one track: the higher IoU continues it, even
        # when listed second; the other starts a new track
        tracker = Tracker(INDOOR, IOU, GAP)
        tracker.update([square_blob(0, 0, 10)], 0, [0.0])
        near, nearer = square_blob(2, 0, 10), square_blob(1, 0, 10)
        tracker.update([near, nearer], 1, [0.1, 0.2])
        assert [(t.track_id, t.bbox, t.last_margin) for t in tracker.tracks] == [
            (1, nearer.bbox, 0.2), (2, near.bbox, 0.1)
        ]
        # on equal IoU the blob listed first wins
        tracker = Tracker(INDOOR, IOU, GAP)
        tracker.update([square_blob(0, 0, 10)], 0, [0.0])
        below, right = square_blob(0, 1, 10), square_blob(1, 0, 10)
        tracker.update([below, right], 1, [0.0, 0.0])
        assert [(t.track_id, t.bbox) for t in tracker.tracks] == [
            (1, below.bbox), (2, right.bbox)
        ]

    def test_bbox_iou(self):
        assert bbox_iou((0, 0, 10, 10), (0, 0, 10, 10)) == 1.0
        assert bbox_iou((0, 0, 10, 10), (10, 10, 5, 5)) == 0.0
        iou = bbox_iou((0, 0, 10, 10), (5, 0, 10, 10))
        assert abs(iou - 5 * 10 / (200 - 50)) <= 1e-12


class TestTracker:
    def test_static_lamp_rejected_no_confirmation(self):
        tracker = Tracker(INDOOR, IOU, GAP)
        confirmed = []
        for t in range(WINDOW + 10):
            confirmed += tracker.update([square_blob(20, 20, 10)], t, [0.0])
        assert confirmed == []
        assert tracker.tracks[0].state is TrackState.REJECTED

    def test_flamelike_confirmed_once(self, rng):
        tracker = Tracker(INDOOR, IOU, GAP)
        confirmed = []
        for t in range(WINDOW + 15):
            side = 14
            m = np.ones((side, side), dtype=bool)
            # churn the quadrant balance without moving the bbox
            cut = int(6 + 5 * np.sin(t * 1.3))
            m[: side // 2, :cut] = False
            blob = make_blob(20, 20, m)
            confirmed += tracker.update([blob], t, [0.0])
        assert len(confirmed) == 1  # debounced: one alarm per track
        assert tracker.tracks[0].state is TrackState.FIRE_CONFIRMED

    def test_determinism(self):
        def run():
            tracker = Tracker(INDOOR, IOU, GAP)
            states = []
            for t in range(WINDOW + 5):
                blobs = [square_blob(5, 5, 8), square_blob(40, 40 + t, 8)]
                tracker.update(blobs, t, [0.0, 0.0])
                states.append([(tr.track_id, tr.state.value) for tr in tracker.tracks])
            return states

        assert run() == run()

    def test_thresholds_presets(self):
        assert StabilityThresholds.preset("indoor") == StabilityThresholds(0.15, 0.40)
        assert StabilityThresholds.preset("outdoor") == StabilityThresholds(0.25, 0.60)
        with pytest.raises(ValueError):
            StabilityThresholds.preset("space")
        with pytest.raises(ValueError):
            StabilityThresholds(0.5, 0.2)
