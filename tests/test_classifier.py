import math
import struct

import numpy as np
import pytest

from pyrovigil.classifier import (
    Kernel,
    KernelKind,
    TrainedModel,
    chi2_distance_matrix,
    cross_validate,
    decision_function,
    kernel_matrix,
    predict,
    read_model,
    train,
    write_model,
)
from pyrovigil.codebook import Codebook, read_codebook, write_codebook
from pyrovigil.errors import ConvergenceError, DataError

from oracles import chi2_distance_expr, cross_validate_cells, squared_distances_expr


RBF1 = Kernel(KernelKind.RBF, 1.0)


class TestKernels:
    @pytest.mark.parametrize("kind", [KernelKind.RBF, KernelKind.CHI2])
    @pytest.mark.parametrize("gamma", [0.0, -1.0, math.nan, math.inf])
    def test_gamma_must_be_finite_and_positive(self, kind, gamma):
        with pytest.raises(ValueError, match="gamma > 0"):
            Kernel(kind, gamma)

    def test_rbf_self_is_one(self, rng):
        a = rng.normal(size=9)
        assert kernel_matrix(RBF1, a[None], a[None])[0, 0] == 1.0

    def test_linear_zero_vector(self, rng):
        a = rng.normal(size=(1, 5))
        assert kernel_matrix(Kernel(KernelKind.LINEAR), a, np.zeros((1, 5)))[0, 0] == 0.0

    def test_chi2_fixed_histograms(self):
        # scalar evaluation oracle: sum (a-b)^2/(a+b) = 0.48095238...,
        # K = exp(-0.5 * that) = 0.7862533655434848
        a = [0.1, 0.4, 0.3, 0.2]
        b = [0.3, 0.3, 0.0, 0.4]
        dist = sum(
            (x - y) ** 2 / (x + y) for x, y in zip(a, b) if x + y > 0
        )
        got = kernel_matrix(Kernel(KernelKind.CHI2, 0.5), [a], [b])[0, 0]
        assert abs(got - math.exp(-0.5 * dist)) <= 1e-12
        assert abs(got - 0.7862533655434848) <= 1e-12

    def test_chi2_zero_over_zero(self):
        x = [[0.0, 0.5]]
        assert kernel_matrix(Kernel(KernelKind.CHI2, 1.0), x, x)[0, 0] == 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            kernel_matrix(RBF1, np.zeros((1, 3)), np.zeros((1, 4)))

    def test_gamma_validation(self):
        with pytest.raises(ValueError):
            Kernel(KernelKind.RBF, 0.0)
        Kernel(KernelKind.LINEAR)  # no gamma needed

    def test_linear_kernel_carries_gamma_zero(self, rng, tmp_path):
        kernel = Kernel(KernelKind.LINEAR, 5.0)
        assert kernel.gamma == 0.0
        assert kernel == Kernel(KernelKind.LINEAR)
        X = rng.normal(size=(6, 2))
        y = np.array([1.0, 1.0, 1.0, -1.0, -1.0, -1.0])
        path = tmp_path / "m.pvsm"
        write_model(train(X, y, kernel=kernel, C=1.0), path)
        assert struct.unpack_from("<d", path.read_bytes(), 12) == (0.0,)
        assert read_model(path).kernel == kernel

    def test_chi2_matrix_matches_scalar(self, rng):
        X = rng.random((6, 8))
        D = chi2_distance_matrix(X, X)
        for i in range(6):
            for j in range(6):
                want = sum(
                    (a - b) ** 2 / (a + b)
                    for a, b in zip(X[i], X[j])
                    if a + b > 0
                )
                assert abs(D[i, j] - want) <= 1e-12

    def test_chi2_matrix_keeps_the_expression_bits(self, rng):
        # histograms with zero bins, some zero in both rows (0/0 terms)
        X = rng.random((40, 596))
        Y = rng.random((30, 596))
        X[:, ::7] = 0.0
        Y[:, ::5] = 0.0
        X[::3, 11] = 0.0
        X /= X.sum(axis=1, keepdims=True)
        Y /= Y.sum(axis=1, keepdims=True)
        got = chi2_distance_matrix(X, Y)
        assert np.array_equal(got.view(np.uint64), chi2_distance_expr(X, Y).view(np.uint64))

    def test_rbf_decision_keeps_the_expression_bits(self, rng, tmp_path):
        # the support vectors' norms are summed once per model, also for a
        # model read back from its file
        X = rng.random((60, 40))
        y = np.where(X[:, 0] + X[:, 1] > 1.0, 1.0, -1.0)
        model = train(X, y, Kernel(KernelKind.RBF, 0.5), C=4.0)
        write_model(model, tmp_path / "m.pvsm")
        Q = rng.random((17, 40))
        for m in (model, read_model(tmp_path / "m.pvsm")):
            for rows in (Q, Q[:1]):
                dist = squared_distances_expr(m.support_vectors, rows)
                want = m.coef @ np.exp(-m.kernel.gamma * dist) + m.bias
                got = decision_function(m, rows)
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_gram_psd_spot_check(self, rng):
        X = rng.random((20, 12))
        K = kernel_matrix(Kernel(KernelKind.RBF, 2.0), X)
        eig = np.linalg.eigvalsh(K)
        assert eig.min() >= -1e-8


class TestTrain:
    def test_two_point_analytic(self):
        X = np.array([[1.0, 0.0], [-1.0, 0.0]])
        y = np.array([1.0, -1.0])
        model = train(X, y, kernel=Kernel(KernelKind.LINEAR), C=1000.0)
        assert model.support_vectors.shape[0] == 2
        margins = decision_function(model, X)
        assert abs(margins[0] - 1.0) <= 1e-6
        assert abs(margins[1] + 1.0) <= 1e-6

    def test_xor_rbf(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
        y = np.array([1.0, 1.0, -1.0, -1.0])
        model = train(X, y, kernel=RBF1, C=10.0)
        for xi, yi in zip(X, y):
            label, _ = predict(model, xi)
            assert label == yi

    def test_duplicating_samples_keeps_boundary(self, rng):
        X = rng.normal(size=(30, 4))
        y = np.where(X[:, 0] + 0.5 * X[:, 1] > 0, 1.0, -1.0)
        m1 = train(X, y, kernel=RBF1, C=5.0)
        m2 = train(np.vstack([X, X]), np.concatenate([y, y]), kernel=RBF1, C=5.0)
        probes = rng.normal(size=(50, 4))
        p1 = np.sign(decision_function(m1, probes))
        p2 = np.sign(decision_function(m2, probes))
        assert np.array_equal(p1, p2)

    def test_objective_monotone(self, rng):
        X = rng.normal(size=(40, 6))
        y = np.where(rng.random(40) > 0.5, 1.0, -1.0)
        y[:3] = 1.0
        y[3:6] = -1.0
        model = train(X, y, kernel=RBF1, C=2.0)
        trace = model.objective_trace
        assert len(trace) == model.n_iterations
        assert np.all(np.diff(trace) >= -1e-9)

    def test_kkt_margins_of_free_svs(self, rng):
        X = rng.normal(size=(60, 5))
        y = np.where(X[:, 0] + 0.3 * rng.normal(size=60) > 0, 1.0, -1.0)
        y[:2] = 1.0
        y[2:4] = -1.0
        model = train(X, y, kernel=RBF1, C=3.0)
        # recover free SVs: |coef| strictly inside the box for its class
        w_pos, w_neg = model.class_weights
        caps = np.where(model.coef > 0, model.C * w_pos, model.C * w_neg)
        free = (np.abs(model.coef) > 1e-6 * caps) & (np.abs(model.coef) < caps * 0.999)
        margins = decision_function(model, model.support_vectors[free])
        labels = np.sign(model.coef[free])
        assert np.all(np.abs(margins - labels) <= 1e-3 + 1e-9)

    def test_margin_linear_in_alpha(self, rng):
        X = rng.normal(size=(20, 3))
        y = np.where(X[:, 0] > 0, 1.0, -1.0)
        model = train(X, y, kernel=RBF1, C=2.0)
        probe = rng.normal(size=3)
        _, margin = predict(model, probe)
        doubled = TrainedModel(
            kernel=model.kernel,
            support_vectors=model.support_vectors,
            coef=model.coef * 2.0,
            bias=model.bias * 2.0,
            C=model.C,
            class_weights=model.class_weights,
        )
        label2, margin2 = predict(doubled, probe)
        assert abs(margin2 - 2.0 * margin) <= 1e-9
        assert label2 == (1 if margin >= 0 else -1)

    def test_prediction_independent_of_sv_order(self, rng):
        X = rng.normal(size=(30, 4))
        y = np.where(X.sum(axis=1) > 0, 1.0, -1.0)
        model = train(X, y, kernel=RBF1, C=2.0)
        perm = rng.permutation(model.support_vectors.shape[0])
        shuffled = TrainedModel(
            kernel=model.kernel,
            support_vectors=model.support_vectors[perm],
            coef=model.coef[perm],
            bias=model.bias,
            C=model.C,
            class_weights=model.class_weights,
        )
        probes = rng.normal(size=(20, 4))
        assert np.allclose(
            decision_function(model, probes), decision_function(shuffled, probes),
            atol=1e-12,
        )

    def test_zero_margin_ties_to_fire(self):
        model = TrainedModel(
            kernel=Kernel(KernelKind.LINEAR),
            support_vectors=np.array([[1.0]]),
            coef=np.array([1.0]),
            bias=0.0,
            C=1.0,
            class_weights=(1.0, 1.0),
        )
        label, margin = predict(model, np.array([0.0]))
        assert margin == 0.0
        assert label == 1

    def test_balance_weights(self):
        X = np.vstack([np.full((3, 2), 1.0) + np.eye(3, 2) * 0.1,
                       np.full((9, 2), -1.0) + np.arange(9)[:, None] * 0.01])
        y = np.concatenate([np.ones(3), -np.ones(9)])
        model = train(X, y, kernel=RBF1, C=1.0)
        w_pos, w_neg = model.class_weights
        assert abs(w_pos / w_neg - 9.0 / 3.0) <= 1e-12
        assert max(w_pos, w_neg) == 1.0

    def test_contradictory_labels_converge_at_bounds(self):
        # identical points with opposite labels: not separable; alphas
        # saturate the box and the solver still satisfies the KKT gap
        X = np.array([[1.0, 1.0], [1.0, 1.0], [3.0, 0.0], [-3.0, 0.0]])
        y = np.array([1.0, -1.0, 1.0, -1.0])
        model = train(X, y, kernel=RBF1, C=2.0)
        assert model.final_violation <= 1e-3
        assert np.all(np.abs(model.coef) <= 2.0 + 1e-12)

    def test_chi2_training_end_to_end(self, rng):
        # histogram-like rows, chi-square kernel
        X = rng.random((30, 16))
        X /= X.sum(axis=1, keepdims=True)
        y = np.where(X[:, 0] > np.median(X[:, 0]), 1.0, -1.0)
        model = train(X, y, kernel=Kernel(KernelKind.CHI2, 2.0), C=50.0)
        pred = np.sign(decision_function(model, X))
        assert (pred == y).mean() >= 0.9

    def test_input_validation(self, rng):
        X = rng.normal(size=(10, 3))
        y = np.where(np.arange(10) < 5, 1.0, -1.0)
        bad = X.copy()
        bad[0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            train(bad, y, kernel=RBF1, C=1.0)
        with pytest.raises(ValueError, match="each label"):
            train(X, np.ones(10), kernel=RBF1, C=1.0)
        with pytest.raises(ValueError, match="C must be"):
            train(X, y, kernel=RBF1, C=0.0)

    @pytest.mark.parametrize("C", [math.nan, math.inf])
    def test_non_finite_C_rejected(self, rng, C):
        # a NaN C once trained a model with no support vector and bias 0,
        # whose zero margin reads every row as fire
        X = rng.normal(size=(8, 2))
        y = np.where(np.arange(8) < 4, 1.0, -1.0)
        with pytest.raises(ValueError, match="C must be finite and > 0"):
            train(X, y, kernel=RBF1, C=C)

    def test_nonconvergence_carries_violation(self, rng):
        X = rng.normal(size=(40, 4))
        y = np.where(rng.random(40) > 0.5, 1.0, -1.0)
        y[:2], y[2:4] = 1.0, -1.0
        with pytest.raises(ConvergenceError) as exc:
            train(X, y, kernel=RBF1, C=100.0, max_iter=2)
        assert exc.value.violation > 1e-3


class TestCrossValidate:
    def test_separable_reaches_one(self, rng):
        X = np.vstack([rng.normal(3.0, 0.2, (20, 3)), rng.normal(-3.0, 0.2, (20, 3))])
        y = np.concatenate([np.ones(20), -np.ones(20)])
        report = cross_validate(
            X, y, KernelKind.RBF, folds=5,
            c_values=2.0 ** np.arange(-2, 5, 2),
            gamma_values=2.0 ** np.arange(-4, 3, 2),
            seed=0,
        )
        assert report.best_accuracy == 1.0

    def test_shuffled_labels_near_chance(self, rng):
        X = rng.normal(size=(200, 8))
        y = np.concatenate([np.ones(100), -np.ones(100)])
        rng.shuffle(y)
        report = cross_validate(
            X, y, KernelKind.RBF, folds=5,
            c_values=2.0 ** np.arange(-2, 3, 2),
            gamma_values=2.0 ** np.arange(-2, 3, 2),
            seed=1,
        )
        assert report.best_accuracy <= 0.65

    def test_best_equals_grid_max(self, rng):
        X = rng.normal(size=(30, 4))
        y = np.where(X[:, 0] > 0, 1.0, -1.0)
        y[:3], y[3:6] = 1.0, -1.0
        report = cross_validate(
            X, y, KernelKind.RBF, folds=3,
            c_values=[0.5, 2.0], gamma_values=[0.25, 1.0], seed=2,
        )
        assert report.best_accuracy == report.accuracy.max()
        ci = report.c_values.tolist().index(report.best_c)
        gi = report.gamma_values.tolist().index(report.best_gamma)
        assert report.accuracy[ci, gi] == report.best_accuracy

    def test_deterministic(self, rng):
        X = rng.normal(size=(24, 3))
        y = np.where(np.arange(24) % 2 == 0, 1.0, -1.0)
        kw = dict(folds=3, c_values=[1.0], gamma_values=[0.5], seed=7)
        r1 = cross_validate(X, y, KernelKind.RBF, **kw)
        r2 = cross_validate(X, y, KernelKind.RBF, **kw)
        assert np.array_equal(r1.accuracy, r2.accuracy)

    def test_too_few_samples(self, rng):
        X = rng.normal(size=(6, 3))
        y = np.array([1.0, 1.0, 1.0, 1.0, -1.0, -1.0])
        with pytest.raises(ValueError, match="per class"):
            cross_validate(X, y, KernelKind.RBF, folds=5)

    @pytest.mark.parametrize("folds", [0, 1])
    def test_folds_below_two_rejected(self, rng, folds):
        # 0 and 1 folds used to raise ZeroDivisionError
        X = rng.normal(size=(12, 3))
        y = np.repeat([1.0, -1.0], 6)
        with pytest.raises(ValueError, match=f"folds must be >= 2, got {folds}"):
            cross_validate(X, y, KernelKind.RBF, folds=folds)

    def test_linear_collapses_gamma_axis(self, rng):
        X = np.vstack([rng.normal(2, 0.3, (10, 2)), rng.normal(-2, 0.3, (10, 2))])
        y = np.concatenate([np.ones(10), -np.ones(10)])
        report = cross_validate(
            X, y, KernelKind.LINEAR, folds=2, c_values=[1.0, 4.0], seed=0
        )
        assert report.accuracy.shape == (2, 1)

    @pytest.mark.parametrize("max_iter", [20_000, 30], ids=["converged", "capped"])
    @pytest.mark.parametrize("kind", list(KernelKind), ids=lambda k: k.value)
    def test_matches_the_per_cell_loop(self, kind, max_iter):
        # one fit per fold and C, with the fold's kernel blocks gathered once
        # per gamma; at 30 iterations every fold stops at the cap and is
        # still scored
        rng = np.random.default_rng(3)
        X = rng.random((70, 30))
        y = np.where(X[:, 0] + X[:, 1] + rng.normal(0, 0.3, 70) > 1.0, 1.0, -1.0)
        c_values = 2.0 ** np.arange(-4, 9, 3)
        gamma_values = 2.0 ** np.arange(-6, 3, 2)
        report = cross_validate(
            X, y, kind, c_values=c_values, gamma_values=gamma_values, seed=3,
            max_iter=max_iter,
        )
        if kind is KernelKind.LINEAR:
            gamma_values = np.array([0.0])
        want = cross_validate_cells(
            X, y, kind, 5, c_values, gamma_values, 3, 1e-3, max_iter
        )
        assert np.array_equal(report.accuracy.view(np.uint64), want.view(np.uint64))
        bi, bj = np.unravel_index(int(want.argmax()), want.shape)
        assert (report.best_c, report.best_gamma) == (c_values[bi], gamma_values[bj])
        assert report.best_accuracy == want[bi, bj]

    def test_default_grid_is_powers_of_two(self):
        from pyrovigil.classifier import default_grid

        grid = default_grid()
        assert len(grid) == 17
        assert grid[0] == 2.0**-8
        assert grid[-1] == 2.0**8


class TestModelIO:
    def test_roundtrip(self, rng, tmp_path):
        X = rng.normal(size=(12, 5))
        y = np.where(np.arange(12) < 6, 1.0, -1.0)
        model = train(
            X, y, kernel=Kernel(KernelKind.RBF, 0.7), C=3.0,
            codebook_fingerprint=b"f" * 32,
        )
        path = tmp_path / "model.pvsm"
        write_model(model, path)
        back = read_model(path)
        assert back.kernel == model.kernel
        assert back.C == model.C
        assert back.class_weights == model.class_weights
        assert back.bias == model.bias
        assert back.codebook_fingerprint == model.codebook_fingerprint
        assert np.array_equal(back.support_vectors, model.support_vectors)
        assert np.array_equal(back.coef, model.coef)

    def test_magic(self, rng, tmp_path):
        X = rng.normal(size=(6, 2))
        y = np.array([1.0, 1.0, 1.0, -1.0, -1.0, -1.0])
        model = train(X, y, kernel=RBF1, C=1.0)
        path = tmp_path / "m.pvsm"
        write_model(model, path)
        assert path.read_bytes()[:4] == b"PVSM"

    @pytest.mark.parametrize(
        "size, match", [(60, "payload"), (-1, "payload"), (20, "header"), (51, "header")]
    )
    def test_truncated_rejected(self, rng, tmp_path, size, match):
        X = rng.normal(size=(6, 2))
        y = np.array([1.0, 1.0, 1.0, -1.0, -1.0, -1.0])
        path = tmp_path / "m.pvsm"
        write_model(train(X, y, kernel=RBF1, C=1.0), path)
        path.write_bytes(path.read_bytes()[:size])
        with pytest.raises(DataError, match=match):
            read_model(path)

    @pytest.mark.parametrize(
        "offset, field, match",
        [(8, struct.pack("<I", 7), "unknown kernel code 7"),
         (12, struct.pack("<d", -1.0), "gamma > 0")],
        ids=["kernel code", "gamma"],
    )
    def test_bad_kernel_rejected(self, rng, tmp_path, offset, field, match):
        X = rng.normal(size=(6, 2))
        y = np.array([1.0, 1.0, 1.0, -1.0, -1.0, -1.0])
        path = tmp_path / "m.pvsm"
        write_model(train(X, y, kernel=RBF1, C=1.0), path)
        raw = bytearray(path.read_bytes())
        raw[offset : offset + len(field)] = field
        path.write_bytes(bytes(raw))
        with pytest.raises(DataError, match=match):
            read_model(path)

    def test_other_version_rejected(self, rng, tmp_path):
        X = rng.normal(size=(6, 2))
        y = np.array([1.0, 1.0, 1.0, -1.0, -1.0, -1.0])
        path = tmp_path / "m.pvsm"
        write_model(train(X, y, kernel=RBF1, C=1.0), path)
        raw = bytearray(path.read_bytes())
        raw[4:8] = struct.pack("<I", 2)
        path.write_bytes(bytes(raw))
        with pytest.raises(DataError, match="m.pvsm: unsupported model version 2"):
            read_model(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(DataError, match="cannot read model"):
            read_model(tmp_path / "missing.pvsm")

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.pvsm"
        path.write_bytes(b"WHAT" + b"\x00" * 100)
        with pytest.raises(DataError, match="magic"):
            read_model(path)

    @pytest.mark.parametrize(
        "name", ["gamma", "C", "class weights", "support vectors", "coefficients", "bias"]
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_field_rejected(self, rng, tmp_path, name, value):
        # a NaN bias made every margin NaN, so detection ran and never alarmed
        X = rng.normal(size=(6, 2))
        y = np.array([1.0, 1.0, 1.0, -1.0, -1.0, -1.0])
        model = train(X, y, kernel=RBF1, C=1.0)
        count = model.support_vectors.shape[0]
        offset = {
            "gamma": 12,
            "C": 20,
            "class weights": 36,
            "support vectors": 52 + 8,
            "coefficients": 52 + count * 16,
            "bias": 52 + count * 24,
        }[name]
        path = tmp_path / "m.pvsm"
        write_model(model, path)
        raw = bytearray(path.read_bytes())
        raw[offset : offset + 8] = struct.pack("<d", value)
        path.write_bytes(bytes(raw))
        with pytest.raises(DataError, match=f"m.pvsm: model {name} must be finite"):
            read_model(path)


def _codebook_file(rng, path):
    write_codebook(Codebook(rng.normal(size=(3, 4)), 1.0), path)


def _model_file(rng, path):
    X = rng.normal(size=(6, 2))
    y = np.array([1.0, 1.0, 1.0, -1.0, -1.0, -1.0])
    write_model(train(X, y, kernel=RBF1, C=1.0), path)


BINARY_FILES = [
    ("codebook", "x.pvcb", _codebook_file, read_codebook),
    ("model", "x.pvsm", _model_file, read_model),
]


@pytest.mark.parametrize("what, name, write, read", BINARY_FILES, ids=["pvcb", "pvsm"])
class TestBinaryHeader:
    """Codebook and model files share one header check, and its messages."""

    def _error(self, read, path):
        with pytest.raises(DataError) as e:
            read(path)
        return str(e.value)

    def test_bad_magic(self, tmp_path, what, name, write, read):
        path = tmp_path / name
        path.write_bytes(b"NOPE" + b"\x00" * 100)
        assert self._error(read, path) == f"{path}: bad {what} magic b'NOPE'"

    @pytest.mark.parametrize("size", [4, 9, 15])
    def test_short_header(self, rng, tmp_path, what, name, write, read, size):
        path = tmp_path / name
        write(rng, path)
        path.write_bytes(path.read_bytes()[:size])
        message = f"{path}: {what} is {size} bytes, shorter than its header"
        assert self._error(read, path) == message

    def test_wrong_version(self, rng, tmp_path, what, name, write, read):
        path = tmp_path / name
        write(rng, path)
        raw = bytearray(path.read_bytes())
        raw[4:8] = struct.pack("<I", 3)
        path.write_bytes(bytes(raw))
        assert self._error(read, path) == f"{path}: unsupported {what} version 3"

    def test_unreadable(self, tmp_path, what, name, write, read):
        path = tmp_path / name
        path.mkdir()
        assert self._error(read, path).startswith(f"cannot read {what} {path}: ")
