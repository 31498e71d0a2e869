"""Binary kernel SVM trained by sequential minimal optimization.

Working-set selection is the maximal violating pair; the solver stops
when the KKT violation drops to `TOL`. Per-sample box caps are C times a
class weight that balances the two labels by sample count. The dual
objective is recorded every iteration and is non-decreasing, which the
tests assert.
"""

import math
import struct
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from .codebook import read_binary, squared_distances
from .errors import ConvergenceError, DataError


class KernelKind(Enum):
    LINEAR = "linear"
    RBF = "rbf"
    CHI2 = "chi2"


@dataclass(frozen=True)
class Kernel:
    """A kernel kind and its gamma; a linear kernel carries gamma 0."""

    kind: KernelKind
    gamma: float = 0.0

    def __post_init__(self):
        if self.kind is KernelKind.LINEAR:
            object.__setattr__(self, "gamma", 0.0)
        # NaN fails every comparison, so `gamma <= 0` would let it through
        elif not (math.isfinite(self.gamma) and self.gamma > 0):
            raise ValueError(
                f"{self.kind.value} kernel needs a finite gamma > 0, got {self.gamma}"
            )


TOL = 1e-3  # the KKT violation at which SMO stops
# SMO's iteration caps: `train` raises at its cap, a cross-validation
# fold is scored as it stands at its own
MAX_ITER = 200_000
CV_MAX_ITER = 20_000

MODEL_MAGIC = b"PVSM"
MODEL_VERSION = 1
_KIND_CODES = {KernelKind.LINEAR: 0, KernelKind.RBF: 1, KernelKind.CHI2: 2}
_KIND_FROM_CODE = {v: k for k, v in _KIND_CODES.items()}


@dataclass
class TrainedModel:
    kernel: Kernel
    support_vectors: np.ndarray  # (s, dim)
    coef: np.ndarray  # (s,) signed alpha_i * y_i
    bias: float
    C: float
    class_weights: tuple  # (w_pos, w_neg)
    codebook_fingerprint: Optional[bytes] = None
    n_iterations: int = 0
    final_violation: float = 0.0
    objective_trace: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self):
        # the array `kernel_matrix` reads, so that the squared norms summed
        # here once for every decision have the bits it would sum
        self.support_vectors = np.ascontiguousarray(self.support_vectors, dtype=np.float64)
        self.sv_norms = (self.support_vectors * self.support_vectors).sum(axis=1)

    @property
    def dim(self) -> int:
        return self.support_vectors.shape[1]


# ---------------------------------------------------------------------------
# kernels


def chi2_distance_matrix(X, Y):
    """(nx, ny) chi-square distances sum((x - y)^2 / (x + y)), 0/0 terms as 0.

    One row of X at a time, through (ny, d) buffers reused for every row."""
    nx, d = X.shape
    ny = Y.shape[0]
    out = np.empty((nx, ny), dtype=np.float64)
    diff = np.empty((ny, d))
    den = np.empty((ny, d))
    zero = np.empty((ny, d), dtype=bool)
    for i in range(nx):
        np.subtract(X[i], Y, out=diff)
        np.add(X[i], Y, out=den)
        np.equal(den, 0.0, out=zero)
        np.copyto(den, 1.0, where=zero)
        np.multiply(diff, diff, out=diff)
        np.divide(diff, den, out=diff)
        np.copyto(diff, 0.0, where=zero)
        diff.sum(axis=1, out=out[i])
    return out


def kernel_matrix(kernel: Kernel, X: np.ndarray, Y: Optional[np.ndarray] = None, xx=None):
    # xx: X's squared row norms, when the caller keeps them (`squared_distances`)
    X = np.ascontiguousarray(np.asarray(X, dtype=np.float64))
    Y = X if Y is None else np.ascontiguousarray(np.asarray(Y, dtype=np.float64))
    if X.shape[1] != Y.shape[1]:
        raise ValueError(f"dimension mismatch: {X.shape[1]} vs {Y.shape[1]}")
    base = _base_matrix(kernel.kind, X, Y, xx)
    return base if kernel.kind is KernelKind.LINEAR else np.exp(-kernel.gamma * base)


def _base_matrix(kind: KernelKind, X, Y, xx=None):
    """The linear kernel's matrix itself, or the distances that the RBF
    (squared Euclidean) and chi-square kernels scale by -gamma and
    exponentiate."""
    if kind is KernelKind.LINEAR:
        return X @ Y.T
    if kind is KernelKind.RBF:
        return squared_distances(X, Y, xx)
    return chi2_distance_matrix(X, Y)


# ---------------------------------------------------------------------------
# SMO solver (maximal violating pair)


def _smo_solve(K, y, Cvec, tol, max_iter):
    n = y.shape[0]
    alpha = np.zeros(n, dtype=np.float64)
    G = np.full(n, -1.0)
    trace = np.empty(max_iter, dtype=np.float64)
    it = 0
    violation = np.inf
    while it < max_iter:
        s = -y * G
        up = ((y > 0) & (alpha < Cvec)) | ((y < 0) & (alpha > 0.0))
        low = ((y < 0) & (alpha < Cvec)) | ((y > 0) & (alpha > 0.0))
        if not up.any() or not low.any():
            violation = -np.inf
            break
        su = np.where(up, s, -np.inf)
        sl = np.where(low, s, np.inf)
        i = int(su.argmax())
        j = int(sl.argmin())
        violation = su[i] - sl[j]
        if violation <= tol:
            break
        eta = K[i, i] + K[j, j] - 2.0 * K[i, j]
        if eta <= 0.0:
            eta = 1e-12
        step = violation / eta
        cap_i = Cvec[i] - alpha[i] if y[i] > 0 else alpha[i]
        cap_j = alpha[j] if y[j] > 0 else Cvec[j] - alpha[j]
        step = min(step, cap_i, cap_j)
        old_i, old_j = alpha[i], alpha[j]
        ai = np.clip(old_i + y[i] * step, 0.0, Cvec[i])
        aj = np.clip(old_j - y[j] * step, 0.0, Cvec[j])
        alpha[i], alpha[j] = ai, aj
        di = y[i] * (ai - old_i)
        dj = y[j] * (aj - old_j)
        G += y * (K[:, i] * di + K[:, j] * dj)
        trace[it] = 0.5 * (alpha.sum() - alpha @ G)
        it += 1
    return alpha, G, it, float(violation), trace[:it]


def _class_weights(y):
    n_pos = int((y > 0).sum())
    n_neg = int((y < 0).sum())
    nmax = max(n_pos, n_neg)
    return n_neg / nmax, n_pos / nmax


def _bias(alpha, y, G, Cvec):
    s = -y * G  # equals y - (decision value without bias)
    free = (alpha > 1e-8 * Cvec) & (alpha < Cvec * (1.0 - 1e-8))
    if free.any():
        return float(s[free].mean())
    up = ((y > 0) & (alpha < Cvec)) | ((y < 0) & (alpha > 0.0))
    low = ((y < 0) & (alpha < Cvec)) | ((y > 0) & (alpha > 0.0))
    m_val = s[up].max() if up.any() else 0.0
    M_val = s[low].min() if low.any() else 0.0
    return float(0.5 * (m_val + M_val))


def _fit(K, y, C, max_iter):
    """SMO on kernel matrix K with box caps C times each label's class weight:
    (alpha, bias, class weights, iterations, violation, objective trace)."""
    weights = _class_weights(y)
    Cvec = np.where(y > 0, C * weights[0], C * weights[1])
    alpha, G, it, violation, trace = _smo_solve(K, y, Cvec, TOL, max_iter)
    return alpha, _bias(alpha, y, G, Cvec), weights, it, violation, trace


def train(
    X, y, kernel: Kernel, C: float, codebook_fingerprint: Optional[bytes] = None
) -> TrainedModel:
    """Fit the soft-margin dual by SMO to the (n, dim) rows of X and their
    +/-1 labels y. Raises ConvergenceError (carrying the residual KKT
    violation) if the iteration cap `MAX_ITER` is hit first.
    """
    X, y = _as_samples(X, y)
    if not np.isfinite(X).all():
        raise ValueError("training features contain non-finite values")
    if not (math.isfinite(C) and C > 0):
        raise ValueError(f"C must be finite and > 0, got {C}")
    if not ((y > 0).any() and (y < 0).any()):
        raise ValueError("need at least one sample of each label")
    alpha, bias, weights, it, violation, trace = _fit(
        kernel_matrix(kernel, X), y, C, MAX_ITER
    )
    if violation > TOL:
        raise ConvergenceError(
            f"SMO did not converge in {MAX_ITER} iterations "
            f"(violation {violation:.3e} > tol {TOL:.0e})",
            violation,
        )
    sv = alpha > 1e-12
    return TrainedModel(
        kernel=kernel,
        support_vectors=X[sv].copy(),
        coef=(alpha * y)[sv].copy(),
        bias=bias,
        C=C,
        class_weights=weights,
        codebook_fingerprint=codebook_fingerprint,
        n_iterations=it,
        final_violation=violation,
        objective_trace=trace,
    )


def _as_samples(X, y):
    X = np.ascontiguousarray(np.asarray(X, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64)
    if set(np.unique(y)) - {-1.0, 1.0}:
        raise ValueError("labels must be +1 or -1")
    return X, y


def decision_function(model: TrainedModel, X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    single = X.ndim == 1
    if single:
        X = X[None, :]
    if X.shape[1] != model.dim:
        raise ValueError(
            f"feature dimension {X.shape[1]} does not match model {model.dim}"
        )
    K = kernel_matrix(model.kernel, model.support_vectors, X, model.sv_norms)
    margins = model.coef @ K + model.bias
    return margins[0] if single else margins


def predict(model: TrainedModel, row):
    """(label, margin) for one feature row; ties on the boundary go to +1
    (a miss costs more than a false alarm, so zero margin reads as fire)."""
    margin = float(decision_function(model, row))
    return (1 if margin >= 0.0 else -1), margin


# ---------------------------------------------------------------------------
# cross-validation


@dataclass
class CVReport:
    c_values: np.ndarray
    gamma_values: np.ndarray
    accuracy: np.ndarray  # (len(c_values), len(gamma_values))
    folds: int
    best_c: float
    best_gamma: float
    best_accuracy: float


def default_grid():
    return 2.0 ** np.arange(-8, 9)


def stratified_folds(y, folds, seed):
    """Deal each class round-robin into `folds` groups after a seeded
    shuffle; returns a list of index arrays."""
    rng = np.random.default_rng(seed)
    out = [[] for _ in range(folds)]
    for cls in (1.0, -1.0):
        idx = np.nonzero(y == cls)[0]
        rng.shuffle(idx)
        for pos, sample in enumerate(idx):
            out[pos % folds].append(int(sample))
    return [np.asarray(sorted(f), dtype=np.int64) for f in out]


def cross_validate(
    X, y, kind: KernelKind, folds: int, seed: int, c_values=None, gamma_values=None
) -> CVReport:
    """Grid-search (C, gamma) by stratified k-fold accuracy.

    The grid defaults to integer powers of two from 2^-8 to 2^8 on both
    axes (gamma collapses to the one value 0 for the linear kernel). Each
    cell fits every fold with the SMO fit `train` makes; each fold's kernel
    blocks are gathered once per gamma and shared by its C values. A fold
    that reaches `CV_MAX_ITER` is scored as it stands. Deterministic for a
    fixed seed; the best cell is the first maximum in (C, gamma) scan order.
    """
    if folds < 2:
        raise ValueError(f"folds must be >= 2, got {folds}")
    X, y = _as_samples(X, y)
    n_pos = int((y > 0).sum())
    n_neg = int((y < 0).sum())
    if min(n_pos, n_neg) < folds:
        raise ValueError(
            f"need at least {folds} samples per class, got {n_pos} / {n_neg}"
        )
    c_values = np.asarray(default_grid() if c_values is None else c_values, dtype=np.float64)
    if kind is KernelKind.LINEAR:
        gamma_values = np.asarray([0.0])
    else:
        gamma_values = np.asarray(
            default_grid() if gamma_values is None else gamma_values, dtype=np.float64
        )

    base = _base_matrix(kind, X, X)
    fold_idx = stratified_folds(y, folds, seed)
    acc = np.zeros((len(c_values), len(gamma_values)))
    for gi, gamma in enumerate(gamma_values):
        K_full = base if kind is KernelKind.LINEAR else np.exp(-gamma * base)
        correct = np.zeros(len(c_values), dtype=np.int64)
        for te in fold_idx:
            tr = np.setdiff1d(np.arange(X.shape[0]), te)
            K_tr = np.ascontiguousarray(K_full[np.ix_(tr, tr)])
            K_te = K_full[np.ix_(tr, te)]
            y_tr = y[tr]
            for ci, C in enumerate(c_values):
                alpha, b, _, _, _, _ = _fit(K_tr, y_tr, C, CV_MAX_ITER)
                margins = (alpha * y_tr) @ K_te + b
                correct[ci] += int((np.where(margins >= 0.0, 1.0, -1.0) == y[te]).sum())
        acc[:, gi] = correct / X.shape[0]
    best_flat = int(acc.argmax())
    bi, bj = np.unravel_index(best_flat, acc.shape)
    return CVReport(
        c_values=c_values,
        gamma_values=gamma_values,
        accuracy=acc,
        folds=folds,
        best_c=float(c_values[bi]),
        best_gamma=float(gamma_values[bj]),
        best_accuracy=float(acc[bi, bj]),
    )


# ---------------------------------------------------------------------------
# model file


def write_model(model: TrainedModel, path) -> None:
    sv = np.ascontiguousarray(model.support_vectors, dtype="<f8")
    coef = np.ascontiguousarray(model.coef, dtype="<f8")
    fp = model.codebook_fingerprint or b"\x00" * 32
    if len(fp) != 32:
        raise ValueError("codebook fingerprint must be 32 bytes")
    with open(path, "wb") as f:
        f.write(MODEL_MAGIC)
        f.write(struct.pack("<II", MODEL_VERSION, _KIND_CODES[model.kernel.kind]))
        f.write(struct.pack("<dd", model.kernel.gamma, model.C))
        f.write(struct.pack("<dd", *model.class_weights))
        f.write(struct.pack("<II", sv.shape[0], sv.shape[1]))
        f.write(sv.tobytes())
        f.write(coef.tobytes())
        f.write(struct.pack("<d", model.bias))
        f.write(fp)


def read_model(path) -> TrainedModel:
    raw, (kind_code, gamma, C, w_pos, w_neg, count, dim) = read_binary(
        path, "model", MODEL_MAGIC, MODEL_VERSION, "<IddddII"
    )
    if kind_code not in _KIND_FROM_CODE:
        raise DataError(f"{path}: unknown kernel code {kind_code}")
    need = 52 + (count * dim + count + 1) * 8 + 32
    if len(raw) != need:
        raise DataError(f"{path}: model payload is {len(raw)} bytes, expected {need}")
    off = 52
    sv = np.frombuffer(raw, dtype="<f8", count=count * dim, offset=off)
    sv = sv.reshape(count, dim).astype(np.float64)
    off += count * dim * 8
    coef = np.frombuffer(raw, dtype="<f8", count=count, offset=off).astype(np.float64)
    off += count * 8
    (bias,) = struct.unpack_from("<d", raw, off)
    fp = raw[off + 8 :]
    for name, value in (
        ("gamma", gamma),
        ("C", C),
        ("class weights", (w_pos, w_neg)),
        ("support vectors", sv),
        ("coefficients", coef),
        ("bias", bias),
    ):
        if not np.isfinite(value).all():
            raise DataError(f"{path}: model {name} must be finite")
    try:
        kernel = Kernel(_KIND_FROM_CODE[kind_code], gamma)
    except ValueError as e:
        raise DataError(f"{path}: {e}") from None
    return TrainedModel(
        kernel=kernel,
        support_vectors=sv,
        coef=coef,
        bias=bias,
        C=C,
        class_weights=(w_pos, w_neg),
        codebook_fingerprint=None if fp == b"\x00" * 32 else fp,
    )
