"""Pointwise regressors used by the neighborhood predictors.

Three kinds: the target mean (ignores features), affine least squares, and a
single-hidden-layer sigmoid network trained by damped Gauss-Newton with
multiplicative damping and seeded multi-start.  Training is deterministic for
a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class TrainConfig:
    hidden: int = 4
    restarts: int = 3
    max_iter: int = 200
    seed: int = 0
    damping: float = 1.0
    tol: float = 1e-10


class MeanRegressor:
    kind = "mean"

    def __init__(self, mean: np.ndarray):
        self.mean = np.asarray(mean, dtype=float)

    def predict(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return np.tile(self.mean, (x.shape[0], 1))


class LinearRegressor:
    kind = "linear"

    def __init__(self, weights: np.ndarray):
        self.weights = weights  # (d+1, o), last row is the intercept

    def predict(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return x @ self.weights[:-1] + self.weights[-1]


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class SigmoidNetRegressor:
    """One sigmoid hidden layer, linear output."""

    kind = "net"

    def __init__(self, w1, b1, w2, b2):
        self.w1 = w1  # (h, d)
        self.b1 = b1  # (h,)
        self.w2 = w2  # (o, h)
        self.b2 = b2  # (o,)

    def predict(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        hidden = _sigmoid(x @ self.w1.T + self.b1)
        return hidden @ self.w2.T + self.b2


def _net_unpack(theta, d, h, o):
    i = 0
    w1 = theta[i:i + h * d].reshape(h, d); i += h * d
    b1 = theta[i:i + h]; i += h
    w2 = theta[i:i + o * h].reshape(o, h); i += o * h
    b2 = theta[i:i + o]
    return w1, b1, w2, b2


def _net_residual_jacobian(theta, x, y, h):
    """Stacked residuals (pred - y) and their Jacobian in the parameters."""
    n, d = x.shape
    o = y.shape[1]
    w1, b1, w2, b2 = _net_unpack(theta, d, h, o)
    a = x @ w1.T + b1           # (n, h)
    s = _sigmoid(a)
    pred = s @ w2.T + b2        # (n, o)
    resid = (pred - y).ravel()  # row-major: sample-major, output-minor

    sp = s * (1.0 - s)          # sigmoid derivative (n, h)
    p = theta.size
    jac = np.zeros((n * o, p))
    for k in range(o):
        rows = slice(k, n * o, o)
        # d pred_k / d w1[j, l] = w2[k, j] * sp[:, j] * x[:, l]
        block = (w2[k] * sp)[:, :, None] * x[:, None, :]   # (n, h, d)
        jac[rows, : h * d] = block.reshape(n, h * d)
        jac[rows, h * d: h * d + h] = w2[k] * sp
        jac[rows, h * d + h + k * h: h * d + h + (k + 1) * h] = s
        jac[rows, h * d + h + o * h + k] = 1.0
    return resid, jac


def train_regressor(features: np.ndarray, targets: np.ndarray, kind: str = "linear",
                    config: TrainConfig | None = None):
    """Fit a regressor of the requested kind to (features, targets) samples.

    features: (N, d); targets: (N,) or (N, o).  The net is trained by
    Gauss-Newton steps with multiplicative damping (x10 on reject, /10 on
    accept) restarted from config.restarts seeded initializations; the best
    final loss wins.
    """
    x = np.atleast_2d(np.asarray(features, dtype=float))
    y = np.asarray(targets, dtype=float)
    if y.ndim == 1:
        y = y[:, None]
    if x.shape[0] != y.shape[0]:
        raise ValueError("features and targets must have equal sample counts")
    if kind == "mean":
        return MeanRegressor(y.mean(axis=0))
    if kind == "linear":
        reg = np.hstack([x, np.ones((x.shape[0], 1))])
        sol, _, _, _ = np.linalg.lstsq(reg, y, rcond=None)
        return LinearRegressor(sol)
    if kind != "net":
        raise ConfigError(f"unknown regressor kind {kind!r}")

    cfg = config or TrainConfig()
    n, d = x.shape
    o = y.shape[1]
    h = cfg.hidden
    best = None
    for restart in range(cfg.restarts):
        rng = np.random.default_rng(cfg.seed + 1000 * restart)
        scale = 1.0 / np.sqrt(max(1, d))
        theta = np.concatenate([
            rng.uniform(-1.0, 1.0, h * d) * scale,
            rng.uniform(-0.5, 0.5, h),
            rng.uniform(-1.0, 1.0, o * h) / np.sqrt(h),
            np.zeros(o),
        ])
        mu = cfg.damping
        resid, jac = _net_residual_jacobian(theta, x, y, h)
        loss = float(resid @ resid)
        for _ in range(cfg.max_iter):
            jtj = jac.T @ jac
            jtr = jac.T @ resid
            accepted = False
            for _ in range(30):
                try:
                    step = np.linalg.solve(jtj + mu * np.eye(theta.size), jtr)
                except np.linalg.LinAlgError:
                    mu *= 10.0
                    continue
                cand = theta - step
                cand_resid, cand_jac = _net_residual_jacobian(cand, x, y, h)
                cand_loss = float(cand_resid @ cand_resid)
                if cand_loss < loss:
                    theta, resid, jac = cand, cand_resid, cand_jac
                    improvement = loss - cand_loss
                    loss = cand_loss
                    mu = max(mu / 10.0, 1e-12)
                    accepted = True
                    break
                mu *= 10.0
                if mu > 1e12:
                    break
            if not accepted or loss < cfg.tol or improvement < cfg.tol * (1.0 + loss):
                break
        if best is None or loss < best[0]:
            best = (loss, theta)
    w1, b1, w2, b2 = _net_unpack(best[1], d, h, o)
    return SigmoidNetRegressor(w1, b1, w2, b2)
