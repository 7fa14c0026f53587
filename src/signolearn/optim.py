"""First-order and quasi-Newton optimizers used by the trainers.

Everything here is deterministic given its inputs: Adam with global-norm
gradient clipping, an L1 proximal step applied to exponent slots only, a
two-loop-recursion L-BFGS with a strong-Wolfe line search, and an
early-stopping monitor that snapshots the best parameters seen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import NonFiniteGradientError, NonFiniteObjectiveError


@dataclass(frozen=True)
class ParamLayout:
    """Fixed packing of (alphas, betas) arrays into one flat vector.

    Coefficients occupy the leading slots, exponents the rest; pack and
    unpack are exact inverses of each other.
    """

    alpha_shape: tuple[int, ...]
    beta_shape: tuple[int, ...]

    @property
    def n_alpha(self) -> int:
        return math.prod(self.alpha_shape)

    @property
    def n_beta(self) -> int:
        return math.prod(self.beta_shape)

    @property
    def size(self) -> int:
        return self.n_alpha + self.n_beta

    def pack(self, alphas: np.ndarray, betas: np.ndarray) -> np.ndarray:
        alphas = np.asarray(alphas, dtype=float)
        betas = np.asarray(betas, dtype=float)
        assert alphas.shape == self.alpha_shape and betas.shape == self.beta_shape
        return np.concatenate([alphas.ravel(), betas.ravel()])

    def unpack(self, flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        flat = np.asarray(flat, dtype=float)
        assert flat.shape == (self.size,)
        alphas = flat[: self.n_alpha].reshape(self.alpha_shape).copy()
        betas = flat[self.n_alpha :].reshape(self.beta_shape).copy()
        return alphas, betas

    def beta_mask(self) -> np.ndarray:
        mask = np.zeros(self.size, dtype=bool)
        mask[self.n_alpha :] = True
        return mask


# --- Adam --------------------------------------------------------------------


@dataclass
class AdamConfig:
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    clip_norm: float | None = 1.0  # global L2 clip; None disables


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def init(cls, size: int) -> "AdamState":
        return cls(m=np.zeros(size), v=np.zeros(size))


def clip_gradient(grad: np.ndarray, max_norm: float | None) -> np.ndarray:
    """Scale grad down so its L2 norm is at most max_norm."""
    if max_norm is None:
        return grad
    norm = float(np.linalg.norm(grad))
    if norm > max_norm and norm > 0.0:
        return grad * (max_norm / norm)
    return grad


def adam_step(
    state: AdamState, params: np.ndarray, grad: np.ndarray, cfg: AdamConfig
) -> np.ndarray:
    """One Adam update. Mutates state, returns the new parameter vector."""
    grad = np.asarray(grad, dtype=float)
    if not np.all(np.isfinite(grad)):
        raise NonFiniteGradientError(
            f"non-finite gradient at adam step {state.t + 1}"
        )
    grad = clip_gradient(grad, cfg.clip_norm)
    state.t += 1
    state.m = cfg.beta1 * state.m + (1 - cfg.beta1) * grad
    state.v = cfg.beta2 * state.v + (1 - cfg.beta2) * grad**2
    m_hat = state.m / (1 - cfg.beta1**state.t)
    v_hat = state.v / (1 - cfg.beta2**state.t)
    return params - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.eps)


def prox_l1(
    params: np.ndarray, mask: np.ndarray, step_size: float, lam: float
) -> np.ndarray:
    """Soft-threshold the masked slots by step_size * lam; others pass through."""
    out = np.asarray(params, dtype=float).copy()
    if lam <= 0.0 or step_size <= 0.0:
        return out
    thresh = step_size * lam
    sel = out[mask]
    out[mask] = np.sign(sel) * np.maximum(np.abs(sel) - thresh, 0.0)
    return out


# --- early stopping ----------------------------------------------------------


@dataclass
class EarlyStopPolicy:
    patience: int = 20
    min_delta: float = 0.0


class EarlyStopMonitor:
    """Tracks validation loss; says when to stop and keeps the best snapshot."""

    def __init__(self, policy: EarlyStopPolicy):
        self.policy = policy
        self.best_loss = np.inf
        self.best_params: np.ndarray | None = None
        self.best_epoch = -1
        self.stale = 0

    def update(self, loss: float, params: np.ndarray, epoch: int) -> bool:
        """Record one epoch. Returns True when patience is exhausted."""
        if loss < self.best_loss - self.policy.min_delta:
            self.best_loss = float(loss)
            self.best_params = np.array(params, dtype=float, copy=True)
            self.best_epoch = epoch
            self.stale = 0
            return False
        self.stale += 1
        return self.stale >= self.policy.patience


# --- L-BFGS ------------------------------------------------------------------


@dataclass
class LbfgsResult:
    x: np.ndarray
    loss: float
    grad: np.ndarray
    iterations: int
    converged: bool
    n_evals: int


Objective = Callable[[np.ndarray], tuple[float, np.ndarray]]


class _BestSeen:
    def __init__(self):
        self.f = np.inf
        self.x: np.ndarray | None = None
        self.g: np.ndarray | None = None

    def offer(self, f: float, x: np.ndarray, g: np.ndarray) -> None:
        if np.isfinite(f) and f < self.f:
            self.f = float(f)
            self.x = x.copy()
            self.g = g.copy()


def _two_loop(grad: np.ndarray, history: list[tuple[np.ndarray, np.ndarray, float]]) -> np.ndarray:
    q = grad.copy()
    alphas = []
    for s, y, rho in reversed(history):
        a = rho * float(s @ q)
        alphas.append(a)
        q -= a * y
    if history:
        s, y, _ = history[-1]
        q *= float(s @ y) / float(y @ y)
    for (s, y, rho), a in zip(history, reversed(alphas)):
        b = rho * float(y @ q)
        q += (a - b) * s
    return -q


def _zoom(phi, a_lo, a_hi, f_lo, f0, df0, c1, c2, eps_f, max_iter=30):
    """Strong-Wolfe zoom on the bracket [a_lo, a_hi]."""
    for _ in range(max_iter):
        a = 0.5 * (a_lo + a_hi)
        f, df, x, g = phi(a)
        armijo = np.isfinite(f) and f <= f0 + c1 * a * df0 + eps_f
        if not armijo or f >= f_lo + eps_f:
            a_hi = a
        else:
            if abs(df) <= -c2 * df0:
                return a, f, x, g
            if df * (a_hi - a_lo) >= 0:
                a_hi = a_lo
            a_lo, f_lo = a, f
        if abs(a_hi - a_lo) <= 1e-16 * max(1.0, abs(a_lo)):
            break
    return None


def _line_search(phi, f0, df0, c1, c2, eps_f, max_iter=25):
    """Strong-Wolfe search along a descent direction; None on failure.

    Objective comparisons carry a small noise allowance eps_f so the search
    keeps working once true function differences drop below float resolution.
    """
    a_prev, f_prev = 0.0, f0
    a = 1.0
    for i in range(max_iter):
        f, df, x, g = phi(a)
        too_high = not np.isfinite(f) or f > f0 + c1 * a * df0 + eps_f
        if too_high or (i > 0 and f >= f_prev + eps_f):
            return _zoom(phi, a_prev, a, f_prev, f0, df0, c1, c2, eps_f)
        if abs(df) <= -c2 * df0:
            return a, f, x, g
        if df >= 0:
            return _zoom(phi, a, a_prev, f, f0, df0, c1, c2, eps_f)
        a_prev, f_prev = a, f
        a = min(2.0 * a, 1e10)
    return None


def lbfgs_minimize(
    fun: Objective,
    x0: np.ndarray,
    memory: int = 10,
    grad_tol: float = 1e-8,
    max_iters: int = 500,
    c1: float = 1e-4,
    c2: float = 0.9,
) -> LbfgsResult:
    """Minimize fun (returning value and gradient) from x0.

    Stops when the gradient infinity-norm falls below grad_tol, the iteration
    budget runs out, or the line search fails; in the last two cases the best
    point seen so far is returned with converged=False.
    """
    x = np.array(x0, dtype=float, copy=True)
    evals = 0

    def call(z: np.ndarray) -> tuple[float, np.ndarray]:
        nonlocal evals
        evals += 1
        f, g = fun(z)
        return float(f), np.asarray(g, dtype=float)

    f, g = call(x)
    if not np.isfinite(f) or not np.all(np.isfinite(g)):
        raise NonFiniteObjectiveError("objective is non-finite at the initial point")
    best = _BestSeen()
    best.offer(f, x, g)

    history: list[tuple[np.ndarray, np.ndarray, float]] = []
    iterations = 0
    converged = bool(np.max(np.abs(g)) <= grad_tol)

    while not converged and iterations < max_iters:
        d = _two_loop(g, history)
        df0 = float(g @ d)
        if not np.isfinite(df0) or df0 >= 0:
            d = -g
            df0 = float(g @ d)
            history.clear()
            if df0 >= 0:  # gradient is exactly zero
                break

        def phi(a, _x=x, _d=d):
            z = _x + a * _d
            fv, gv = call(z)
            best.offer(fv, z, gv)
            # probes beyond the safe region return inf/nan and are simply
            # rejected by the search, so arithmetic warnings are expected
            with np.errstate(invalid="ignore", over="ignore"):
                return fv, float(gv @ _d), z, gv

        hit = _line_search(phi, f, df0, c1, c2, eps_f=1e-12 * (1.0 + abs(f)))
        iterations += 1
        if hit is None:
            return LbfgsResult(
                x=best.x, loss=best.f, grad=best.g,
                iterations=iterations, converged=False, n_evals=evals,
            )
        _, f_new, x_new, g_new = hit
        s = x_new - x
        y = g_new - g
        sy = float(s @ y)
        if sy > 1e-12:
            history.append((s, y, 1.0 / sy))
            if len(history) > memory:
                history.pop(0)
        x, f, g = x_new, f_new, g_new
        converged = bool(np.max(np.abs(g)) <= grad_tol)

    if converged:
        return LbfgsResult(
            x=x, loss=f, grad=g, iterations=iterations,
            converged=True, n_evals=evals,
        )
    return LbfgsResult(
        x=best.x, loss=best.f, grad=best.g,
        iterations=iterations, converged=False, n_evals=evals,
    )
