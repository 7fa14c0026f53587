"""First-order and quasi-Newton optimizers used by the trainers.

Everything here is deterministic given its inputs: Adam with global-norm
gradient clipping, an L1 proximal step applied to exponent slots only, a
two-loop-recursion L-BFGS with a strong-Wolfe line search, and an
early-stopping monitor that snapshots the best parameters seen.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NonFiniteGradientError, NonFiniteObjectiveError


# --- Adam --------------------------------------------------------------------


# the fixed moment decays and denominator guard of Kingma & Ba (2015)
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def init(cls, shape: int | tuple[int, ...]) -> "AdamState":
        """Zero moments for parameters of the given size or shape."""
        return cls(m=np.zeros(shape), v=np.zeros(shape))


def clip_gradient(grad: np.ndarray, max_norm: float | None) -> np.ndarray:
    """Scale grad down so its L2 norm is at most max_norm."""
    if max_norm is None:
        return grad
    norm = float(np.linalg.norm(grad))
    if norm > max_norm and norm > 0.0:
        return grad * (max_norm / norm)
    return grad


def adam_step(
    state: AdamState,
    params: np.ndarray,
    grad: np.ndarray,
    learning_rate: float,
    clip_norm: float | None = None,
) -> np.ndarray:
    """One Adam update, after clipping grad to L2 norm clip_norm if given.

    Mutates state, returns the new parameter vector.
    """
    grad = np.asarray(grad, dtype=float)
    if not np.all(np.isfinite(grad)):
        raise NonFiniteGradientError(
            f"non-finite gradient at adam step {state.t + 1}"
        )
    grad = clip_gradient(grad, clip_norm)
    state.t += 1
    state.m = BETA1 * state.m + (1 - BETA1) * grad
    state.v = BETA2 * state.v + (1 - BETA2) * grad**2
    m_hat = state.m / (1 - BETA1**state.t)
    v_hat = state.v / (1 - BETA2**state.t)
    return params - learning_rate * m_hat / (np.sqrt(v_hat) + EPS)


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


class EarlyStopMonitor:
    """Tracks validation loss; says when to stop and keeps the best snapshot."""

    def __init__(self, patience: int):
        self.patience = patience
        self.best_loss = np.inf
        self.best_params: np.ndarray | None = None
        self.best_epoch = -1
        self.stale = 0

    def update(self, loss: float, params: np.ndarray, epoch: int) -> bool:
        """Record one epoch. Returns True when patience is exhausted."""
        if loss < self.best_loss:
            self.best_loss = float(loss)
            self.best_params = np.array(params, dtype=float, copy=True)
            self.best_epoch = epoch
            self.stale = 0
            return False
        self.stale += 1
        return self.stale >= self.patience


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

# curvature pairs kept, the gradient infinity-norm that counts as converged,
# the iteration budget, and the strong-Wolfe sufficient-decrease (C1) and
# curvature (C2) constants
LBFGS_MEMORY = 10
LBFGS_GRAD_TOL = 1e-8
LBFGS_MAX_ITERS = 500
WOLFE_C1 = 1e-4
WOLFE_C2 = 0.9


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


def _zoom(phi, a_lo, a_hi, f_lo, f0, df0, eps_f):
    """Strong-Wolfe zoom on the bracket [a_lo, a_hi]."""
    for _ in range(30):
        a = 0.5 * (a_lo + a_hi)
        f, df, x, g = phi(a)
        armijo = np.isfinite(f) and f <= f0 + WOLFE_C1 * a * df0 + eps_f
        if not armijo or f >= f_lo + eps_f:
            a_hi = a
        else:
            if abs(df) <= -WOLFE_C2 * df0:
                return a, f, x, g
            if df * (a_hi - a_lo) >= 0:
                a_hi = a_lo
            a_lo, f_lo = a, f
        if abs(a_hi - a_lo) <= 1e-16 * max(1.0, abs(a_lo)):
            break
    return None


def _line_search(phi, f0, df0, eps_f):
    """Strong-Wolfe search along a descent direction; None on failure.

    Objective comparisons carry a small noise allowance eps_f so the search
    keeps working once true function differences drop below float resolution.
    """
    a_prev, f_prev = 0.0, f0
    a = 1.0
    for i in range(25):
        f, df, x, g = phi(a)
        too_high = not np.isfinite(f) or f > f0 + WOLFE_C1 * a * df0 + eps_f
        if too_high or (i > 0 and f >= f_prev + eps_f):
            return _zoom(phi, a_prev, a, f_prev, f0, df0, eps_f)
        if abs(df) <= -WOLFE_C2 * df0:
            return a, f, x, g
        if df >= 0:
            return _zoom(phi, a, a_prev, f, f0, df0, eps_f)
        a_prev, f_prev = a, f
        a = min(2.0 * a, 1e10)
    return None


def lbfgs_minimize(fun: Objective, x0: np.ndarray) -> LbfgsResult:
    """Minimize fun (returning value and gradient) from x0.

    Stops when the gradient infinity-norm falls below LBFGS_GRAD_TOL, the
    LBFGS_MAX_ITERS budget runs out, or the line search fails; in the last two
    cases the best point seen so far is returned with converged=False.
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
    converged = bool(np.max(np.abs(g)) <= LBFGS_GRAD_TOL)

    while not converged and iterations < LBFGS_MAX_ITERS:
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

        hit = _line_search(phi, f, df0, eps_f=1e-12 * (1.0 + abs(f)))
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
            if len(history) > LBFGS_MEMORY:
                history.pop(0)
        x, f, g = x_new, f_new, g_new
        converged = bool(np.max(np.abs(g)) <= LBFGS_GRAD_TOL)

    if converged:
        return LbfgsResult(
            x=x, loss=f, grad=g, iterations=iterations,
            converged=True, n_evals=evals,
        )
    return LbfgsResult(
        x=best.x, loss=best.f, grad=best.g,
        iterations=iterations, converged=False, n_evals=evals,
    )
