"""Optimizers used by the trainers.

Everything here is deterministic given its inputs: Adam with per-row
gradient-norm clipping, an L1 proximal step applied to exponent slots only,
`AdamStack`, which runs both in place on stacked rows, on buffers it owns
(parameters, moments and a gradient its trainer's backward pass fills), and
drops a row that diverges,
`finite_rows`, the one check that names a stack's first non-finite loss, an
early-stopping monitor that snapshots the best parameters seen, and a
Levenberg-Marquardt least-squares solver with Marquardt's diagonal damping,
which polishes signomial regression fits. It stops converged on a zero
gradient, a negligible accepted decrease, a negligible step, or a rejected
trial whose predicted decrease is negligible (the noise floor, where raising
the damping further buys nothing), and unconverged when the damping or the
iteration budget runs out, or when it loses a race: given a ceiling on the
sum of squares, it abandons a run still above it after LM_RACE_EVALS
residual evaluations. A multi-term regression fit races its candidates this
way, with a ceiling of `regressor.RACE_MARGIN` times the best sum of squares
it has so far, so it stops polishing a candidate that cannot win.
`LmResult` names the stop and counts the residual evaluations, and its x is
always a point it evaluated. The package no longer calls its
two-loop-recursion L-BFGS with a strong-Wolfe line search; it stays while
the benchmark's tracer (`perfbench/tracer.py`) still looks it up by name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (NonFiniteGradientError, NonFiniteLossError, NonFiniteObjectiveError,
                     NumericalError, OverflowLimitError)


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
    """Scale each row of grad (its last axis) down so its L2 norm is at most
    max_norm > 0. Rows are clipped independently: a large row does not scale
    a small one, and a row within the norm is multiplied by exactly 1.
    """
    if max_norm is None:
        return grad
    # a stacked dot product per row: for one row it is bit for bit the
    # grad @ grad that np.linalg.norm takes
    norm = np.sqrt(grad[..., None, :] @ grad[..., :, None])[..., 0]
    return grad * (max_norm / np.maximum(norm, max_norm))


def adam_step(
    state: AdamState,
    params: np.ndarray,
    grad: np.ndarray,
    learning_rate,
    clip_norm: float | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """One Adam update, after clipping grad to L2 norm clip_norm if given.

    params and grad are one vector (P,) or R stacked rows (R, P); rows are
    clipped one by one, and learning_rate is a number or one rate per row
    (R, 1). No arithmetic crosses rows, so a row's update is the one it
    would get on its own. A non-finite gradient raises
    NonFiniteGradientError, naming the first such row of a stack in
    stack_index, before state changes. Updates state's moments in place and
    returns the new parameters, written into out if given (params itself
    may be out) and into a new array otherwise; grad is never written.
    """
    grad = np.asarray(grad, dtype=float)
    if not np.isfinite(grad).all():
        raise NonFiniteGradientError(
            f"non-finite gradient at adam step {state.t + 1}",
            stack_index=int(np.argwhere(~np.isfinite(grad))[0, 0]) if grad.ndim > 1 else None,
        )
    grad = clip_gradient(grad, clip_norm)
    state.t += 1
    # the moments in place, each product and sum the one the textbook
    # m = b1 m + (1 - b1) g gives, so the bits are the same
    state.m *= BETA1
    state.m += (1 - BETA1) * grad
    state.v *= BETA2
    state.v += (1 - BETA2) * np.square(grad)
    # lr * m_hat / (sqrt(v_hat) + eps), in two buffers
    step = state.m / (1 - BETA1**state.t)
    step *= learning_rate
    root = state.v / (1 - BETA2**state.t)
    np.sqrt(root, out=root)
    root += EPS
    step /= root
    return np.subtract(params, step, out=out)


def prox_l1(params: np.ndarray, mask: np.ndarray, step_size, lam,
            out: np.ndarray | None = None) -> np.ndarray:
    """Soft-threshold the masked slots by step_size * lam; others pass through.

    params is one vector (P,) or stacked rows (R, P), and the mask (P,)
    selects the same slots in every row. step_size and lam are >= 0, numbers
    or one per row (R, 1); a zero product leaves the slots as they are. The
    result is written into out if given (params itself may be out) and into
    a new array otherwise.
    """
    params = np.asarray(params, dtype=float)
    shrunk = np.abs(params)
    shrunk -= np.multiply(step_size, lam)
    np.maximum(shrunk, 0.0, out=shrunk)
    shrunk *= np.sign(params)
    if out is None:
        out = np.empty_like(params)
    np.copyto(out, params)  # nothing to copy when out is params
    np.copyto(out, shrunk, where=np.asarray(mask, dtype=bool))
    return out


def finite_rows(losses: np.ndarray, message: str, epoch: int | None = None) -> np.ndarray:
    """losses, one per stacked row, or a NonFiniteLossError with message that
    names the first non-finite row in stack_index, so AdamStack.run drops it."""
    if np.isfinite(losses).all():
        return losses
    bad = int(np.flatnonzero(~np.isfinite(losses))[0])
    raise NonFiniteLossError(message, epoch=epoch, stack_index=bad)


class AdamStack:
    """Proximal Adam on R signomials side by side. Each row of params holds
    one's alphas, then its betas (mask, the slots the L1 step shrinks), with
    its own learning rate, L1 strength and Adam moments; no arithmetic
    crosses rows. A trainer that solves its coefficients instead passes
    zero-width alphas (R, 0), and its rows hold only the betas. live holds
    the original indices of the rows in the stack, and errors the error of
    each row that left it, by original index.

    The stack owns its buffers and updates them in place: the (R, P)
    parameters, the Adam moments, and one (R, P) gradient buffer that a
    trainer fills through the views `gradient` returns (`signomial.backward`
    writes into them) before each `step`.
    """

    def __init__(self, alphas, betas, lr, l1, clip_norm: float | None = None):
        r = len(alphas)
        self._shapes = alphas.shape[1:], betas.shape[1:]
        self._n_alpha = alphas[0].size
        self.params = np.concatenate([alphas.reshape(r, -1), betas.reshape(r, -1)], axis=1)
        self._grad = np.zeros_like(self.params)
        self.mask = np.arange(self.params.shape[1]) >= self._n_alpha
        self.lr = np.broadcast_to(np.reshape(lr, (-1, 1)), (r, 1)).astype(float)
        self.l1 = np.broadcast_to(np.reshape(l1, (-1, 1)), (r, 1)).astype(float)
        self.clip_norm = clip_norm
        self.adam = AdamState.init(self.params.shape)
        self.live = np.arange(r)
        self.errors: dict[int, NumericalError] = {}
        self._views = self.split(self._grad)

    def split(self, params: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The alphas and betas of parameter rows (..., P), in their own
        shapes, as views of params."""
        lead, n = params.shape[:-1], self._n_alpha
        return (params[..., :n].reshape(lead + self._shapes[0]),
                params[..., n:].reshape(lead + self._shapes[1]))

    def gradient(self) -> tuple[np.ndarray, np.ndarray]:
        """Views of the live rows' gradient buffer in the alphas' and betas'
        shapes, (L, ...) each, for the trainer to fill before `step`."""
        return self._views

    def penalty(self) -> np.ndarray:
        """Each live row's L1 term: its strength times the sum of |beta|."""
        return self.l1[:, 0] * np.abs(self.params[:, self._n_alpha :]).sum(axis=1)

    def step(self) -> None:
        """One Adam and L1 proximal step, in place, on the gradient the views
        of `gradient` hold; a non-finite gradient changes nothing."""
        grad = self._grad[: len(self.live)]
        # each writes its result over params: the last argument is out
        adam_step(self.adam, self.params, grad, self.lr, self.clip_norm, self.params)
        prox_l1(self.params, self.mask, self.lr, self.l1, self.params)

    def keep(self, rows: np.ndarray) -> None:
        """Keep the live rows where the boolean array rows is true."""
        self.live, self.params = self.live[rows], self.params[rows]
        self._views = self.split(self._grad[: len(self.live)])
        self.lr, self.l1 = self.lr[rows], self.l1[rows]
        self.adam.m, self.adam.v = self.adam.m[rows], self.adam.v[rows]

    def run(self, fn, *args):
        """fn(*args) over the live rows, or None once no row is left. A
        NumericalError naming a row (stack_index) removes that row, and fn,
        which must change nothing before it raises, runs again on the rest.
        """
        while len(self.live):
            try:
                return fn(*args)
            except NumericalError as exc:
                if exc.stack_index is None:
                    raise
                self.errors[int(self.live[exc.stack_index])] = exc
                self.keep(np.arange(len(self.live)) != exc.stack_index)
        return None


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


# --- Levenberg-Marquardt -------------------------------------------------------


@dataclass
class LmResult:
    x: np.ndarray
    sse: float  # sum of squared residuals at x
    iterations: int
    converged: bool  # False when the budget ran out or no damped step improved
    evaluations: int = 0  # residual calls, the one at x0 included
    # why it stopped: "gradient", "decrease", "step" or "model" (converged),
    # "damping", "iterations" or "abandoned" (not; the last when a race lost:
    # above the ceiling, RACE_MARGIN times the leader's sum of squares in a
    # regression fit, after LM_RACE_EVALS evaluations); None when unknown
    stop: str | None = None
    mu: float = math.nan  # the damping weight at the stop


Residuals = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]

# Marquardt's damping weight: its start, the factor it moves by after each
# trial, and the weight past which no step counts as improving; the relative
# decrease and relative step length that count as converged; the iteration
# budget; the residual evaluations a run gets before a ceiling can stop it
LM_MU_INIT = 1e-3
LM_MU_FACTOR = 10.0
LM_MU_MAX = 1e16
LM_FTOL = 1e-14
LM_XTOL = 1e-12
LM_MAX_ITERS = 200
LM_RACE_EVALS = 20


def _lm_point(fun: Residuals, x: np.ndarray):
    """(residuals, Jacobian, sum of squares) at x, or None if x is unusable.

    A point where fun raises OverflowLimitError or returns anything
    non-finite is unusable, so arithmetic warnings on the way are expected.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            r, jac = fun(x)
        except OverflowLimitError:
            return None
        sse = float(r @ r)
    if not (math.isfinite(sse) and np.isfinite(jac).all()):
        return None
    return r, jac, sse


def levenberg_marquardt(
    fun: Residuals, x0: np.ndarray, ceiling: float = math.inf
) -> LmResult:
    """Minimize the sum of squares of fun(x)[0] from x0; fun(x) = (r (N,), J (N, P)).

    Each iteration solves (J'J + mu D) h = -g, with g = J'r and Marquardt's
    scale D = diag(J'J), dividing mu by LM_MU_FACTOR when the trial x + h
    lowers the sum of squares and multiplying it otherwise; a trial that
    overflows or turns non-finite is a rejected step. It stops, converged, on
    a zero gradient ("gradient"), an accepted relative decrease below LM_FTOL
    ("decrease"), a relative step below LM_XTOL ("step"), or a rejected trial
    whose decrease the linear model predicts, mu h'Dh - h'g, is at most
    LM_FTOL times the sum of squares ("model"): at the noise floor a larger
    mu only shortens a step the model already calls worthless, as in
    MINPACK's lmder (More 1978). It stops unconverged when mu passes
    LM_MU_MAX without an improving step ("damping"), LM_MAX_ITERS
    iterations are spent ("iterations"), or, at an accepted step after at
    least LM_RACE_EVALS evaluations, the sum of squares is still above
    ceiling ("abandoned"): a caller racing several starts passes a margin
    over the best sum of squares it already has, as `regressor.fit_sr`
    passes RACE_MARGIN times its leader's, and the default, inf, never
    stops a run. This is a deterministic form of Maron & Moore's "Hoeffding
    races" (1993) and of successive halving (Karnin, Koren & Somekh 2013).
    The returned x is always a point fun was called at. Raises
    NonFiniteObjectiveError if x0 itself is unusable.
    """
    x = np.array(x0, dtype=float, copy=True)
    at = _lm_point(fun, x)
    evaluations = 1
    if at is None:
        raise NonFiniteObjectiveError("residuals are non-finite at the initial point")
    r, jac, sse = at
    mu = LM_MU_INIT

    def result(iterations, converged, stop):
        return LmResult(x, sse, iterations, converged, evaluations, stop, mu)

    for iterations in range(LM_MAX_ITERS):
        grad = jac.T @ r
        if not grad.any():
            return result(iterations, True, "gradient")
        jtj = jac.T @ jac
        # a parameter the residuals ignore gets unit scale, as in MINPACK
        scale = np.diag(jtj).copy()
        scale[scale == 0.0] = 1.0
        x_norm = np.linalg.norm(x)
        while True:
            damped = jtj.copy()
            damped.flat[:: len(x) + 1] += mu * scale
            step = np.linalg.solve(damped, -grad)
            if np.linalg.norm(step) <= LM_XTOL * (x_norm + LM_XTOL):
                return result(iterations + 1, True, "step")
            trial = _lm_point(fun, x + step)
            evaluations += 1
            if trial is not None and trial[2] < sse:
                break
            if mu * ((step * scale) @ step) - step @ grad <= LM_FTOL * sse:
                return result(iterations + 1, True, "model")
            mu *= LM_MU_FACTOR
            if mu > LM_MU_MAX:
                return result(iterations + 1, False, "damping")
        mu /= LM_MU_FACTOR
        decrease = sse - trial[2]
        x = x + step
        r, jac, sse = trial
        if decrease <= LM_FTOL * (sse + decrease):
            return result(iterations + 1, True, "decrease")
        if evaluations >= LM_RACE_EVALS and sse > ceiling:
            return result(iterations + 1, False, "abandoned")
    return result(LM_MAX_ITERS, False, "iterations")
