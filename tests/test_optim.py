import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from signolearn import optim
from signolearn.errors import NonFiniteGradientError, NonFiniteObjectiveError, OverflowLimitError
from signolearn.optim import (
    AdamState,
    EarlyStopMonitor,
    adam_step,
    clip_gradient,
    lbfgs_minimize,
    levenberg_marquardt,
    prox_l1,
)


# --- adam --------------------------------------------------------------------


def test_adam_first_step_matches_hand_computation():
    # oracle: hand Adam algebra; bias correction makes the first step
    # lr * g / (|g| + eps) = 0.1 / (1 + 1e-8) = 0.09999999900000009
    state = AdamState.init(1)
    out = adam_step(state, np.zeros(1), np.ones(1), 0.1)
    assert out[0] == pytest.approx(-0.09999999900000009, rel=1e-15)


def test_adam_zero_gradient_is_fixed_point():
    state = AdamState.init(4)
    params = np.array([1.0, -2.0, 0.5, 3.0])
    out = adam_step(state, params, np.zeros(4), 1e-3, clip_norm=1.0)
    assert np.array_equal(out, params)


def test_adam_rejects_non_finite_gradient():
    state = AdamState.init(2)
    with pytest.raises(NonFiniteGradientError) as exc:
        adam_step(state, np.zeros(2), np.array([1.0, np.nan]), 1e-3)
    assert exc.value.stack_index is None
    # on stacked rows it names the first bad row, before the state changes
    state = AdamState.init((4, 3))
    grad = np.ones((4, 3))
    grad[2, 1] = np.inf
    grad[3, 0] = np.nan
    with pytest.raises(NonFiniteGradientError) as exc:
        adam_step(state, np.zeros((4, 3)), grad, 1e-3)
    assert exc.value.stack_index == 2
    assert state.t == 0 and not state.m.any() and not state.v.any()


def test_adam_is_deterministic():
    def run():
        state = AdamState.init(3)
        p = np.array([0.3, -0.7, 1.1])
        for i in range(25):
            g = np.array([np.sin(i + 1.0), np.cos(i / 2.0), 0.1 * i])
            p = adam_step(state, p, g, 0.01, clip_norm=1.0)
        return p

    assert np.array_equal(run(), run())


def test_clip_scales_large_gradients_only():
    g = np.array([3.0, 4.0])  # norm 5
    clipped = clip_gradient(g, 1.0)
    assert np.linalg.norm(clipped) == pytest.approx(1.0)
    assert np.allclose(clipped, g / 5.0)
    small = np.array([0.3, 0.4])
    assert np.array_equal(clip_gradient(small, 1.0), small)


def test_adam_clip_equivalent_to_prescaled_gradient():
    g = np.array([6.0, 8.0])  # norm 10, clip 1 -> g / 10
    s1, s2 = AdamState.init(2), AdamState.init(2)
    p = np.array([1.0, 2.0])
    out1 = adam_step(s1, p, g, 0.05, clip_norm=1.0)
    out2 = adam_step(s2, p, g / 10.0, 0.05)
    assert np.allclose(out1, out2, rtol=0, atol=0)


def _row_grads(rng, step, rows, width):
    # row 0 is large enough to be clipped on every step, the rest mostly not
    g = rng.standard_normal((rows, width)) * 0.2
    g[0] *= 100.0 * (1 + step)
    return g


def test_stacked_adam_equals_row_by_row_bit_for_bit():
    rng = np.random.default_rng(0)
    rows, width = 4, 7
    lrs = np.array([[1e-3], [3e-2], [0.5], [1e-4]])  # one rate per row
    stacked = rng.standard_normal((rows, width))
    alone = [row.copy() for row in stacked]
    s_all = AdamState.init(stacked.shape)
    s_one = [AdamState.init(width) for _ in range(rows)]
    for step in range(20):
        g = _row_grads(rng, step, rows, width)
        stacked = adam_step(s_all, stacked, g, lrs, clip_norm=1.0)
        for r in range(rows):
            alone[r] = adam_step(s_one[r], alone[r], g[r], lrs[r, 0], clip_norm=1.0)
    assert np.array_equal(stacked, np.array(alone))
    assert stacked.tobytes() == np.array(alone).tobytes()


def test_clip_large_row_does_not_scale_small_row():
    g = np.array([[30.0, 40.0], [0.3, 0.4]])
    clipped = clip_gradient(g, 1.0)
    assert np.allclose(clipped[0], [0.6, 0.8], rtol=1e-15, atol=0)
    assert np.array_equal(clipped[1], g[1])
    # the Adam step of the small row is the one it takes alone
    s2, s1 = AdamState.init(g.shape), AdamState.init(2)
    out = adam_step(s2, np.zeros((2, 2)), g, 0.1, clip_norm=1.0)
    assert np.array_equal(out[1], adam_step(s1, np.zeros(2), g[1], 0.1, clip_norm=1.0))


def _reference_adam(m, v, t, params, grad, lr):
    """The unclipped, single-rate Adam update written out (Kingma & Ba 2015)."""
    m = optim.BETA1 * m + (1 - optim.BETA1) * grad
    v = optim.BETA2 * v + (1 - optim.BETA2) * grad**2
    m_hat = m / (1 - optim.BETA1**t)
    v_hat = v / (1 - optim.BETA2**t)
    return m, v, params - lr * m_hat / (np.sqrt(v_hat) + optim.EPS)


def test_scalar_rate_unclipped_adam_keeps_its_bits():
    # the regressor's call: many rows, one learning rate, no clipping
    rng = np.random.default_rng(1)
    params = rng.standard_normal((8, 12))
    ref, m, v = params.copy(), np.zeros_like(params), np.zeros_like(params)
    state = AdamState.init(params.shape)
    for t in range(1, 31):
        g = rng.standard_normal(params.shape) * 10.0 ** rng.integers(-3, 3)
        params = adam_step(state, params, g, 0.03)
        m, v, ref = _reference_adam(m, v, t, ref, g, 0.03)
        assert params.tobytes() == ref.tobytes()


# --- proximal L1 -------------------------------------------------------------


def test_prox_soft_threshold_examples():
    mask = np.array([True, True])
    out = prox_l1(np.array([0.5, -1.0]), mask, step_size=1.0, lam=0.7)
    assert out[0] == 0.0  # |0.5| <= 0.7 collapses to zero
    assert out[1] == pytest.approx(-0.3)


def test_prox_leaves_unmasked_slots_alone():
    mask = np.array([False, True])
    out = prox_l1(np.array([0.5, 0.5]), mask, step_size=1.0, lam=10.0)
    assert out[0] == 0.5
    assert out[1] == 0.0


@settings(max_examples=100, deadline=None)
@given(
    arrays(float, 6, elements=st.floats(-10, 10, allow_nan=False)),
    st.floats(0.0, 5.0, allow_nan=False),
)
def test_prox_preserves_sign_and_contracts(params, thresh):
    mask = np.array([True] * 4 + [False] * 2)
    out = prox_l1(params, mask, step_size=1.0, lam=thresh)
    assert np.all(np.abs(out) <= np.abs(params) + 1e-15)
    moved = mask & (out != 0)
    assert np.all(np.sign(out[moved]) == np.sign(params[moved]))
    assert np.array_equal(out[~mask], params[~mask])


def test_prox_per_row_step_sizes_match_per_row_calls():
    rng = np.random.default_rng(2)
    params = rng.standard_normal((5, 6))
    mask = np.array([False, False, True, True, True, True])
    steps = np.array([[0.1], [0.0], [0.5], [1e-3], [2.0]])  # one per row
    lams = np.array([[1.0], [3.0], [0.0], [0.5], [0.2]])
    out = prox_l1(params, mask, steps, lams)
    for r in range(5):
        alone = prox_l1(params[r], mask, steps[r, 0], lams[r, 0])
        assert out[r].tobytes() == alone.tobytes()
    # rows with a zero step or a zero penalty pass through unchanged
    assert np.array_equal(out[1:3], params[1:3])


def test_prox_scalar_step_keeps_its_bits():
    # the regressor's call: one step size and penalty for a stack of rows
    rng = np.random.default_rng(3)
    params = rng.standard_normal((6, 9))
    mask = np.arange(9) >= 3
    out = prox_l1(params, mask, 0.3, 0.7)
    ref = params.copy()
    sel = ref[:, mask]
    ref[:, mask] = np.sign(sel) * np.maximum(np.abs(sel) - 0.3 * 0.7, 0.0)
    assert out.tobytes() == ref.tobytes()


# --- early stopping ----------------------------------------------------------


def test_early_stop_restores_best_snapshot():
    mon = EarlyStopMonitor(patience=2)
    losses = [1.0, 0.9, 0.95, 0.95]
    stop_at = None
    for epoch, loss in enumerate(losses):
        if mon.update(loss, np.array([float(epoch)]), epoch):
            stop_at = epoch
            break
    assert stop_at == 3
    assert mon.best_loss == 0.9
    assert mon.best_epoch == 1
    assert mon.best_params[0] == 1.0


# --- L-BFGS ------------------------------------------------------------------


def quadratic(A, b):
    def fun(x):
        return 0.5 * x @ A @ x - b @ x, A @ x - b

    return fun


def test_lbfgs_solves_convex_quadratics_quickly():
    rng = np.random.default_rng(11)
    for trial in range(20):
        n = int(rng.integers(2, 11))
        Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        eigs = rng.uniform(0.5, 100.0, size=n)
        A = Q @ np.diag(eigs) @ Q.T
        b = rng.normal(size=n)
        res = lbfgs_minimize(quadratic(A, b), rng.normal(size=n))
        assert res.converged, f"trial {trial} did not converge"
        assert res.iterations <= 50
        assert np.max(np.abs(res.grad)) <= 1e-8


def test_lbfgs_rosenbrock():
    def rosen(x):
        f = 100.0 * (x[1] - x[0] ** 2) ** 2 + (1 - x[0]) ** 2
        g = np.array(
            [
                -400.0 * x[0] * (x[1] - x[0] ** 2) - 2 * (1 - x[0]),
                200.0 * (x[1] - x[0] ** 2),
            ]
        )
        return f, g

    res = lbfgs_minimize(rosen, np.array([-1.2, 1.0]))
    assert res.loss < 1e-8
    assert np.allclose(res.x, [1.0, 1.0], atol=1e-4)


def test_lbfgs_zero_budget_returns_initial_point(monkeypatch):
    monkeypatch.setattr(optim, "LBFGS_MAX_ITERS", 0)
    res = lbfgs_minimize(quadratic(np.eye(2), np.ones(2)), np.zeros(2))
    assert np.array_equal(res.x, np.zeros(2))
    assert not res.converged
    assert res.iterations == 0


def test_lbfgs_already_stationary_init_reports_converged():
    res = lbfgs_minimize(quadratic(np.eye(2), np.zeros(2)), np.zeros(2))
    assert res.converged
    assert res.iterations == 0


def test_lbfgs_non_finite_init_rejected():
    def bad(x):
        return np.nan, np.zeros_like(x)

    with pytest.raises(NonFiniteObjectiveError):
        lbfgs_minimize(bad, np.zeros(2))


def test_lbfgs_line_search_failure_returns_best_seen():
    # f grows in every direction from a cusp; line search cannot satisfy Wolfe
    def cusp(x):
        r = np.sqrt(np.sum(x**2)) + 1e-12
        return np.sqrt(r), x / (2 * np.sqrt(r) * r)

    res = lbfgs_minimize(cusp, np.array([1.0, 1.0]))
    assert not res.converged
    assert res.loss <= np.sqrt(np.sqrt(2.0)) + 1e-12  # no worse than the start


# --- Levenberg-Marquardt -----------------------------------------------------


def test_lm_solves_linear_least_squares_in_three_iterations(monkeypatch):
    # each damped step shrinks the error by about mu, which falls 1e-3, 1e-4, 1e-5
    monkeypatch.setattr(optim, "LM_MAX_ITERS", 3)
    rng = np.random.default_rng(5)
    A = rng.normal(size=(30, 4))
    b = rng.normal(size=30)
    res = levenberg_marquardt(lambda x: (A @ x - b, A), np.zeros(4))
    want, *_ = np.linalg.lstsq(A, b, rcond=None)
    assert res.iterations <= 3
    np.testing.assert_allclose(res.x, want, rtol=0, atol=1e-10)
    assert res.sse == pytest.approx(float(np.sum((A @ want - b) ** 2)), rel=1e-12)


def test_lm_rosenbrock_residuals():
    def rosen(x):
        r = np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]])
        jac = np.array([[-20.0 * x[0], 10.0], [-1.0, 0.0]])
        return r, jac

    res = levenberg_marquardt(rosen, np.array([-1.2, 1.0]))
    assert res.converged
    assert res.sse < 1e-20
    np.testing.assert_allclose(res.x, [1.0, 1.0], rtol=0, atol=1e-10)


def test_lm_zero_budget_returns_initial_point(monkeypatch):
    monkeypatch.setattr(optim, "LM_MAX_ITERS", 0)
    x0 = np.array([3.0, -1.0])
    res = levenberg_marquardt(lambda x: (x - 1.0, np.eye(2)), x0)
    assert np.array_equal(res.x, x0)
    assert res.sse == 8.0
    assert res.iterations == 0
    assert not res.converged


def test_lm_non_finite_start_rejected():
    with pytest.raises(NonFiniteObjectiveError):
        levenberg_marquardt(lambda x: (np.array([np.nan]), np.ones((1, 1))), np.zeros(1))

    def overflows(x):
        raise OverflowLimitError("term log-magnitude too large")

    with pytest.raises(NonFiniteObjectiveError):
        levenberg_marquardt(overflows, np.zeros(1))


def test_lm_overflowing_trial_is_a_rejected_step():
    # every point but the start overflows: each trial is rejected and mu
    # climbs until the step is negligible; the start comes back untouched
    x0 = np.array([0.5, 2.0])
    trials = []

    def fun(x):
        if not np.array_equal(x, x0):
            trials.append(x.copy())
            raise OverflowLimitError("term log-magnitude too large")
        return x - 1.0, np.eye(2)

    res = levenberg_marquardt(fun, x0)
    assert np.array_equal(res.x, x0)
    assert res.sse == 1.25
    assert res.iterations == 1
    # every trial started from x0, with a step that shrinks as mu grows
    steps = np.linalg.norm(np.array(trials) - x0, axis=1)
    assert len(trials) > 10
    assert np.all(np.diff(steps) < 0)
