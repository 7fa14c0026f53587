import json
import math
import os
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signolearn.errors import (
    AllRestartsFailedError,
    BadConfigError,
    CorruptModelError,
    DataFormatError,
    DimensionMismatchError,
    NonFiniteLossError,
    NonFiniteObjectiveError,
    NonPositiveInputError,
    OverflowLimitError,
    SignolearnError,
)
from signolearn import cli, data_io, optim, regressor, signomial
from signolearn.optim import LmResult
from signolearn.regressor import (
    RegressorModel,
    SrConfig,
    TargetSpec,
    evaluate_recovery,
    fit_sr,
    generate_benchmark_data,
    score_fit,
    sr_loss_and_grad,
)
from signolearn.signomial import (
    Signomial,
    Term,
    canonicalize,
    equivalent,
    evaluate,
    forward,
    log_inputs,
)

ASSETS = os.path.join(os.path.dirname(regressor.__file__), "assets")
SUITE = os.path.join(ASSETS, "feynman_subset.json")
HARD_SUITE = os.path.join(ASSETS, "signomial_hard.json")


def monomial_spec(name="prod", exponents=(1.0, 1.0), alpha=1.0, samples=(200, 1000)):
    m = len(exponents)
    return TargetSpec(
        name=name,
        truth=Signomial([Term(alpha, tuple(exponents))]),
        ranges=tuple((1.0, 5.0) for _ in range(m)),
        samples=samples,
        num_terms=1,
    )


# --- loss ------------------------------------------------------------------------


def test_loss_zero_at_exact_generator():
    rng = np.random.default_rng(0)
    s = Signomial([Term(2.0, (1.0, -0.5))])
    X = rng.uniform(1, 5, size=(50, 2))
    y = 2.0 * X[:, 0] * X[:, 1] ** -0.5
    loss, _ = sr_loss_and_grad(s, X, y)
    assert loss == pytest.approx(0.0, abs=1e-22)


def test_loss_is_squared_residual():
    s = Signomial([Term(1.0, (0.0,))])  # constant 1
    loss, _ = sr_loss_and_grad(s, [[2.0]], [3.0])
    assert loss == pytest.approx(4.0)


def test_loss_includes_l1_on_exponents():
    s = Signomial([Term(1.5, (2.0, -1.0))])
    X = [[1.5, 2.0]]
    y = [4.0]
    base, g0 = sr_loss_and_grad(s, X, y, l1_penalty=0.0)
    full, g1 = sr_loss_and_grad(s, X, y, l1_penalty=0.1)
    assert full == pytest.approx(base + 0.1 * 3.0, rel=1e-12)
    np.testing.assert_array_equal(g0, g1)  # penalty is prox-handled, not in grad


def test_loss_gradient_matches_finite_differences():
    rng = np.random.default_rng(4)
    for _ in range(20):
        k, m = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        alphas = rng.normal(0, 2, size=k)
        betas = rng.uniform(-1.5, 1.5, size=(k, m))
        X = rng.uniform(0.5, 3.0, size=(12, m))
        y = rng.normal(0, 3, size=12)
        s = Signomial.from_arrays(alphas, betas)
        _, grad = sr_loss_and_grad(s, X, y)

        theta0 = np.concatenate([alphas, betas.ravel()])
        h = 1e-6 * np.maximum(1.0, np.abs(theta0))

        def loss_at(theta):
            a, b = theta[:k], theta[k:].reshape(k, m)
            val, _ = sr_loss_and_grad(Signomial.from_arrays(a, b), X, y)
            return val

        fd = np.zeros_like(theta0)
        for i in range(len(theta0)):
            up, dn = theta0.copy(), theta0.copy()
            up[i] += h[i]
            dn[i] -= h[i]
            fd[i] = (loss_at(up) - loss_at(dn)) / (2 * h[i])
        assert np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-12) < 1e-5


def test_loss_input_validation():
    s = Signomial([Term(1.0, (1.0,))])
    with pytest.raises(DataFormatError):
        sr_loss_and_grad(s, np.empty((0, 1)), [])
    with pytest.raises(DimensionMismatchError):
        sr_loss_and_grad(s, [[1.0]], [1.0, 2.0])
    with pytest.raises(NonPositiveInputError):
        sr_loss_and_grad(s, [[-1.0]], [1.0])
    with pytest.raises(DimensionMismatchError):
        sr_loss_and_grad(s, [[1.0, 2.0]], [1.0])
    with pytest.raises(DataFormatError):
        sr_loss_and_grad(s, [[1.0]], [np.nan])


@pytest.mark.parametrize("k", [1, 2])
def test_a_fit_on_zero_feature_columns_fails_before_any_work(monkeypatch, k):
    def unexpected(*args, **kwargs):
        raise AssertionError("a fit on no features trained")

    monkeypatch.setattr(regressor, "_adam_stage", unexpected)
    monkeypatch.setattr(regressor, "_polish", unexpected)
    with pytest.raises(DimensionMismatchError, match=r"\(5, 0\)"):
        fit_sr(np.ones((5, 0)), np.arange(1.0, 6.0), SrConfig(num_terms=k), 0)


@pytest.mark.parametrize("k", [1, 2])
def test_a_target_whose_sum_of_squares_overflows_is_refused_without_a_warning(k):
    # 20 * (1e300)^2 passes float range: one typed error and no numpy
    # warning, before any fit squares the target
    X = np.random.default_rng(0).uniform(1.0, 2.0, size=(20, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataFormatError, match="sum of squares"):
            fit_sr(X, np.full(20, 1e300), SrConfig(num_terms=k), seed=0)
    # a target just inside float range is still fitted
    s, _ = fit_sr(X, np.full(20, 1e150), SrConfig(num_terms=1), seed=0)
    assert s.alphas[0] == pytest.approx(1e150, rel=1e-9)


def test_loss_and_score_raise_the_same_overflow():
    # 800 ln 10 is far past the kernel's log-magnitude limit
    s = Signomial([Term(1.0, (800.0,))])
    errors = []
    for call in (sr_loss_and_grad, score_fit):
        with pytest.raises(OverflowLimitError) as exc:
            call(s, [[10.0]], [1.0])
        errors.append(exc.value)
    assert str(errors[0]) == str(errors[1])
    assert errors[0].term_index == errors[1].term_index == 0


# --- config -----------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(BadConfigError):
        SrConfig(num_terms=0).validate()
    with pytest.raises(BadConfigError):
        SrConfig(lambda_struct=-1e-3).validate()
    with pytest.raises(BadConfigError):
        SrConfig(restarts=0).validate()
    with pytest.raises(BadConfigError):
        SrConfig(seed_list=()).validate()
    with pytest.raises(BadConfigError):
        SrConfig(noise_sigma=-0.1).validate()
    for bad in (math.nan, math.inf):
        for kwargs in ({"learning_rate": bad}, {"noise_sigma": bad}, {"lambda_struct": bad}):
            with pytest.raises(BadConfigError):
                SrConfig(**kwargs).validate()
    with pytest.raises(BadConfigError):
        generate_benchmark_data(monomial_spec(), 200, math.nan, 0)


def test_default_restarts_depend_on_term_count():
    # K=1 needs one start: the log-space fit is exact for a noiseless monomial
    assert SrConfig(num_terms=1).resolved_restarts() == 1
    assert SrConfig(num_terms=3).resolved_restarts() == 8
    assert SrConfig(num_terms=3, restarts=2).resolved_restarts() == 2


# --- fitting ----------------------------------------------------------------------


def test_fit_recovers_product_of_two_features():
    rng = np.random.default_rng(0)
    X = rng.uniform(1, 5, size=(200, 2))
    y = 2.0 * X[:, 0] * X[:, 1]
    s, stats = fit_sr(X, y, SrConfig(num_terms=1), seed=0)
    assert s.num_terms == 1
    assert s.alphas[0] == pytest.approx(2.0, abs=1e-3)
    np.testing.assert_allclose(s.betas[0], [1.0, 1.0], atol=1e-3)
    assert stats.final_mse < 1e-10


def test_fit_constant_target_zeroes_all_exponents():
    rng = np.random.default_rng(5)
    X = rng.uniform(1, 5, size=(150, 2))
    y = np.full(150, 4.2)
    s, _ = fit_sr(X, y, SrConfig(num_terms=1), seed=1)
    assert s.num_terms == 1
    np.testing.assert_array_equal(s.betas[0], [0.0, 0.0])
    assert s.alphas[0] == pytest.approx(4.2, rel=1e-6)


def test_fit_zeroes_irrelevant_feature_exactly():
    rng = np.random.default_rng(9)
    X = rng.uniform(1, 5, size=(300, 2))
    y = 2.0 * X[:, 0] + 0.01 * rng.standard_normal(300)
    s, _ = fit_sr(X, y, SrConfig(num_terms=1), seed=3)
    assert s.betas[0, 1] == 0.0
    assert s.betas[0, 0] == pytest.approx(1.0, abs=0.01)


def test_fit_output_satisfies_sparsity_floor():
    # every reported exponent is either exactly zero or above the zero
    # threshold, and every coefficient is above the prune threshold
    rng = np.random.default_rng(2)
    X = rng.uniform(1, 5, size=(250, 3))
    y = 3.0 * X[:, 0] ** 2 + 5.0 / X[:, 1] + 0.01 * rng.standard_normal(250)
    for seed in (0, 1, 2):
        s, _ = fit_sr(X, y, SrConfig(num_terms=2), seed=seed)
        for t in s.terms:
            assert abs(t.alpha) >= 1e-4
            for b in t.beta:
                assert b == 0.0 or abs(b) >= 5e-3


def test_fit_multi_term_never_worse_than_stage_a():
    rng = np.random.default_rng(8)
    X = rng.uniform(1, 5, size=(200, 2))
    y = 3.0 * X[:, 0] ** 2 + 5.0 / X[:, 1] + 0.01 * rng.standard_normal(200)
    for seed in (0, 4, 7):
        _, stats = fit_sr(X, y, SrConfig(num_terms=2), seed=seed)
        assert stats.final_mse <= stats.stage_a_best_mse + 1e-12


def two_term_spec():
    return TargetSpec(
        name="two-term",
        truth=Signomial([Term(3.0, (2.0, 0.0)), Term(5.0, (0.0, -1.0))]),
        ranges=((1.0, 5.0), (1.0, 5.0)),
        samples=(200, 1000),
        num_terms=2,
    )


def test_fit_recovers_two_term_expression():
    res = evaluate_recovery(two_term_spec(), SrConfig(num_terms=2))
    assert res.recovery_rate == 1.0


@pytest.mark.parametrize("seed", range(10))
def test_two_term_recovery_at_seed(seed):
    res = evaluate_recovery(two_term_spec(), SrConfig(num_terms=2, seed_list=(seed,)))
    assert res.recovery_rate == 1.0


def diverge_in_the_stage(monkeypatch, rows):
    """Make the given rows of every _adam_stage call diverge; returns the
    number of restarts each call received."""
    sizes = []
    real = regressor._adam_stage

    def stage(betas, log_x, y, lam, epochs, lr):
        sizes.append(len(betas))
        losses, a, b = real(betas, log_x, y, lam, epochs, lr)
        losses[rows], a[rows], b[rows] = math.inf, math.nan, math.nan
        return losses, a, b

    monkeypatch.setattr(regressor, "_adam_stage", stage)
    return sizes


def test_a_restart_diverging_in_the_stage_leaves_the_ranking(monkeypatch):
    # three survivors: fewer than POLISHED, so only they are polished
    sizes = diverge_in_the_stage(monkeypatch, [0, 2, 3, 5, 6])
    polished = []
    real = regressor._prune_freeze_polish

    def recording(alphas, betas, *args, **kwargs):
        polished.append((alphas, betas))
        return real(alphas, betas, *args, **kwargs)

    monkeypatch.setattr(regressor, "_prune_freeze_polish", recording)
    data = generate_benchmark_data(two_term_spec(), 200, 0.01, 0)
    _, stats = fit_sr(data.X, data.y, SrConfig(num_terms=2), seed=0)
    assert sizes == [8]
    assert [math.isfinite(v) for v in stats.stage_a_losses] == [
        False, True, False, False, True, False, False, True]
    assert len(polished) == len(stats.candidate_mses) == 3
    assert all(np.isfinite(a).all() and np.isfinite(b).all() for a, b in polished)
    assert all(map(math.isfinite, stats.candidate_mses))


def assert_every_restart_fails_typed(data, tmp_path):
    """A K=2 fit of data raises AllRestartsFailedError, and `train --task
    regress` on it exits 4 and writes no model."""
    with pytest.raises(AllRestartsFailedError):
        fit_sr(data.X, data.y, SrConfig(num_terms=2), seed=0)
    rows = "".join(f"{a},{b},{t}\n" for (a, b), t in zip(data.X, data.y))
    (tmp_path / "d.csv").write_text("x1,x2,t\n" + rows)
    out = tmp_path / "m.json"
    assert cli.main(["train", "--data", str(tmp_path / "d.csv"), "--target", "t",
                     "--task", "regress", "--k", "2", "--out", str(out)]) == 4
    assert not out.exists()


def test_every_restart_diverging_in_the_stage_fails_typed(monkeypatch, tmp_path):
    diverge_in_the_stage(monkeypatch, slice(None))
    assert_every_restart_fails_typed(generate_benchmark_data(two_term_spec(), 200, 0.01, 0),
                                     tmp_path)


def fail_polishes(monkeypatch, count):
    """Make the first count _polish calls raise NonFiniteObjectiveError."""
    real, calls = regressor._polish, []

    def polish(*args):
        calls.append(1)
        if len(calls) <= count:
            raise NonFiniteObjectiveError("residuals are non-finite at the initial point")
        return real(*args)

    monkeypatch.setattr(regressor, "_polish", polish)


def test_a_multi_term_candidate_whose_polish_raises_drops_out(monkeypatch, tmp_path):
    # the first candidate's polish raises: it drops out with an MSE of inf,
    # and the others polish as before; at this seed all four reach the truth
    # and the third has the lowest MSE, so the fit is the same
    data = generate_benchmark_data(two_term_spec(), 200, 0.01, 0)
    want, want_stats = fit_sr(data.X, data.y, SrConfig(num_terms=2), seed=0)
    fail_polishes(monkeypatch, 1)
    s, stats = fit_sr(data.X, data.y, SrConfig(num_terms=2), seed=0)
    assert len(stats.candidate_mses) == regressor.POLISHED
    assert stats.candidate_mses[0] == math.inf == stats.stage_a_best_mse
    assert stats.candidate_mses[1:] == want_stats.candidate_mses[1:]
    assert stats.final_mse == stats.candidate_mses[2] == want_stats.final_mse
    assert s.to_dict() == want.to_dict()
    assert equivalent(canonicalize(s), canonicalize(two_term_spec().truth))
    # every polish raises: nothing is left
    fail_polishes(monkeypatch, math.inf)
    assert_every_restart_fails_typed(data, tmp_path)


@pytest.mark.parametrize("k", [1, 2])
def test_candidates_whose_mse_is_not_finite_leave_nothing(monkeypatch, k):
    # as y @ y past float range gives when every term is pruned: the fit
    # fails typed instead of returning a signomial with an MSE of inf
    real = regressor._prune_freeze_polish

    def overflowing(*args):
        a, b, _, *rest = real(*args)
        return (a, b, math.inf, *rest)

    monkeypatch.setattr(regressor, "_prune_freeze_polish", overflowing)
    data = generate_benchmark_data(two_term_spec(), 200, 0.01, 0)
    with pytest.raises(AllRestartsFailedError):
        fit_sr(data.X, data.y, SrConfig(num_terms=k), seed=0)


def test_fit_is_deterministic():
    rng = np.random.default_rng(1)
    X = rng.uniform(1, 5, size=(100, 2))
    y = X[:, 0] * X[:, 1] + 0.01 * rng.standard_normal(100)
    s1, st1 = fit_sr(X, y, SrConfig(num_terms=1), seed=11)
    s2, st2 = fit_sr(X, y, SrConfig(num_terms=1), seed=11)
    assert s1.to_dict() == s2.to_dict()
    assert st1.to_dict() == st2.to_dict()


def test_all_restarts_failed_k1(monkeypatch):
    # the log start and three random ones: every polish fails, so the fit does
    starts = []

    def failing(fun, x0, *args, **kwargs):
        starts.append(x0)
        raise NonFiniteObjectiveError("residuals are non-finite at the initial point")

    monkeypatch.setattr(regressor, "levenberg_marquardt", failing)
    X = np.random.default_rng(0).uniform(1.0, 2.0, size=(20, 2))
    with pytest.raises(AllRestartsFailedError):
        fit_sr(X, X[:, 0] * X[:, 1], SrConfig(num_terms=1, restarts=4), seed=0)
    assert len(starts) == 4


def test_all_restarts_failed_k3():
    # seed chosen so that every Adam run sees a non-finite loss immediately
    X = np.full((50, 3), 1e308)
    y = np.ones(50)
    with pytest.raises(AllRestartsFailedError):
        fit_sr(X, y, SrConfig(num_terms=3), seed=45)


def jin2_data():
    spec = next(s for s in json.loads(Path(SUITE).read_text())["specs"] if s["name"] == "Jin-2")
    return generate_benchmark_data(TargetSpec.from_dict(spec), 400, 0.01, 42)


def jin2_stage_inputs():
    """ln x, variance-scaled targets and 8 random exponent starts for a Jin-2 stage."""
    data = jin2_data()
    betas = np.random.default_rng(42).standard_normal((8, 3, 2))
    return log_inputs(data.X), data.y / np.std(data.y), betas


def run_stage(betas, log_x, y):
    # 50 epochs: the stacked and the one-row matrix products differ in the
    # last bits, and that difference grows with the epochs
    return regressor._adam_stage(betas, log_x, y, 1e-2, 50, 0.05)


def assert_rows_close(got, want, rel=1e-12):
    """Each row of got is within rel times that row's largest |value| in want.

    A bound per element cannot hold for a value near zero beside large ones:
    its last-bit differences are large relative to itself alone.
    """
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    err = np.abs(got - want).reshape(len(want), -1).max(axis=1)
    scale = np.abs(want).reshape(len(want), -1).max(axis=1)
    assert (err <= rel * scale).all(), (err, scale)


def assert_rows_match_alone(stacked, betas, rows, log_x, y):
    """The given rows of a stacked stage's results equal a stage run on them alone."""
    alone = run_stage(betas[rows], log_x, y)
    for got, want in zip(stacked, alone):
        assert_rows_close(got[rows], want)


def test_the_adam_stage_computes_only_the_gradients_it_uses(monkeypatch):
    # every epoch's step needs dL/dbeta alone, and the last pass, which
    # scores the final exponents, needs the loss alone
    real, returned = regressor.backward, []

    def recording(*args):
        returned.append(real(*args))
        return returned[-1]

    monkeypatch.setattr(regressor, "backward", recording)
    log_x, y, betas = jin2_stage_inputs()
    regressor._adam_stage(betas, log_x, y, 1e-2, 5, 0.05)
    assert len(returned) == 6
    assert all(d_alpha is None and d_beta is not None for d_alpha, d_beta in returned[:-1])
    assert returned[-1] == (None, None)


def test_stacked_adam_stage_equals_one_restart_at_a_time():
    log_x, y, betas = jin2_stage_inputs()
    stacked = run_stage(betas, log_x, y)
    assert all(np.isfinite(v).all() for v in stacked)
    for r in range(len(betas)):
        assert_rows_match_alone(stacked, betas, [r], log_x, y)


def test_a_diverged_restart_leaves_the_others_untouched():
    log_x, y, betas = jin2_stage_inputs()
    bad = betas.copy()
    bad[3] = -1e3  # small inputs push beta . ln x far past the overflow limit
    with pytest.raises(OverflowLimitError) as exc:
        signomial.monomials(bad, log_x)
    assert exc.value.stack_index == 3
    losses, a, b = run_stage(bad, log_x, y)
    assert losses[3] == math.inf and np.isnan(a[3]).all() and np.isnan(b[3]).all()
    assert_rows_match_alone((losses, a, b), betas, [0, 1, 2, 4, 5, 6, 7], log_x, y)


def test_overflowing_restarts_leave_the_stack_they_are_named_in():
    log_x, y, betas = jin2_stage_inputs()
    bad = betas.copy()
    bad[3] = -1e3
    bad[6] = 1e3
    losses, a, b = run_stage(bad, log_x, y)
    for r in (3, 6):
        assert losses[r] == math.inf
        assert np.isnan(a[r]).all() and np.isnan(b[r]).all()
    assert_rows_match_alone((losses, a, b), betas, [0, 1, 2, 4, 5, 7], log_x, y)


def test_a_restart_with_a_repeated_exponent_row_stays_finite_in_the_stack():
    # two terms of restart 5 share an exponent row, so its Phi is
    # rank-deficient; the minimum-norm coefficients split their share
    # evenly, and the other restarts do not notice it
    log_x, y, betas = jin2_stage_inputs()
    betas[5, 1] = betas[5, 0]
    losses, a, b = run_stage(betas, log_x, y)
    assert np.isfinite(losses).all() and np.isfinite(a).all() and np.isfinite(b).all()
    np.testing.assert_allclose(a[5, 0], a[5, 1], rtol=1e-6)
    np.testing.assert_allclose(b[5, 0], b[5, 1], rtol=1e-6)
    assert_rows_match_alone((losses, a, b), betas, [0, 1, 2, 3, 4, 6, 7], log_x, y)


def test_stage_coefficients_are_the_least_squares_ones_at_its_exponents():
    log_x, y, betas = jin2_stage_inputs()
    losses, a, b = run_stage(betas, log_x, y)
    for r in range(len(betas)):
        phi = monomials(b[r], log_x)
        assert_rows_close(a[r][None], np.linalg.lstsq(phi, y, rcond=None)[0][None])
        mse = float(np.mean((phi @ a[r] - y) ** 2))
        assert losses[r] == pytest.approx(mse + 1e-2 * np.abs(b[r]).sum(), rel=1e-12)


def forward_backward_mse_head(alphas, betas, log_x, y):
    """The MSE head written out on forward's per-term values: losses (C,),
    dL/dalpha (C, K) and dL/dbeta (C, K, m). With dz = dL/dz, dz/dalpha is
    the bare monomial, forward at unit coefficients, and dz/dbeta_j is the
    term's value times ln x_j."""
    per_term = forward(alphas, betas, log_x)
    phi = forward(np.ones_like(alphas), betas, log_x)
    n = len(y)
    resid = y - per_term.sum(axis=1)
    dz = (-2.0 / n) * resid  # (C, N)
    d_alpha = np.einsum("cn,ckn->ck", dz, phi)
    d_beta = np.einsum("cn,ckn,nj->ckj", dz, per_term, log_x)
    return (resid * resid).sum(axis=1) / n, d_alpha, d_beta


def head_inputs():
    """A Jin-2 stack of 8 signomials at random coefficients: signomial 2 has
    a zero coefficient, and two terms of signomial 5 share an exponent row."""
    log_x, y, betas = jin2_stage_inputs()
    alphas = np.random.default_rng(7).standard_normal((8, 3))
    alphas[2, 1] = 0.0
    betas[5, 1] = betas[5, 0]
    return alphas, betas, log_x, y


def test_linear_mse_head_matches_the_forward_backward_formula():
    alphas, betas, log_x, y = head_inputs()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = regressor._mse_head(signomial.monomials(betas, log_x), alphas, log_x, y)
    want = forward_backward_mse_head(alphas, betas, log_x, y)
    for g, w in zip(got, want):
        assert_rows_close(g, w)
    # the zero coefficient's term gets no exponent gradient, in either
    assert not got[2][2, 1].any() and not want[2][2, 1].any()


def test_linear_mse_head_names_the_restart_whose_loss_overflows():
    # signomial 4's monomials are in range, but its residual squares past
    # float range; the formula on forward and backward reaches inf there too
    alphas, betas, log_x, y = head_inputs()
    alphas[4] = 1e200
    with pytest.raises(NonFiniteLossError) as exc:
        regressor._mse_head(signomial.monomials(betas, log_x), alphas, log_x, y)
    assert exc.value.stack_index == 4
    with np.errstate(over="ignore", invalid="ignore"):
        losses = forward_backward_mse_head(alphas, betas, log_x, y)[0]
    assert np.isinf(losses[4]) and np.isfinite(np.delete(losses, 4)).all()


@st.composite
def coefficient_problems(draw, min_terms=1):
    """A stack phi (C, K, N) of bare-monomial matrices, K >= min_terms, and a
    shared 1-D or 2-D rhs. Each row is well conditioned (singular values in
    [1, 100] times a scale of its own, 1e-30 to 1e30) unless made
    rank-deficient: a repeated exponent row (two equal columns), a column
    that underflowed to 0, or an all-zero phi."""
    c = draw(st.integers(1, 8))
    k = draw(st.integers(min_terms, 4))
    n = draw(st.integers(k, k + 12))
    kinds = draw(st.lists(st.sampled_from(("full", "repeat", "zero column", "all zero")),
                          min_size=c, max_size=c))
    columns = draw(st.sampled_from((None, 1, 3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    phi = np.empty((c, k, n))
    for i, kind in enumerate(kinds):
        q = np.linalg.qr(rng.standard_normal((n, k)))[0]
        w = np.linalg.qr(rng.standard_normal((k, k)))[0]
        phi[i] = ((q * rng.uniform(1.0, 100.0, k)) @ w * 10.0 ** rng.integers(-30, 31)).T
        if kind == "repeat" and k > 1:
            phi[i, 1] = phi[i, 0]
        elif kind == "zero column":
            phi[i, k - 1] = 0.0
        elif kind == "all zero":
            phi[i] = 0.0
    return phi, rng.standard_normal(n if columns is None else (n, columns))


@settings(max_examples=100, deadline=None)
@given(coefficient_problems(min_terms=2))
def test_svd_solve_is_minimum_norm_lstsq(problem):
    # the K >= 2 polishes and the log start solve one (N, K) system each;
    # a rank-deficient phi gets lstsq's minimum-norm solution
    phi, rhs = problem
    for design in phi:  # (K, N): the system is its transpose
        solved = regressor._solve_coefficients(design.T, rhs)
        assert solved.shape == design.shape[:1] + rhs.shape[1:]
        want = np.linalg.lstsq(design.T, rhs, rcond=None)[0]
        assert_rows_close(solved[None], want[None])
        if not design.any():  # an all-zero phi gets coefficients of exactly 0
            assert not solved.any()


@settings(max_examples=100, deadline=None)
@given(coefficient_problems())
def test_stage_solve_is_lstsq_row_by_row(problem):
    # the normal equations are good to about kappa^2 * eps, 2e-12 for the
    # well-conditioned rows (kappa <= 100); a rank-deficient row gets the
    # minimum-norm solution over the rest, which is no worse conditioned
    phi, rhs = problem
    y = rhs if rhs.ndim == 1 else rhs[:, 0]
    solved = regressor._gram_coefficients(phi, y)
    assert solved.shape == phi.shape[:2]
    for c in range(len(phi)):
        want = np.linalg.lstsq(phi[c].T, y, rcond=None)[0]
        assert_rows_close(solved[c][None], want[None], rel=1e-9)
        if not phi[c, -1].any():  # a zero column, or an all-zero phi
            assert solved[c, -1] == 0.0
        if phi.shape[1] > 1 and (phi[c, 1] == phi[c, 0]).all():
            assert solved[c, 1] == pytest.approx(solved[c, 0], rel=1e-9)
        # each row is its own product and eigh, so alone it gets the same bits
        np.testing.assert_array_equal(regressor._gram_coefficients(phi[[c]], y)[0],
                                      solved[c])


def test_a_restart_whose_gram_passes_float_range_leaves_the_stack(monkeypatch):
    # restart 3's monomials reach e^400, under the overflow limit, but their
    # squares pass float range: its normal equations have no finite solution,
    # so it leaves the stack at once with a non-finite loss, and no warning
    log_x, y, betas = jin2_stage_inputs()
    bad = betas.copy()
    bad[3] = 0.0
    bad[3, 0, 0] = 400.0 / log_x[:, 0].min()
    phi = signomial.monomials(bad, log_x)
    assert np.isfinite(phi).all() and phi[3, 0].max() == pytest.approx(math.exp(400.0))
    stacks = []

    class Recording(optim.AdamStack):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            stacks.append(self)

    monkeypatch.setattr(regressor, "AdamStack", Recording)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        losses, a, b = run_stage(bad, log_x, y)
    (stack,) = stacks
    assert list(stack.errors) == [3]
    assert isinstance(stack.errors[3], NonFiniteLossError)
    assert stack.errors[3].stack_index == 3
    assert losses[3] == math.inf and np.isnan(a[3]).all() and np.isnan(b[3]).all()
    assert_rows_match_alone((losses, a, b), betas, [0, 1, 2, 4, 5, 6, 7], log_x, y)


def test_a_restart_whose_gram_makes_eigh_raise_leaves_the_stack(monkeypatch):
    # restart 3's middle monomial reaches e^480, so its Gram matrix holds an
    # inf beside finite entries: eigh raises LinAlgError on such a matrix
    # (where it gives NaN for restart 3 of the test above), and the restart
    # must still leave with a non-finite loss, not take the stage down
    log_x, y, betas = jin2_stage_inputs()
    bad = betas.copy()
    bad[3] = [[200.0, 0.0], [300.0, 0.0], [202.0, 0.0]]
    phi = signomial.monomials(bad, log_x)[3].T
    assert np.isfinite(phi).all()
    with np.errstate(over="ignore"):
        gram = phi.T @ phi
    assert np.isinf(gram).any() and np.isfinite(gram).any()
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.eigh(gram)
    stacks = []

    class Recording(optim.AdamStack):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            stacks.append(self)

    monkeypatch.setattr(regressor, "AdamStack", Recording)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        losses, a, b = run_stage(bad, log_x, y)
    (stack,) = stacks
    assert list(stack.errors) == [3]
    assert isinstance(stack.errors[3], NonFiniteLossError)
    assert losses[3] == math.inf and np.isnan(a[3]).all() and np.isnan(b[3]).all()
    assert_rows_match_alone((losses, a, b), betas, [0, 1, 2, 4, 5, 6, 7], log_x, y)


def test_a_fit_whose_restarts_pass_float_range_raises_only_typed_errors():
    # at a learning rate of 30 the restarts' exponents reach about 76, whose
    # Gram matrices made eigh raise LinAlgError out of fit_sr at seed 0
    spec = next(s for s in json.loads(Path(SUITE).read_text())["specs"] if s["name"] == "Jin-2")
    data = generate_benchmark_data(TargetSpec.from_dict(spec), 200, 0.01, 0)
    try:
        fit_sr(data.X, data.y, SrConfig(num_terms=3, learning_rate=30.0), seed=0)
    except SignolearnError:
        pass


def test_each_multi_term_stage_is_one_stacked_adam_loop(monkeypatch):
    # one Adam step per epoch over the 8 restarts' exponents (K=3, m=2) and
    # no coefficients
    shapes = []
    real = optim.adam_step

    def counting(state, params, *args):
        shapes.append(params.shape)
        return real(state, params, *args)

    monkeypatch.setattr(optim, "adam_step", counting)
    data = jin2_data()
    cfg = SrConfig(num_terms=3, adam_epochs_per_stage=60)
    _, stats = fit_sr(data.X, data.y, cfg, seed=42)
    assert all(map(math.isfinite, stats.stage_a_losses))
    epochs = cfg.adam_epochs_per_stage
    assert shapes == [(8, 6)] * epochs


def test_k1_restarts_let_programming_errors_through(monkeypatch):
    # only typed numerical failures count as a diverged restart
    def broken(*args, **kwargs):
        raise TypeError("bug in the optimizer")

    monkeypatch.setattr(regressor, "levenberg_marquardt", broken)
    X = np.random.default_rng(0).uniform(1.0, 2.0, size=(20, 1))
    with pytest.raises(TypeError):
        fit_sr(X, X[:, 0], SrConfig(num_terms=1), seed=0)


def test_k1_fits_targets_of_either_sign():
    # a one-term signomial has the sign of its alpha everywhere; the polish
    # projects alpha, so the log start and random starts of either sign fit
    # either target
    X = np.random.default_rng(0).uniform(1.0, 3.0, size=(40, 2))
    for sign in (1.0, -1.0):
        for seed in range(3):
            cfg = SrConfig(num_terms=1, restarts=3)
            s, _ = fit_sr(X, sign * 2.0 * X[:, 0] * X[:, 1], cfg, seed=seed)
            assert s.alphas[0] == pytest.approx(sign * 2.0, rel=1e-6)
            np.testing.assert_allclose(s.betas[0], [1.0, 1.0], atol=1e-6)


@pytest.mark.parametrize("exponents, zeroed", [((1.5, -0.5), 0), ((1.5, 0.002), 1)])
def test_a_k1_start_is_frozen_before_its_polish(monkeypatch, exponents, zeroed):
    # noiseless, the log start is the truth and its polish is the fit; an
    # exponent of 0.002 is frozen at 0 before that one polish
    calls = []
    real = regressor._polish

    def counting(betas, *args, **kwargs):
        calls.append(np.array(betas))
        return real(betas, *args, **kwargs)

    monkeypatch.setattr(regressor, "_polish", counting)
    data = generate_benchmark_data(monomial_spec(exponents=exponents), 200, 0.0, 3)
    s, stats = fit_sr(data.X, data.y, SrConfig(num_terms=1), seed=0)
    assert len(calls) == 1
    assert stats.zeroed_exponents == zeroed
    assert stats.final_mse == stats.stage_a_losses[0] == stats.candidate_mses[0]
    if not zeroed:
        np.testing.assert_allclose(s.betas[0], exponents, rtol=0, atol=1e-8)
    else:
        assert calls[0][0, 1] == 0.0
        assert s.betas[0, 1] == 0.0 and s.betas[0, 0] == pytest.approx(1.5, abs=1e-3)


@pytest.mark.parametrize("alpha", [0.01, -3.5])
def test_log_start_of_a_noiseless_monomial_is_the_truth(alpha):
    rng = np.random.default_rng(5)
    X = rng.uniform(0.1, 10.0, size=(60, 3))
    beta = np.array([2.5, -1.25, 0.5])
    log_x = log_inputs(X)
    start = regressor._log_start(log_x, alpha * np.exp(log_x @ beta))
    assert start.shape == (1, 3)
    np.testing.assert_allclose(start[0], beta, rtol=0, atol=1e-10)


def test_log_start_skips_zero_targets():
    rng = np.random.default_rng(6)
    X = rng.uniform(1.0, 5.0, size=(40, 2))
    y = 2.0 * X[:, 0] ** 1.5 / X[:, 1]
    y[::3] = 0.0  # no logarithm, so these rows are left out
    start = regressor._log_start(log_inputs(X), y)
    np.testing.assert_allclose(start[0], [1.5, -1.0], rtol=0, atol=1e-10)


def test_all_zero_targets_start_from_zero_exponents():
    X = np.random.default_rng(7).uniform(1.0, 2.0, size=(20, 2))
    y = np.zeros(20)
    start = regressor._log_start(log_inputs(X), y)
    assert start.shape == (1, 2) and not start.any()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s, stats = fit_sr(X, y, SrConfig(num_terms=1), seed=0)
    # the only term's coefficient solves to 0, so it is pruned
    assert s.num_terms == 0 and stats.final_mse == 0.0


def test_k1_start_0_is_the_log_start_and_the_rest_are_random(monkeypatch):
    data = generate_benchmark_data(monomial_spec(exponents=(1.5, -0.5)), 200, 0.01, 3)
    starts = []
    real = regressor._polish

    def recording(betas, log_x, y, ceiling):
        starts.append(np.array(betas))
        return real(betas, log_x, y, ceiling)

    monkeypatch.setattr(regressor, "_polish", recording)
    cfg = SrConfig(num_terms=1, restarts=3)
    s1, st1 = fit_sr(data.X, data.y, cfg, seed=9)
    # three starts, each polished once: none has anything to prune or freeze
    assert len(st1.stage_a_losses) == len(starts) == 3
    np.testing.assert_array_equal(starts[0], regressor._log_start(log_inputs(data.X), data.y))
    # starts 1 and 2 are the seed's random draws, as without the log start
    rng = np.random.Generator(np.random.Philox(key=9))
    draws = [(rng.standard_normal(1), rng.standard_normal((1, 2))) for _ in range(3)]
    for got, (_, want) in zip(starts[1:3], draws[1:]):
        np.testing.assert_array_equal(got, want)
    s2, st2 = fit_sr(data.X, data.y, cfg, seed=9)
    assert s1.to_dict() == s2.to_dict()
    assert st1.to_dict() == st2.to_dict()


def test_sr_loss_at_a_zero_coefficient_warns_about_nothing():
    # the zero term adds exactly 0 to the fit, so the loss is that of the
    # signomial without it, bit for bit, and its exponents get no gradient
    kept = [Term(1.5, (0.5, -1.0, 0.3)), Term(-0.7, (1.0, 1.0, -2.0))]
    rng = np.random.default_rng(9)
    X = rng.uniform(0.5, 4.0, size=(20, 3))
    y = rng.normal(size=20)
    with_zero = Signomial([kept[0], Term(0.0, (2.0, 0.0, 1.0)), kept[1]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loss, grad = sr_loss_and_grad(with_zero, X, y)
        assert loss == sr_loss_and_grad(Signomial(kept), X, y)[0]
    assert not grad[3:].reshape(3, 3)[1].any() and np.isfinite(grad).all()


def monomials(betas, log_x):
    """The bare monomials Phi (N, K) of one signomial's exponents (K, m)."""
    return signomial.monomials(betas[None], log_x)[0].T


@pytest.mark.parametrize("start, truth", [
    ([[2.0, 1.0], [2.0, 1.0]], [2.0, 1.0]),  # Phi's two columns are equal throughout
    ([[1.9, 0.1], [1.9, 0.1]], [2.0, 0.0]),
])
def test_polish_with_duplicate_exponent_rows_is_finite(start, truth):
    # two terms share an exponent vector, so Phi is rank-deficient; the
    # minimum-norm coefficients split the true one evenly where a triangular
    # solve would return a huge pair of opposite signs
    X = np.random.default_rng(3).uniform(1.0, 5.0, size=(60, 2))
    log_x = log_inputs(X)
    y = 3.0 * np.prod(X ** np.array(truth), axis=1)
    alphas, betas, mse, _ = regressor._polish(np.array(start), log_x, y)
    assert np.isfinite(alphas).all()
    np.testing.assert_allclose(betas, [truth, truth], atol=1e-6)
    expected = np.linalg.lstsq(monomials(betas, log_x), y, rcond=None)[0]
    assert_rows_close(alphas[None], expected[None])
    np.testing.assert_allclose(alphas, [1.5, 1.5], rtol=1e-6)
    assert mse < 1e-12


@pytest.mark.parametrize("low, beta, alpha", [(1e3, 75.0, 3e-300), (1e-10, 40.0, 0.0)],
                         ids=["column near 1e300", "all-zero column"])
def test_one_term_projection_in_closed_form(monkeypatch, low, beta, alpha):
    # x^75 reaches 1e300 on [1e3, 1e4], where phi^T phi passes float range,
    # so the closed form divides phi by its largest entry; x^40 underflows
    # to 0 on [1e-10, 1e-9], and an all-zero column gets exactly 0
    captured = []

    def capture(fun, x0, *args, **kwargs):
        captured.append((fun, x0))
        return LmResult(x0, math.nan, 0, converged=False)

    monkeypatch.setattr(regressor, "levenberg_marquardt", capture)
    X = np.random.default_rng(6).uniform(low, 10.0 * low, size=(40, 1))
    y = alpha * X[:, 0] ** beta + 1e-3 * np.cos(X[:, 0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        alphas, _, mse, _ = regressor._polish(np.array([[beta]]), log_inputs(X), y)
        (fun, theta), = captured
        r, jac = fun(theta)
    if alpha:
        want = np.linalg.lstsq(X ** beta, y, rcond=None)[0]
        assert alphas[0] == pytest.approx(want[0], rel=1e-12)
        assert np.isfinite(jac).all() and jac.any()
    else:
        assert alphas[0] == 0.0 and not jac.any()
        np.testing.assert_array_equal(r, -y)
    assert mse == pytest.approx(r @ r / len(y), rel=1e-12)


def test_one_term_polish_past_the_gram_range():
    # x^44 reaches 1e176 on [1e3, 1e4], so an unscaled phi^T phi passes float
    # range at the start; the closed form divides phi by its largest entry
    X = np.random.default_rng(5).uniform(1e3, 1e4, size=(40, 1))
    y = 1e-170 * X[:, 0] ** 45
    alphas, betas, mse, _ = regressor._polish(np.array([[44.0]]), log_inputs(X), y)
    assert alphas[0] == pytest.approx(1e-170, rel=1e-9)
    assert betas[0, 0] == pytest.approx(45.0, abs=1e-9)
    assert mse <= 1e-20 * np.mean(y * y)


def test_polish_with_every_exponent_frozen_is_one_solve(monkeypatch):
    def unexpected(*args, **kwargs):
        raise AssertionError("levenberg_marquardt called with nothing to search")

    monkeypatch.setattr(regressor, "levenberg_marquardt", unexpected)
    rng = np.random.default_rng(4)
    log_x = log_inputs(rng.uniform(1.0, 5.0, size=(30, 2)))
    y = 4.2 + rng.standard_normal(30)
    alphas, betas, mse, run = regressor._polish(np.zeros((1, 2)), log_x, y)
    assert run is None
    np.testing.assert_array_equal(betas, np.zeros((1, 2)))
    assert alphas[0] == pytest.approx(y.mean(), rel=1e-12)
    assert mse == pytest.approx(y.var(), rel=1e-12)


@st.composite
def generating_signomials(draw):
    """Terms with distinct exponent rows on a half-integer grid, |alpha| in [0.5, 3]."""
    m = draw(st.integers(1, 3))
    k = draw(st.integers(1, 3))
    row = st.tuples(*[st.integers(-4, 4) for _ in range(m)])
    rows = draw(st.lists(row, min_size=k, max_size=k, unique=True))
    magnitudes = draw(st.lists(st.floats(0.5, 3.0), min_size=k, max_size=k))
    signs = draw(st.lists(st.sampled_from((-1.0, 1.0)), min_size=k, max_size=k))
    return np.multiply(signs, magnitudes), np.array(rows, dtype=float) / 2


@settings(max_examples=60, deadline=None)
@given(generating_signomials(), st.integers(0, 2**32 - 1))
def test_projected_jacobian_matches_finite_differences(generator, seed):
    # on noiseless data at the generating exponents the residual vanishes,
    # where Kaufman's Jacobian is the projected residual's exact derivative
    alphas, betas = generator
    X = np.random.default_rng(seed).uniform(1.0, 3.0, size=(30, betas.shape[1]))
    log_x = log_inputs(X)
    y = monomials(betas, log_x) @ alphas
    captured = []

    def capture(fun, x0, *args, **kwargs):
        captured.append((fun, x0))
        return LmResult(x0, math.nan, 0, converged=False)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(regressor, "levenberg_marquardt", capture)
        regressor._polish(betas, log_x, y)
    if not captured:  # every exponent is zero: nothing to search
        assert not betas.any()
        return
    (fun, theta), = captured
    r, jac = fun(theta)
    size = np.abs(y).max()
    assert np.abs(r).max() <= 1e-9 * size
    h = 1e-6
    for i in range(len(theta)):
        step = np.zeros_like(theta)
        step[i] = h
        fd = (fun(theta + step)[0] - fun(theta - step)[0]) / (2 * h)
        np.testing.assert_allclose(jac[:, i], fd, rtol=0, atol=1e-6 * size)


def recorded_polish(betas, log_x, y):
    """_polish's result, its LmResult, and the number of `monomials` calls it made."""
    results, calls = [], []
    real_lm, real_monomials = regressor.levenberg_marquardt, regressor.monomials

    def lm(fun, x0, *args, **kwargs):
        results.append(real_lm(fun, x0, *args, **kwargs))
        return results[-1]

    def counting(b, lx):
        calls.append(1)
        return real_monomials(b, lx)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(regressor, "levenberg_marquardt", lm)
        patch.setattr(regressor, "monomials", counting)
        *out, run = regressor._polish(betas, log_x, y)
    (res,) = results
    assert run is res
    return out, res, len(calls)


def k1_specs():
    return [TargetSpec.from_dict(e) for e in json.loads(Path(SUITE).read_text())["specs"]
            if e["K"] == 1]


def seeded_data(spec, seed):
    """The data evaluate_recovery fits for spec at seed."""
    n = int(np.random.default_rng([seed, 7]).integers(spec.samples[0], spec.samples[1] + 1))
    return generate_benchmark_data(spec, n, 0.01, seed)


def test_polish_stops_at_the_noise_floor_and_returns_its_last_projection(monkeypatch):
    # from I.12.1's log start at seed 50, LM reaches the noise floor after
    # two accepted steps; without the model test it made six more trials
    spec = next(s for s in k1_specs() if s.name == "I.12.1")
    data = seeded_data(spec, 50)
    log_x = log_inputs(data.X)
    start = regressor._log_start(log_x, data.y)
    (a, b, mse), res, calls = recorded_polish(start, log_x, data.y)
    assert (res.converged, res.stop) == (True, "model") and res.evaluations <= 4
    # one projection per LM evaluation, and none after it
    assert calls == res.evaluations
    np.testing.assert_array_equal(b.ravel()[b.ravel() != 0], res.x)
    assert mse == res.sse / len(data.y)
    # a fresh projection at the returned exponents gives the same bits
    monkeypatch.setattr(regressor, "levenberg_marquardt",
                        lambda fun, x0, *args, **kwargs: LmResult(res.x.copy(), math.nan, 0,
                                                                  converged=False))
    a2, b2, mse2, _ = regressor._polish(start, log_x, data.y)
    assert a.tobytes() == a2.tobytes() and b.tobytes() == b2.tobytes() and mse == mse2


@pytest.mark.parametrize("spec", k1_specs(), ids=lambda s: s.name)
def test_k1_specs_recover_within_four_lm_evaluations_per_polish(monkeypatch, spec):
    # the noise-floor stop ends every polish of these fits within four
    # residual evaluations (three to eleven without it)
    evaluations = []
    real = regressor.levenberg_marquardt

    def counting(fun, x0, *args, **kwargs):
        res = real(fun, x0, *args, **kwargs)
        evaluations.append(res.evaluations)
        return res

    monkeypatch.setattr(regressor, "levenberg_marquardt", counting)
    res = evaluate_recovery(spec, SrConfig(num_terms=1, seed_list=(42, 43, 44, 45, 46)))
    assert res.recovery_rate == 1.0
    assert len(evaluations) >= 5 and max(evaluations) <= 4


@pytest.mark.parametrize("name, seed", [("I.14.3", 179), ("I.14.4", 90)])
def test_recovery_from_wrong_sign_random_starts(name, seed):
    # every random start at these seeds has alpha of the wrong sign; beside
    # the log start, restarts=4 polishes three of them
    entry = next(e for e in json.loads(Path(SUITE).read_text())["specs"] if e["name"] == name)
    cfg = SrConfig(num_terms=1, restarts=4, seed_list=(seed,))
    res = evaluate_recovery(TargetSpec.from_dict(entry), cfg)
    assert res.seeds[0].recovered
    assert res.seeds[0].r2 > 0.9999


def fit_with_and_without_the_race(monkeypatch, data, cfg, seed):
    """fit_sr's (signomial, stats) as it ships, then with RACE_MARGIN = inf."""
    raced = fit_sr(data.X, data.y, cfg, seed)
    with monkeypatch.context() as patch:
        patch.setattr(regressor, "RACE_MARGIN", math.inf)
        unraced = fit_sr(data.X, data.y, cfg, seed)
    return raced, unraced


def assert_same_bits(s1, s2):
    assert s1.alphas.tobytes() == s2.alphas.tobytes()
    assert s1.betas.tobytes() == s2.betas.tobytes()


def test_an_abandoned_polish_ends_the_prune_and_freeze_loop():
    # y = 3 x1^2 + 1e-6 x2: unraced, the polish leaves a coefficient to prune
    # and exponents to freeze, so it polishes again; under a ceiling of 0 the
    # first polish is abandoned and comes back as LM stopped it
    X = np.random.default_rng(3).uniform(1.0, 5.0, size=(60, 2))
    log_x = log_inputs(X)
    y = 3.0 * X[:, 0] ** 2 + 1e-6 * X[:, 1]
    start = np.array([[1.0, 0.3], [0.5, 1.2]])
    full = regressor._prune_freeze_polish(np.ones(2), start, log_x, y)
    assert [run.stop for run in full[5]] == ["step", "step"] and full[3:5] == (1, 2)
    a, b, mse, pruned, zeroed, runs = regressor._prune_freeze_polish(
        np.ones(2), start, log_x, y, 0.0)
    (run,) = runs
    assert run.stop == "abandoned" and run.evaluations >= optim.LM_RACE_EVALS
    assert (pruned, zeroed) == (0, 0) and a.shape == (2,) and b.shape == (2, 2)
    assert mse == run.sse / len(y)


def test_racing_jin2_polishes_keeps_every_fit_at_fewer_lm_evaluations(monkeypatch):
    # perfbench's sr-multi-term fits: the race abandons only losing candidates
    spec = TargetSpec.from_dict(
        next(e for e in json.loads(Path(SUITE).read_text())["specs"] if e["name"] == "Jin-2"))
    totals = np.zeros(2, dtype=int)
    abandoned = 0
    for seed in range(42, 57):
        (s1, st1), (s2, st2) = fit_with_and_without_the_race(
            monkeypatch, seeded_data(spec, seed), SrConfig(num_terms=3), seed)
        assert_same_bits(s1, s2)
        assert st2.abandoned_candidates == 0
        assert st1.lm_evaluations <= st2.lm_evaluations
        assert all(map(math.isfinite, st1.candidate_mses))
        totals += st1.lm_evaluations, st2.lm_evaluations
        abandoned += st1.abandoned_candidates
    assert totals[0] < totals[1] and abandoned > 0


def test_a_noiseless_k3_fit_races_against_a_near_zero_ceiling(monkeypatch):
    # noiseless Jin-2 at seed 55: the leader ends at an MSE of about 3e-25,
    # and a later true copy still above ten times that after 20 evaluations
    # is abandoned; the winner is the same
    spec = TargetSpec.from_dict(
        next(e for e in json.loads(Path(SUITE).read_text())["specs"] if e["name"] == "Jin-2"))
    n = int(np.random.default_rng([55, 7]).integers(spec.samples[0], spec.samples[1] + 1))
    data = generate_benchmark_data(spec, n, 0.0, 55)
    (s1, st1), (s2, _) = fit_with_and_without_the_race(
        monkeypatch, data, SrConfig(num_terms=3, noise_sigma=0.0), 55)
    assert equivalent(canonicalize(s1), canonicalize(spec.truth))
    assert_same_bits(s1, s2)
    assert st1.abandoned_candidates == 1 and min(st1.candidate_mses) < 1e-20
    assert all(map(math.isfinite, st1.candidate_mses))


@pytest.mark.parametrize("seed", [24, 28, 96, 129, 189, 270])
def test_jin2_recovery_at_seed(seed):
    entry = next(e for e in json.loads(Path(SUITE).read_text())["specs"] if e["name"] == "Jin-2")
    res = evaluate_recovery(TargetSpec.from_dict(entry), SrConfig(num_terms=3, seed_list=(seed,)))
    assert res.seeds[0].recovered


@pytest.mark.parametrize("seed", [44, 46])
def test_i_24_6_recovery_at_seed(seed):
    # seeds that two Adam stages over coefficients and exponents missed: they
    # ended on a wrong structure, which exponent-only projected Adam avoids
    entry = next(e for e in json.loads(Path(HARD_SUITE).read_text())["specs"]
                 if e["name"] == "I.24.6")
    res = evaluate_recovery(TargetSpec.from_dict(entry), SrConfig(num_terms=2, seed_list=(seed,)))
    assert res.seeds[0].recovered


@pytest.mark.parametrize("entry", json.loads(Path(HARD_SUITE).read_text())["specs"],
                         ids=lambda entry: entry["name"])
def test_hard_suite_at_ci_size(entry, monkeypatch, record_property):
    # the recovery rates are data, not a bound: a fit only has to end in
    # finite coefficients or in a typed error (`--junitxml out.xml
    # -o junit_family=xunit1` writes the recorded rates)
    real_fit = regressor.fit_sr

    fits = []

    def checked_fit(*args, **kwargs):
        s, stats = real_fit(*args, **kwargs)
        assert np.isfinite(s.alphas).all() and np.isfinite(s.betas).all()
        fits.append(stats)
        return s, stats

    monkeypatch.setattr(regressor, "fit_sr", checked_fit)
    spec = TargetSpec.from_dict(entry)
    seeds = (42, 43, 44)
    recovered = failed = 0
    for seed in seeds:
        try:
            res = evaluate_recovery(spec, SrConfig(num_terms=spec.num_terms, seed_list=(seed,)))
        except SignolearnError:
            failed += 1
            continue
        recovered += res.seeds[0].recovered
    record_property("recovery_rate", recovered / len(seeds))
    record_property("failed_fits", failed)
    # the cost beside the rate: LM residual evaluations over the finished
    # fits, and the candidates whose polish the race abandoned
    record_property("lm_evaluations", sum(stats.lm_evaluations for stats in fits))
    record_property("abandoned_candidates", sum(stats.abandoned_candidates for stats in fits))


def test_monomial_recovery_across_random_seeds():
    # single random monomial, noiseless: at least 4 of the 5 standard seeds
    # must recover it after canonicalization
    rng = np.random.default_rng(123)
    m = 3
    exponents = tuple(rng.uniform(-3, 3, size=m))
    spec = TargetSpec(
        name="random-monomial",
        truth=Signomial([Term(float(rng.uniform(0.5, 3)), exponents)]),
        ranges=tuple((1.0, 5.0) for _ in range(m)),
        samples=(200, 200),
        num_terms=1,
    )
    cfg = SrConfig(num_terms=1, noise_sigma=0.0)
    res = evaluate_recovery(spec, cfg)
    assert sum(s.recovered for s in res.seeds) >= 4


# --- benchmark data ---------------------------------------------------------------


def test_generated_data_matches_truth_when_noiseless():
    spec = monomial_spec(exponents=(1.0, 2.0), alpha=1.5)
    ds = generate_benchmark_data(spec, 300, 0.0, seed=4)
    truth = 1.5 * ds.X[:, 0] * ds.X[:, 1] ** 2
    np.testing.assert_allclose(ds.y, truth, rtol=1e-12)


def test_generated_noise_has_requested_scale():
    spec = monomial_spec(samples=(20, 1000))
    ds = generate_benchmark_data(spec, 1000, 0.01, seed=8)
    truth = ds.X[:, 0] * ds.X[:, 1]
    resid_std = np.std(ds.y - truth)
    # chi-square concentration: with n=1000 the sample std of N(0, 0.01)
    # stays within about 5% of 0.01
    assert 0.008 <= resid_std <= 0.012


def test_generation_is_deterministic():
    spec = monomial_spec()
    a = generate_benchmark_data(spec, 250, 0.01, seed=3)
    b = generate_benchmark_data(spec, 250, 0.01, seed=3)
    np.testing.assert_array_equal(a.X, b.X)
    np.testing.assert_array_equal(a.y, b.y)
    c = generate_benchmark_data(spec, 250, 0.01, seed=4)
    assert not np.array_equal(a.X, c.X)


def test_positive_domain_restriction():
    spec = TargetSpec(
        name="crossing",
        truth=Signomial([Term(1.0, (2.0,))]),
        ranges=((-5.0, 5.0),),
        samples=(20, 1000),
        num_terms=1,
        positive_domain_only=True,
    )
    ds = generate_benchmark_data(spec, 500, 0.0, seed=0)
    assert ds.X.min() >= 5e-3
    assert ds.X.max() <= 5.0


def test_sample_count_must_stay_in_spec_range():
    spec = monomial_spec(samples=(100, 200))
    with pytest.raises(BadConfigError):
        generate_benchmark_data(spec, 99, 0.0, seed=0)
    with pytest.raises(BadConfigError):
        generate_benchmark_data(spec, 201, 0.0, seed=0)
    with pytest.raises(BadConfigError):
        generate_benchmark_data(spec, 150, -0.5, seed=0)


def test_spec_rejects_bad_ranges():
    with pytest.raises(DataFormatError):
        TargetSpec("bad", Signomial([Term(1.0, (1.0,))]), ((5.0, 1.0),), (20, 100), 1)
    with pytest.raises(DataFormatError):
        # crosses zero without the positive-domain flag
        TargetSpec("bad", Signomial([Term(1.0, (1.0,))]), ((-1.0, 1.0),), (20, 100), 1)
    with pytest.raises(DataFormatError):
        # entirely non-positive, flag cannot help
        TargetSpec(
            "bad", Signomial([Term(1.0, (1.0,))]), ((-5.0, -1.0),), (20, 100), 1,
            positive_domain_only=True,
        )
    with pytest.raises(DimensionMismatchError):
        TargetSpec("bad", Signomial([Term(1.0, (1.0,))]), ((1.0, 2.0),) * 2, (20, 100), 1)


def test_spec_json_round_trip():
    spec = TargetSpec(
        name="jin-like",
        truth=Signomial(
            [Term(8.0, (2.0, 0.0)), Term(8.0, (0.0, 3.0)), Term(-15.0, (0.0, 0.0))]
        ),
        ranges=((-5.0, 5.0), (-5.0, 5.0)),
        samples=(20, 1000),
        num_terms=3,
        positive_domain_only=True,
    )
    back = TargetSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
    assert back == spec
    with pytest.raises(DataFormatError):
        TargetSpec.from_dict({"name": "x"})


# --- scoring ----------------------------------------------------------------------


def test_score_perfect_fit():
    s = Signomial([Term(2.0, (1.0,))])
    X = np.array([[1.0], [2.0], [3.0]])
    y = 2.0 * X[:, 0]
    score = score_fit(s, X, y)
    # the log-domain evaluation round-trips through exp, so "exact" means
    # a residual at the bottom of double precision
    assert score.mse == pytest.approx(0.0, abs=1e-28)
    assert score.nmse == pytest.approx(0.0, abs=1e-28)
    assert score.r2 == pytest.approx(1.0, abs=1e-15)


def test_score_mean_predictor_has_zero_r2():
    X = np.array([[1.0], [2.0], [3.0]])
    y = np.array([1.0, 2.0, 6.0])
    s = Signomial([Term(float(y.mean()), (0.0,))])
    score = score_fit(s, X, y)
    assert score.r2 == pytest.approx(0.0, abs=1e-12)
    assert score.nmse == pytest.approx(1.0, rel=1e-12)


def test_score_hand_worked_example():
    # identity fit on x=(1,2,4) against y=(1,2,3): SSres=1, SStot=2,
    # mse=1/3, nmse=0.5, r2=0.5 by direct formula
    s = Signomial([Term(1.0, (1.0,))])
    X = np.array([[1.0], [2.0], [4.0]])
    y = np.array([1.0, 2.0, 3.0])
    score = score_fit(s, X, y)
    assert score.mse == pytest.approx(1 / 3, rel=1e-12)
    assert score.nmse == pytest.approx(0.5, rel=1e-12)
    assert score.r2 == pytest.approx(0.5, rel=1e-12)


def test_score_zero_variance_still_carries_mse():
    s = Signomial([Term(1.0, (0.0,))])
    X = np.array([[1.0], [2.0]])
    y = np.array([3.0, 3.0])
    score = score_fit(s, X, y)
    assert score.mse == pytest.approx(4.0)
    assert score.nmse is None and score.r2 is None
    assert score.to_dict() == {"mse": score.mse, "nmse": None, "r2": None}


def test_score_overflow_raises_like_evaluate():
    # 10^400 overflows float64: the held-out score must fail as loudly as
    # evaluating the same signomial at that row
    s = Signomial([Term(1.0, (400.0,)), Term(1.0, (1.0,))])
    with pytest.raises(OverflowLimitError):
        evaluate(s, [10.0])
    with pytest.raises(OverflowLimitError):
        score_fit(s, [[10.0], [2.0]], [1.0, 2.0])


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_score_r2_is_permutation_invariant(seed):
    rng = np.random.default_rng(seed)
    s = Signomial([Term(1.0, (1.0,)), Term(-0.5, (2.0,))])
    X = rng.uniform(0.5, 3.0, size=(20, 1))
    y = rng.normal(2, 1, size=20)
    perm = rng.permutation(20)
    a = score_fit(s, X, y)
    b = score_fit(s, X[perm], y[perm])
    assert a.r2 == pytest.approx(b.r2, rel=1e-12)


# --- recovery protocol ------------------------------------------------------------


def test_recovery_of_simple_product():
    res = evaluate_recovery(monomial_spec(), SrConfig(num_terms=1))
    assert res.recovery_rate == 1.0
    assert [s.seed for s in res.seeds] == [42, 43, 44, 45, 46]
    for s in res.seeds:
        assert s.recovered
        assert s.r2 > 0.999
        assert s.wall_time_seconds > 0
        assert 200 <= s.n_samples <= 1000


def test_recovery_fails_structurally_when_k_too_small():
    spec = TargetSpec(
        name="needs-two",
        truth=Signomial([Term(3.0, (2.0, 0.0)), Term(5.0, (0.0, -1.0))]),
        ranges=((1.0, 5.0), (1.0, 5.0)),
        samples=(200, 400),
        num_terms=2,
    )
    res = evaluate_recovery(spec, SrConfig(num_terms=1))
    assert res.recovery_rate == 0.0
    for s in res.seeds:
        assert s.r2 is not None  # accuracy still reported


def test_recovery_result_serialization_is_stable():
    spec = monomial_spec(samples=(200, 300))
    r1 = evaluate_recovery(spec, SrConfig(num_terms=1))
    r2 = evaluate_recovery(spec, SrConfig(num_terms=1))
    assert json.dumps(r1.to_dict(), sort_keys=True) == json.dumps(
        r2.to_dict(), sort_keys=True
    )


def test_recovery_equivalence_judged_in_canonical_form():
    # a fit returning a permuted, unsnapped version of the truth still counts
    truth = Signomial([Term(2.0, (1.0, 0.0)), Term(3.0, (0.0, 1.0))])
    fitted = Signomial([Term(3.001, (0.0, 0.9995)), Term(1.999, (1.0001, 0.0))])
    assert equivalent(canonicalize(fitted), canonicalize(truth))


# --- model file ---------------------------------------------------------------------

_FLOATS = st.floats(min_value=-50, max_value=50, allow_nan=False, allow_subnormal=False)


@st.composite
def _regressor_models(draw):
    m = draw(st.integers(1, 3))
    term = st.tuples(_FLOATS, st.lists(_FLOATS, min_size=m, max_size=m))
    s = Signomial(draw(st.lists(term, min_size=1, max_size=3)), m=m)
    if draw(st.booleans()):
        return RegressorModel(s, [f"f{j}" for j in range(m)])
    # a payload without names decodes with x1..xm
    return RegressorModel.from_dict({"kind": "regressor", "signomial": s.to_dict()})


def test_an_empty_feature_name_list_is_corrupt_and_only_an_absent_one_defaults():
    payload = RegressorModel(Signomial([(2.0, (1.0, -1.0))]), ["a", "b"]).to_dict()
    payload["featureNames"] = []
    with pytest.raises(CorruptModelError):
        RegressorModel.from_dict(payload)
    del payload["featureNames"]
    assert RegressorModel.from_dict(payload).feature_names == ["x1", "x2"]


@settings(max_examples=60, deadline=None)
@given(model=_regressor_models())
def test_regressor_save_load_save_is_byte_identical(tmp_path_factory, model):
    directory = tmp_path_factory.mktemp("model")
    first, second = str(directory / "a.json"), str(directory / "b.json")
    model.save(first)
    RegressorModel.from_dict(data_io.load_model(first)).save(second)
    assert Path(first).read_bytes() == Path(second).read_bytes()
