import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signolearn import classifier, explain, regressor
from signolearn.classifier import EcselModel, predict_proba, predict_proba_batch
from signolearn.data_io import Dataset, Scaler
from signolearn.errors import (
    DataFormatError,
    DimensionMismatchError,
    NameCountMismatchError,
    NonPositiveInputError,
    OverflowLimitError,
    SignolearnError,
)
from signolearn.signomial import (
    CanonicalForm,
    ScoreBreakdown,
    Signomial,
    Term,
    backward,
    canonicalize,
    equivalent,
    evaluate,
    evaluate_batch,
    forward,
    log_inputs,
    monomials,
    render,
    snap_exponent,
)


def direct_eval(s, x):
    # independent oracle: plain power evaluation, no log domain
    return sum(t.alpha * np.prod([xi**b for xi, b in zip(x, t.beta)]) for t in s.terms)


@st.composite
def signomials(draw, max_features=4, max_terms=4, exp_range=3.0):
    m = draw(st.integers(1, max_features))
    k = draw(st.integers(1, max_terms))
    finite = dict(allow_nan=False, allow_infinity=False)
    terms = [
        Term(
            draw(st.floats(-3, 3, **finite)),
            tuple(draw(st.floats(-exp_range, exp_range, **finite)) for _ in range(m)),
        )
        for _ in range(k)
    ]
    return Signomial(terms, m=m)


@st.composite
def signomial_and_input(draw, exp_range=3.0):
    s = draw(signomials(exp_range=exp_range))
    x = tuple(draw(st.floats(1.0, 10.0, allow_nan=False)) for _ in range(s.m))
    return s, x


def kernel_args(signomials, X):
    """Stacked kernel arguments for equal-length signomials at inputs X."""
    alphas = np.array([s.alphas for s in signomials])
    betas = np.array([s.betas for s in signomials])
    return alphas, betas, log_inputs(X)


def gradient(s, x):
    """dz/dalpha (K,) and dz/dbeta (K, m) at one input, through the kernel."""
    alphas, betas, log_x = kernel_args([s], [x])
    d_alpha, d_beta = backward(np.ones((1, 1)), monomials(betas, log_x), alphas, log_x)
    return d_alpha[0], d_beta[0]


# --- construction ------------------------------------------------------------


def test_term_width_mismatch_rejected():
    with pytest.raises(DimensionMismatchError):
        Signomial([(1.0, (1.0, 2.0)), (2.0, (1.0,))])


def test_empty_signomial_needs_m():
    with pytest.raises(DimensionMismatchError):
        Signomial([])
    s = Signomial([], m=2)
    assert s.num_terms == 0
    assert evaluate(s, (1.0, 1.0)).total == 0.0


def test_dict_round_trip():
    s = Signomial([(0.5, (1.0, -2.0)), (-1.5, (0.0, 3.0))])
    assert Signomial.from_dict(s.to_dict()) == s


@pytest.mark.parametrize("alpha,beta", [
    (math.nan, [1.0, -2.0]), (0.5, [1.0, math.inf]), (-math.inf, [1.0, -2.0]),
], ids=["nan-alpha", "infinite-beta", "infinite-alpha"])
def test_from_dict_rejects_non_finite_parameters(alpha, beta):
    payload = {"m": 2, "terms": [{"alpha": alpha, "beta": beta}]}
    with pytest.raises(DimensionMismatchError, match="finite"):
        Signomial.from_dict(payload)


@pytest.mark.parametrize("m", [2.5, "2", 2.0, True, None])
def test_from_dict_needs_an_integer_feature_count(m):
    payload = {"m": m, "terms": [{"alpha": 1.0, "beta": [1.0, -2.0]}]}
    with pytest.raises(DimensionMismatchError, match="m must be an integer"):
        Signomial.from_dict(payload)


# --- evaluation --------------------------------------------------------------


def test_evaluate_two_term_example():
    s = Signomial([(0.8, (-1.8,)), (0.6, (-1.9,))])
    out = evaluate(s, (2.0,))
    # oracle: direct powers, 0.8*2**-1.8 = 0.22973967099940698, 0.6*2**-1.9 = 0.16076601938044396
    assert out.per_term == pytest.approx((0.22973967099940698, 0.16076601938044396), rel=1e-12)
    assert out.total == pytest.approx(0.39050569037985094, rel=1e-12)


def test_evaluate_rejects_nonpositive_input():
    s = Signomial([(1.0, (1.0, 1.0))])
    with pytest.raises(NonPositiveInputError, match="coordinate 1"):
        evaluate(s, (2.0, 0.0))
    with pytest.raises(NonPositiveInputError):
        evaluate(s, (2.0, -3.0))
    with pytest.raises(NonPositiveInputError):
        evaluate(s, (2.0, float("nan")))


def test_evaluate_rejects_wrong_length():
    s = Signomial([(1.0, (1.0, 1.0))])
    with pytest.raises(DimensionMismatchError):
        evaluate(s, (2.0,))


def test_overflow_guard_reports_term_index():
    s = Signomial([(1.0, (1.0,)), (1.0, (400.0,))])
    with pytest.raises(OverflowLimitError) as exc:
        evaluate(s, (10.0,))  # 400 * ln 10 = 921 > 700
    assert exc.value.term_index == 1


def test_negative_coefficient_sign_carried():
    s = Signomial([(-2.0, (2.0,))])
    out = evaluate(s, (3.0,))
    assert out.total == pytest.approx(-18.0, rel=1e-14)


@settings(max_examples=200, deadline=None)
@given(signomial_and_input())
def test_log_domain_matches_direct_powers(case):
    s, x = case
    out = evaluate(s, x)
    expected = direct_eval(s, x)
    scale = max(abs(expected), sum(abs(v) for v in out.per_term), 1e-300)
    assert abs(out.total - expected) <= 1e-10 * scale


@settings(max_examples=100, deadline=None)
@given(signomial_and_input())
def test_total_is_sum_of_terms(case):
    s, x = case
    out = evaluate(s, x)
    assert out.total == pytest.approx(math.fsum(out.per_term), rel=1e-12, abs=1e-300)


def outcome(fn, *args):
    """fn's result, or the type of the SignolearnError it raised."""
    try:
        return fn(*args)
    except SignolearnError as exc:
        return type(exc)


@settings(max_examples=200, deadline=None)
@given(signomial_and_input(exp_range=400.0))
def test_scalar_and_batch_agree_or_raise_alike(case):
    # exponents up to 400 at x in [1, 10] overflow on some draws
    s, x = case
    scalar = outcome(evaluate, s, x)
    batch = outcome(evaluate_batch, s, np.array([x]))
    if isinstance(scalar, type) or isinstance(batch, type):
        assert scalar == batch
    else:
        totals, per_term = batch
        assert scalar.total == pytest.approx(totals[0], rel=1e-12, abs=0.0)
        assert scalar.per_term == pytest.approx(per_term[0], rel=1e-12, abs=0.0)

    other = Signomial([Term(1.0, (1.0,) * s.m)])
    model = EcselModel([s, other])
    scalar = outcome(predict_proba, model, x)
    batch = outcome(predict_proba_batch, model, np.array([x]))
    if isinstance(scalar, type) or isinstance(batch, type):
        assert scalar == batch
    else:
        assert scalar == pytest.approx(batch[0], rel=1e-12, abs=0.0)


def test_batch_matches_scalar_eval():
    rng = np.random.default_rng(7)
    s = Signomial([(0.8, (-1.2, 0.0, -0.6)), (0.6, (0.0, -1.5, -0.4))])
    X = rng.uniform(1.0, 10.0, size=(20, 3))
    totals, per_term = evaluate_batch(s, X)
    for i in range(20):
        out = evaluate(s, X[i])
        assert totals[i] == pytest.approx(out.total, rel=1e-12)
        assert per_term[i] == pytest.approx(out.per_term, rel=1e-12)


# --- kernel: forward, backward and monomials ---------------------------------


def test_log_inputs_checks_shape_and_positivity():
    assert np.allclose(log_inputs([[1.0, np.e]]), [[0.0, 1.0]])
    with pytest.raises(DimensionMismatchError):
        log_inputs([1.0, 2.0])
    with pytest.raises(DimensionMismatchError):
        log_inputs([[1.0, 2.0]], m=3)
    for bad in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(NonPositiveInputError, match="row 1, coordinate 0"):
            log_inputs([[1.0, 1.0], [bad, 1.0]])


NOT_NUMBERS = {
    "string": ["a", 1.0, 1.0],
    "dict": [{"a": 1}, 1.0, 1.0],
    "complex": [1j, 1.0, 1.0],
    # numpy would take its real part, (1, 1, 1), with only a warning
    "complex array": np.array([1.0 + 5j, 1.0, 1.0]),
    "bare string": "abc",
    "ragged": [[1.0], [2.0, 3.0]],
}


def _entry_points():
    """Each public entry that converts caller data, as a function of one bad
    row (or label or target vector); every other argument is valid."""
    s = Signomial([(0.8, (-1.2, 0.0, -0.6)), (0.6, (0.0, -1.5, -0.4))])
    model = EcselModel([s, Signomial([(1.0, (0.5, 0.0, 0.0))])])
    ones = np.ones(3)
    sr, clf = regressor.SrConfig(), classifier.ClassifyConfig(epochs=1)

    def good(r):
        return np.ones((len(r), 3))

    def data(X, y):
        return Dataset(X, y, ["a", "b", "c"], ["0", "1"])

    return {
        "predict": lambda r: classifier.predict(model, r),
        "predict_proba": lambda r: predict_proba(model, r),
        "scores_batch": lambda r: model.scores_batch([r]),
        "predict_proba_batch": lambda r: predict_proba_batch(model, [r]),
        "evaluate": lambda r: evaluate(s, r),
        "counterfactual_scale": lambda r: explain.counterfactual_scale(model, 0, r, 0, 2.0),
        "build_report": lambda r: explain.build_report(model, r, 0, "gradient", ones),
        "build_report baseline": lambda r: explain.build_report(
            model, ones, 0, "gradient", r),
        "attribute_exact_log": lambda r: explain.attribute_exact_log(
            model, 0, r, ones, term_idx=0),
        "compare_scenarios": lambda r: explain.compare_scenarios(model, [("r", r)]),
        "fit_sr": lambda r: regressor.fit_sr([r] * 4, np.ones(4), sr),
        "fit_sr targets": lambda r: regressor.fit_sr(good(r), r, sr),
        "score_fit": lambda r: regressor.score_fit(s, [r] * 4, np.ones(4)),
        "score_fit targets": lambda r: regressor.score_fit(s, good(r), r),
        "loss_and_grad": lambda r: classifier.loss_and_grad(model, [r], [0], 0.0),
        "loss_and_grad labels": lambda r: classifier.loss_and_grad(model, good(r), r, 0.0),
        "fit": lambda r: classifier.fit(data([r, r], [0, 1]), data(good([0, 1]), [0, 1]), clf),
        "fit labels": lambda r: classifier.fit(data(good(r), r), data(good([0, 1]), [0, 1]), clf),
        "Scaler.fit": lambda r: Scaler().fit([r, r]),
        "Scaler.transform": lambda r: Scaler().fit(good([0, 1])).transform(r),
        "from_arrays": lambda r: Signomial.from_arrays(np.ones(1), [r]),
        "from_arrays alphas": lambda r: Signomial.from_arrays(r, np.ones((3, 1))),
    }


@pytest.mark.parametrize("bad", NOT_NUMBERS)
@pytest.mark.parametrize("entry", _entry_points())
def test_entries_that_are_not_numbers_raise_data_format_error(entry, bad):
    # numpy's own ValueError or TypeError would leave the CLI without an exit code
    with pytest.raises(DataFormatError, match="expected numbers"):
        _entry_points()[entry](NOT_NUMBERS[bad])


def test_forward_stacks_scores_like_separate_evaluations():
    rng = np.random.default_rng(3)
    sigs = [
        Signomial([(1.5, (0.5, -1.0)), (-0.3, (2.0, 0.0))]),
        Signomial([(0.0, (1.0, 1.0)), (2.0, (-0.5, 0.25))]),
    ]
    X = rng.uniform(1.0, 10.0, size=(6, 2))
    per_term = forward(*kernel_args(sigs, X))
    assert per_term.shape == (6, 2, 2)
    for c, s in enumerate(sigs):
        _, expected = evaluate_batch(s, X)
        assert np.allclose(per_term[:, c, :], expected, rtol=1e-14, atol=0.0)


def test_backward_sums_rows_and_weights_scores():
    rng = np.random.default_rng(4)
    sigs = [Signomial([(0.7, (1.0, -0.5)), (-1.2, (0.3, 0.8))]),
            Signomial([(0.4, (-1.0, 0.0)), (0.9, (0.0, 2.0))])]
    X = rng.uniform(1.0, 5.0, size=(5, 2))
    dz = rng.standard_normal((5, 2))
    alphas, betas, log_x = kernel_args(sigs, X)
    d_alpha, d_beta = backward(dz, monomials(betas, log_x), alphas, log_x)
    for c, s in enumerate(sigs):
        rows = [gradient(s, x) for x in X]
        assert d_alpha[c] == pytest.approx(sum(dz[i, c] * r[0] for i, r in enumerate(rows)))
        assert d_beta[c] == pytest.approx(sum(dz[i, c] * r[1] for i, r in enumerate(rows)))


def kernel_outputs(alphas, betas, log_x, dz):
    """forward's per-term values, the bare monomials and backward's gradient."""
    phi = monomials(betas, log_x)
    return (forward(alphas, betas, log_x), phi, *backward(dz, phi, alphas, log_x))


@pytest.mark.parametrize("shared_inputs", [False, True])
def test_trial_axis_gives_each_trial_its_lone_bits(shared_inputs):
    # T stacked models of C scores and K terms, each on its own inputs or on
    # one shared (N, m) set: every trial equals the same call without the
    # trial axis, bit for bit, for the values, the monomials and both gradients
    rng = np.random.default_rng(5)
    t, c, k, m, n = 4, 3, 2, 3, 9
    alphas = rng.normal(0.2, 0.5, size=(t, c, k))
    betas = rng.uniform(-1.5, 1.5, size=(t, c, k, m))
    log_x = np.log(rng.uniform(1.0, 10.0, size=(n, m) if shared_inputs else (t, n, m)))
    dz = rng.standard_normal((t, n, c))
    stacked = kernel_outputs(alphas, betas, log_x, dz)
    assert stacked[0].shape == (t, n, c, k) and stacked[3].shape == (t, c, k, m)
    for i in range(t):
        lx = log_x if shared_inputs else log_x[i]
        for got, want in zip(stacked, kernel_outputs(alphas[i], betas[i], lx, dz[i])):
            assert got[i].tobytes() == np.ascontiguousarray(want).tobytes()


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("trials", [None, 3])
def test_backward_gives_each_score_of_a_stack_its_lone_bits(k, trials):
    # each score's exponent gradient is its own (K, N) @ (N, m) product; one
    # merged (C * K, N) product gives a score of a stack other last bits
    # than it gets alone, which the regression stage's normal equations amplify
    rng = np.random.default_rng(k)
    lead = () if trials is None else (trials,)
    c, n, m = 8, 400, 2
    alphas = rng.standard_normal(lead + (c, k))
    betas = rng.standard_normal(lead + (c, k, m))
    log_x = np.log(rng.uniform(0.1, 3.0, size=lead + (n, m)))
    dz = rng.standard_normal(lead + (n, c))
    phi = monomials(betas, log_x)
    d_alpha, d_beta = backward(dz, phi, alphas, log_x)
    for i in range(c):
        alone = backward(dz[..., [i]], phi[..., [i], :], alphas[..., [i], :], log_x)
        np.testing.assert_array_equal(alone[0], d_alpha[..., [i], :])
        np.testing.assert_array_equal(alone[1], d_beta[..., [i], :, :])


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4), st.integers(1, 4),
       st.integers(1, 20), st.integers(0, 2**32 - 1))
def test_backward_gives_each_trial_of_a_stack_its_lone_bits(t, c, k, m, n, seed):
    # a (T, C, K) stack on per-trial log-inputs (T, N, m), zero coefficients
    # included: each trial's dL/dalpha and dL/dbeta are its lone call's bits
    rng = np.random.default_rng(seed)
    alphas = rng.normal(0.0, 1.0, size=(t, c, k)) * (rng.random((t, c, k)) > 0.2)
    betas = rng.uniform(-3.0, 3.0, size=(t, c, k, m))
    log_x = np.log(rng.uniform(0.1, 10.0, size=(t, n, m)))
    dz = rng.standard_normal((t, n, c))
    d_alpha, d_beta = backward(dz, monomials(betas, log_x), alphas, log_x)
    assert d_alpha.shape == (t, c, k) and d_beta.shape == (t, c, k, m)
    for i in range(t):
        lone = backward(dz[i], monomials(betas[i], log_x[i]), alphas[i], log_x[i])
        assert d_alpha[i].tobytes() == np.ascontiguousarray(lone[0]).tobytes()
        assert d_beta[i].tobytes() == np.ascontiguousarray(lone[1]).tobytes()


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.integers(1, 3),
       st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_backward_matches_finite_differences_of_weighted_scores(t, c, k, m, n, seed):
    # L = sum over trials, rows and scores of dz * z, with z = Phi alpha;
    # oracle: central differences of L on the direct-power evaluation
    rng = np.random.default_rng(seed)
    alphas = rng.normal(0.0, 1.0, size=(t, c, k))
    betas = rng.uniform(-2.0, 2.0, size=(t, c, k, m))
    x = rng.uniform(0.5, 3.0, size=(t, n, m))
    dz = rng.standard_normal((t, n, c))
    log_x = np.log(x)
    d_alpha, d_beta = backward(dz, monomials(betas, log_x), alphas, log_x)

    def weighted(a, b):
        # z[t, n, c] = sum_k a[t, c, k] * prod_j x[t, n, j] ** b[t, c, k, j]
        powers = np.prod(x[:, :, None, None, :] ** b[:, None], axis=-1)
        return float(np.sum(dz * np.einsum("tnck,tck->tnc", powers, a)))

    def moved(which, at, h):
        params = [alphas.copy(), betas.copy()]
        params[which][at] += h
        return weighted(*params)

    for which, analytic in enumerate((d_alpha, d_beta)):
        fd = np.zeros_like(analytic)
        for at in np.ndindex(fd.shape):
            h = 1e-6 * max(1.0, abs((alphas, betas)[which][at]))
            fd[at] = (moved(which, at, h) - moved(which, at, -h)) / (2 * h)
        scale = max(np.abs(analytic).max(), np.abs(fd).max(), 1e-8)
        assert np.abs(analytic - fd).max() / scale < 1e-6


def test_overflow_in_a_stack_names_the_score_term_and_row():
    betas = np.zeros((2, 1, 1, 1))
    betas[1, 0, 0, 0] = 400.0
    with pytest.raises(OverflowLimitError, match=r"of term 0 \(score 0, row 1\)") as exc:
        forward(np.ones((2, 1, 1)), betas, np.log(np.array([[1.0], [10.0]])))
    assert exc.value.stack_index == 1


@pytest.mark.parametrize("trials", [None, 2], ids=["C,K", "T,C,K"])
def test_forward_makes_a_zero_coefficient_term_exactly_zero(trials):
    # forward takes ln|alpha| itself: a zero alpha's ln 0 = -inf warns about
    # nothing, and its term is 0 even where its monomial 4^1000 would overflow
    sigs = [Signomial([(1.5, (0.5, -1.0)), (0.0, (2.0, 1.0))]),
            Signomial([(0.0, (1000.0, 0.0)), (-0.7, (1.0, 1.0))])]
    X = np.random.default_rng(7).uniform(0.5, 4.0, size=(5, 2))
    alphas, betas, log_x = kernel_args(sigs, X)
    if trials:
        alphas, betas = np.stack([alphas] * trials), np.stack([betas] * trials)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        per_term = forward(alphas, betas, log_x)
        expected = [evaluate_batch(s, X)[1] for s in sigs]
    for stack in per_term if trials else [per_term]:
        for c in range(len(sigs)):
            assert stack[:, c].tobytes() == expected[c].tobytes()
    assert not expected[0][:, 1].any() and not expected[1][:, 0].any()


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4), st.integers(1, 20),
       st.sampled_from((None, 1, 3)), st.booleans(), st.integers(0, 2**32 - 1))
def test_monomials_are_forward_at_unit_coefficients_bit_for_bit(c, k, m, n, trials,
                                                               shared_inputs, seed):
    # exp(l + ln 1) * sign(1) = exp(l), so the coefficient-free entry gives
    # the same bits, with or without a trial axis, on shared or own inputs
    rng = np.random.default_rng(seed)
    lead = () if trials is None else (trials,)
    betas = rng.uniform(-3.0, 3.0, size=lead + (c, k, m))
    x_shape = (n, m) if shared_inputs else lead + (n, m)
    log_x = np.log(rng.uniform(0.1, 10.0, size=x_shape))
    got = monomials(betas, log_x)
    want = forward(np.ones(lead + (c, k)), betas, log_x)
    assert got.shape == want.shape == lead + (n, c, k)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("trials", [None, 2], ids=["C,K", "T,C,K"])
def test_an_overflowing_monomial_is_named_as_forward_names_its_term(trials):
    # score 2's term 1 is 10^400, in the last trial when there are trials
    betas = np.zeros((3, 2, 1))
    betas[2, 1, 0] = 400.0
    if trials:
        betas = np.stack([np.zeros_like(betas), betas])
    ones = np.ones(betas.shape[:-1])
    log_x = np.log(np.array([[1.0], [10.0]]))
    named = r"^monomial log-magnitude .* of term 1 \(score 2, row 1\)"
    with pytest.raises(OverflowLimitError, match=named) as got:
        monomials(betas, log_x)
    with pytest.raises(OverflowLimitError, match=r"^term log-magnitude") as want:
        forward(ones, betas, log_x)
    assert got.value.stack_index == want.value.stack_index == (1 if trials else 2)
    assert got.value.term_index == want.value.term_index == 1


def test_gradient_single_term_example():
    s = Signomial([(2.0, (3.0,))])
    d_alpha, d_beta = gradient(s, (2.0,))
    # oracle: hand calculus, d/dalpha = 2^3 = 8, d/dbeta = 16 * ln 2 = 11.090354888959125
    assert d_alpha == pytest.approx([8.0], rel=1e-12)
    assert d_beta[0, 0] == pytest.approx(11.090354888959125, rel=1e-12)


def test_gradient_defined_at_zero_coefficient():
    s = Signomial([(0.0, (2.0,))])
    d_alpha, d_beta = gradient(s, (3.0,))
    assert d_alpha[0] == pytest.approx(9.0, rel=1e-12)
    assert d_beta[0, 0] == 0.0


@settings(max_examples=100, deadline=None)
@given(signomial_and_input())
def test_gradient_matches_finite_differences(case):
    s, x = case
    d_alpha, d_beta = gradient(s, x)
    analytic = np.concatenate([d_alpha, d_beta.ravel()])

    # oracle: central finite differences on the direct-power evaluation
    def value(alphas, betas):
        return direct_eval(Signomial.from_arrays(alphas, betas), x)

    a0, b0 = s.alphas, s.betas
    fd = []
    for k in range(s.num_terms):
        h = 1e-6 * max(1.0, abs(a0[k]))
        ap, am = a0.copy(), a0.copy()
        ap[k] += h
        am[k] -= h
        fd.append((value(ap, b0) - value(am, b0)) / (2 * h))
    for k in range(s.num_terms):
        for j in range(s.m):
            h = 1e-6 * max(1.0, abs(b0[k, j]))
            bp, bm = b0.copy(), b0.copy()
            bp[k, j] += h
            bm[k, j] -= h
            fd.append((value(a0, bp) - value(a0, bm)) / (2 * h))
    fd = np.array(fd)
    denom = max(np.linalg.norm(analytic), np.linalg.norm(fd), 1e-8)
    assert np.linalg.norm(analytic - fd) / denom < 1e-6


# --- canonicalization --------------------------------------------------------


def test_snap_to_thirds():
    assert snap_exponent(0.334) == pytest.approx(1 / 3)
    assert snap_exponent(0.999) == 1.0
    assert snap_exponent(0.426) == 0.426  # outside tolerance of every p/q with q <= 6
    assert snap_exponent(-0.51) == -0.5
    assert snap_exponent(0.003) == 0.0


def test_canonicalize_merges_identical_exponents():
    s = Signomial([(2.0, (1.0,)), (3.0, (1.0,))])
    c = canonicalize(s)
    assert c.num_terms == 1
    assert c.terms[0].alpha == pytest.approx(5.0)
    assert c.terms[0].beta == (1.0,)


def test_canonicalize_snaps_near_integer_exponent():
    c = canonicalize(Signomial([(1.001, (0.999,))]))
    assert c.terms[0].beta == (1.0,)
    assert c.terms[0].alpha == pytest.approx(1.001)  # coefficients never snapped


def test_canonicalize_prunes_tiny_coefficients():
    c = canonicalize(Signomial([(1e-9, (1.0,)), (2.0, (2.0,))]))
    assert c.num_terms == 1
    assert c.terms[0].beta == (2.0,)


def test_canonicalize_prunes_after_cancellation():
    s = Signomial([(1.0, (1.0,)), (-1.0, (1.0 + 1e-4,))])
    c = canonicalize(s)  # exponents snap together, coefficients cancel
    assert c.num_terms == 0


def test_canonicalize_zeroes_small_exponents():
    c = canonicalize(Signomial([(2.0, (4e-3, 1.0))]))
    assert c.terms[0].beta == (0.0, 1.0)


def test_canonicalize_sorts_terms():
    s = Signomial([(1.0, (2.0, 0.0)), (5.0, (0.0, 1.0)), (2.0, (2.0, 0.0))])
    c = canonicalize(s)
    assert [t.beta for t in c.terms] == [(0.0, 1.0), (2.0, 0.0)]
    assert [t.alpha for t in c.terms] == pytest.approx([5.0, 3.0])


@settings(max_examples=100, deadline=None)
@given(signomials())
def test_canonicalize_is_idempotent(s):
    once = canonicalize(s)
    twice = canonicalize(once.to_signomial())
    assert once == twice


# --- equivalence -------------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(signomials())
def test_equivalent_is_reflexive(s):
    c = canonicalize(s)
    assert equivalent(c, c)


@settings(max_examples=50, deadline=None)
@given(signomials(), signomials(max_features=4))
def test_equivalent_is_symmetric(s1, s2):
    if s1.m != s2.m:
        return
    a, b = canonicalize(s1), canonicalize(s2)
    assert equivalent(a, b) == equivalent(b, a)


def test_equivalent_within_tolerances():
    # exponents may differ by 0.02, coefficients by 5% of the larger one
    a = canonicalize(Signomial([(1.0, (0.5,))]))

    def form(alpha, beta):
        return CanonicalForm(terms=(Term(alpha, (beta,)),), m=1)

    assert equivalent(a, form(1.04, 0.515))
    assert not equivalent(a, form(1.0, 0.53))
    assert not equivalent(a, form(1.06, 0.5))


def test_equivalent_needs_same_term_count():
    a = canonicalize(Signomial([(1.0, (1.0,))]))
    b = canonicalize(Signomial([(0.5, (1.0,)), (0.5, (2.0,))]))
    assert not equivalent(a, b)


def test_equivalent_rejects_feature_count_mismatch():
    a = canonicalize(Signomial([(1.0, (1.0,))]))
    b = canonicalize(Signomial([(1.0, (1.0, 1.0))]))
    with pytest.raises(DimensionMismatchError):
        equivalent(a, b)


def test_equivalent_pairs_terms_off_order():
    a = CanonicalForm(terms=(Term(1.0, (1.0,)), Term(2.0, (2.0,))), m=1)
    b = CanonicalForm(terms=(Term(2.01, (2.001,)), Term(1.0, (1.001,))), m=1)
    assert equivalent(a, b)


# --- rendering ---------------------------------------------------------------


def test_render_identity_constant():
    assert render(Signomial([(1.0, (0.0,))])) == "1.00"


def test_render_plain_with_names():
    s = Signomial([(0.10, (0.47, -0.41))])
    assert render(s, names=["PV", "ER"]) == "0.10 * PV^0.47 * ER^-0.41"


def test_render_plain_multi_term_signs():
    s = Signomial([(2.0, (1.0,)), (-0.5, (2.0,))])
    assert render(s) == "2.00 * x1 - 0.50 * x1^2.00"


def test_render_latex_fraction():
    s = Signomial([(0.10, (0.47, -0.41))])
    assert render(s, names=["PV", "ER"], style="latex") == "0.10 \\frac{PV^{0.47}}{ER^{0.41}}"


def test_render_latex_no_denominator():
    s = Signomial([(1.4, (1.6, 0.8))])
    assert render(s, style="latex") == "1.40 \\, x1^{1.60} x2^{0.80}"


def test_render_name_count_checked():
    s = Signomial([(1.0, (1.0, 2.0))])
    with pytest.raises(NameCountMismatchError):
        render(s, names=["only_one"])
