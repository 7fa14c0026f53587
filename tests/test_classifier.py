import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from signolearn import classifier, data_io, optim, signomial
from signolearn.classifier import (
    ClassifyConfig,
    EcselModel,
    best_f1_threshold,
    class_weights,
    compute_metrics,
    fit,
    fit_trials,
    loss_and_grad,
    predict,
    predict_batch,
    predict_proba,
    predict_proba_batch,
    select_threshold,
)
from signolearn.errors import (
    BadConfigError,
    ClassTooSmallError,
    CorruptModelError,
    DataFormatError,
    DimensionMismatchError,
    LabelOutOfRangeError,
    NonFiniteLossError,
    NonPositiveInputError,
    OverflowLimitError,
)
from signolearn.optim import adam_step
from signolearn.signomial import Signomial, Term


def demo_model() -> EcselModel:
    """Two-class, two-term-per-class model used for hand-checked values."""
    z0 = Signomial([Term(0.8, (-1.2, 0.0, -0.6)), Term(0.6, (0.0, -1.5, -0.4))])
    z1 = Signomial([Term(0.7, (1.6, 0.0, 0.8)), Term(0.5, (0.0, 1.8, 0.4))])
    return EcselModel([z0, z1], link="softmax")


def random_model(rng, C=3, K=2, m=3, link="softmax"):
    rows = 1 if link == "sigmoid" else C
    sigs = []
    for _ in range(rows):
        terms = [
            Term(float(rng.normal(0.3, 0.5)), tuple(rng.uniform(-1.5, 1.5, size=m)))
            for _ in range(K)
        ]
        sigs.append(Signomial(terms))
    return EcselModel(sigs, link=link)


# --- probabilities -------------------------------------------------------------


def test_softmax_probs_match_direct_computation():
    # at x = (1,1,1) the scores are exactly (0.8+0.6, 0.7+0.5) = (1.4, 1.2);
    # oracle: math.exp softmax of (1.4, 1.2) computed by hand
    p = predict_proba(demo_model(), [1.0, 1.0, 1.0])
    assert p[0] == pytest.approx(0.549833997312478, rel=1e-12)
    assert p[1] == pytest.approx(0.45016600268752205, rel=1e-12)


def test_equal_scores_give_uniform_probs():
    z = Signomial([Term(0.0, (0.0,))])
    model = EcselModel([z, z], link="softmax")
    p = predict_proba(model, [3.7])
    assert p[0] == pytest.approx(0.5, abs=1e-15)
    assert p[1] == pytest.approx(0.5, abs=1e-15)


def test_probs_survive_huge_score_gap():
    big = Signomial([Term(1.0, (250.0,))])
    small = Signomial([Term(1.0, (0.0,))])
    p = predict_proba(EcselModel([big, small]), [10.0])
    assert np.all(np.isfinite(p))
    assert p.sum() == pytest.approx(1.0, abs=1e-12)
    assert p[0] > 0.999


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_probs_form_a_simplex(seed):
    rng = np.random.default_rng(seed)
    model = random_model(rng, C=int(rng.integers(2, 5)))
    X = rng.uniform(0.2, 5.0, size=(4, 3))
    P = predict_proba_batch(model, X)
    assert np.all(P >= 0) and np.all(P <= 1)
    np.testing.assert_allclose(P.sum(axis=1), 1.0, atol=1e-12)


def test_probs_invariant_to_constant_score_shift():
    rng = np.random.default_rng(7)
    model = random_model(rng, C=3)
    shifted = EcselModel(
        [Signomial(list(s.terms) + [Term(2.5, (0.0, 0.0, 0.0))]) for s in model.signomials],
        link="softmax",
    )
    x = [1.3, 0.8, 2.2]
    np.testing.assert_allclose(
        predict_proba(model, x), predict_proba(shifted, x), atol=1e-12
    )


def test_batch_and_single_probs_agree():
    rng = np.random.default_rng(3)
    model = random_model(rng, C=4)
    X = rng.uniform(0.5, 3.0, size=(6, 3))
    P = predict_proba_batch(model, X)
    for i in range(6):
        np.testing.assert_allclose(P[i], predict_proba(model, X[i]), atol=1e-14)


def test_sigmoid_probs_and_threshold_decision():
    # constant score z = ln(14/11) gives p1 = 14/25 = 0.56 exactly
    model = EcselModel(
        [Signomial([Term(np.log(14 / 11), (0.0,))])], link="sigmoid", threshold=0.559
    )
    p = predict_proba(model, [1.0])
    assert p[1] == pytest.approx(0.56, rel=1e-12)
    assert p[0] == pytest.approx(0.44, rel=1e-12)
    assert predict(model, [1.0]) == 1  # 0.560 >= 0.559
    model.threshold = 0.561
    assert predict(model, [1.0]) == 0


def test_sigmoid_threshold_is_inclusive():
    model = EcselModel(
        [Signomial([Term(0.0, (0.0,))])], link="sigmoid", threshold=0.5
    )
    assert predict(model, [1.0]) == 1  # p1 = 0.5 >= 0.5


def test_argmax_tie_goes_to_lowest_index():
    z = Signomial([Term(1.0, (0.0,))])
    model = EcselModel([z, z, z], link="softmax")
    assert predict(model, [2.0]) == 0


def test_sigmoid_extreme_scores_stay_finite():
    pos = EcselModel([Signomial([Term(1.0, (200.0,))])], link="sigmoid")
    neg = EcselModel([Signomial([Term(-1.0, (200.0,))])], link="sigmoid")
    hi = predict_proba(pos, [10.0])
    lo = predict_proba(neg, [10.0])
    assert hi[1] == pytest.approx(1.0)
    assert lo[1] == pytest.approx(0.0, abs=1e-300)
    assert np.all(np.isfinite(hi)) and np.all(np.isfinite(lo))


def test_nonpositive_input_rejected():
    with pytest.raises(NonPositiveInputError):
        predict_proba(demo_model(), [1.0, -2.0, 1.0])
    with pytest.raises(NonPositiveInputError):
        predict_proba_batch(demo_model(), [[1.0, 1.0, 0.0]])


def test_overflow_raises_alike_in_scalar_and_batch_paths():
    # 10^400 overflows float64; every path must say so instead of returning NaN
    model = EcselModel([Signomial([Term(1.0, (400.0,))]), Signomial([Term(1.0, (1.0,))])])
    with pytest.raises(OverflowLimitError):
        predict_proba(model, [10.0])
    with pytest.raises(OverflowLimitError):
        predict_proba_batch(model, [[10.0]])
    with pytest.raises(OverflowLimitError):
        predict_batch(model, [[10.0]])


def test_wrong_feature_count_raises_alike_in_scalar_and_batch_paths():
    model = demo_model()
    with pytest.raises(DimensionMismatchError):
        predict_proba(model, [1.0, 1.0])
    with pytest.raises(DimensionMismatchError):
        predict_proba_batch(model, [[1.0, 1.0]])


# --- loss and gradient ----------------------------------------------------------


def test_loss_value_single_sample():
    # oracle: -ln(softmax(1.4, 1.2)[0]) computed with math.exp/math.log
    model = demo_model()
    loss, _ = loss_and_grad(model, [[1.0, 1.0, 1.0]], [0], l1_penalty=0.0)
    assert loss == pytest.approx(0.5981388693815918, rel=1e-12)
    loss1, _ = loss_and_grad(model, [[1.0, 1.0, 1.0]], [1], l1_penalty=0.0)
    assert loss1 == pytest.approx(0.798138869381592, rel=1e-12)


def test_loss_includes_l1_term_on_exponents_only():
    model = demo_model()
    base, _ = loss_and_grad(model, [[1.0, 1.0, 1.0]], [0], l1_penalty=0.0)
    full, _ = loss_and_grad(model, [[1.0, 1.0, 1.0]], [0], l1_penalty=0.5)
    total_beta = sum(abs(b) for s in model.signomials for t in s.terms for b in t.beta)
    assert full == pytest.approx(base + 0.5 * total_beta, rel=1e-12)


def test_loss_with_class_weights():
    # oracle: -(w0 ln p0 + w1 ln p1)/2 with w = (2/3, 2), hand-computed
    model = demo_model()
    X = [[1.0, 1.0, 1.0], [1.0, 1.0, 1.0]]
    loss, _ = loss_and_grad(
        model, X, [0, 1], l1_penalty=0.0, weights=np.array([2 / 3, 2.0])
    )
    assert loss == pytest.approx(0.9975184925087892, rel=1e-12)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    for trial in range(20):
        link = "sigmoid" if trial % 2 else "softmax"
        C = 2 if link == "sigmoid" else int(rng.integers(2, 4))
        model = random_model(rng, C=C, K=2, m=3, link=link)
        X = rng.uniform(0.5, 2.0, size=(5, 3))
        y = rng.integers(0, C, size=5)
        weights = 1.0 + rng.uniform(0, 1, size=C)
        _, grad = loss_and_grad(model, X, y, l1_penalty=0.0, weights=weights)
        n_sig = len(model.signomials)
        theta0 = np.concatenate([
            np.array([s.alphas for s in model.signomials]).ravel(),
            np.array([s.betas for s in model.signomials]).ravel(),
        ])

        def loss_at(theta):
            a = theta[: n_sig * 2].reshape(n_sig, 2)
            b = theta[n_sig * 2 :].reshape(n_sig, 2, 3)
            sigs = [Signomial.from_arrays(a[c], b[c]) for c in range(a.shape[0])]
            mdl = EcselModel(sigs, link=link)
            val, _ = loss_and_grad(mdl, X, y, l1_penalty=0.0, weights=weights)
            return val

        fd = np.zeros_like(theta0)
        h = 1e-5
        for i in range(len(theta0)):
            up, dn = theta0.copy(), theta0.copy()
            up[i] += h
            dn[i] -= h
            fd[i] = (loss_at(up) - loss_at(dn)) / (2 * h)
        denom = max(np.linalg.norm(fd), 1e-12)
        assert np.linalg.norm(grad - fd) / denom < 1e-5


@st.composite
def sigmoid_batches(draw):
    """A one-term sigmoid model alpha * prod_j x_j^beta_j over x in [1, 10]^m
    with |alpha| <= 7 and |beta_j| <= 1, so |z| <= 700, plus labels and
    positive class weights."""
    finite = dict(allow_nan=False, allow_infinity=False)
    m = draw(st.integers(1, 2))
    n = draw(st.integers(1, 6))
    alpha = draw(st.floats(-7.0, 7.0, **finite))
    beta = [draw(st.floats(-1.0, 1.0, **finite)) for _ in range(m)]
    X = np.array([[draw(st.floats(1.0, 10.0)) for _ in range(m)] for _ in range(n)])
    y = np.array([draw(st.integers(0, 1)) for _ in range(n)])
    weights = np.array([draw(st.floats(0.1, 5.0)) for _ in range(2)])
    return EcselModel([Signomial([Term(alpha, tuple(beta))])], link="sigmoid"), X, y, weights


@settings(max_examples=300, deadline=None)
@given(sigmoid_batches())
def test_sigmoid_loss_and_grad_are_the_weighted_softplus_and_its_gradient(case):
    model, X, y, weights = case
    loss, grad = loss_and_grad(model, X, y, l1_penalty=0.0, weights=weights)
    alpha, beta = model._alphas[0, 0], model._betas[0, 0]
    phi = np.exp(np.log(X) @ beta)
    z = alpha * phi
    w = weights[y] / len(y)
    # -ln p1 = softplus(-z) and -ln p0 = softplus(z); sigma(z) - y is
    # -sigma(-z) at y = 1
    softplus = np.logaddexp(0.0, np.where(y == 1, -z, z))
    sigma = np.where(y == 1, -1.0, 1.0) / (1.0 + np.exp(np.where(y == 1, z, -z)))
    dz = w * sigma
    expected = np.concatenate([[dz @ phi], alpha * ((dz * phi) @ np.log(X))])
    # a row's p - y and ln p carry an absolute rounding error of a few ulps
    # of 1 and of |z|, which swamps the tiny values of a confidently right
    # row; so each check is rel 1e-12 above a floor of 1e-15 of those scales
    loss_floor = 1e-15 * float(w @ np.maximum(1.0, np.abs(z)))
    assert loss == pytest.approx(float(w @ softplus), rel=1e-12, abs=loss_floor)
    grad_floor = 1e-15 * np.concatenate([[w @ phi], abs(alpha) * ((w * phi) @ np.log(X))])
    assert np.all(np.abs(grad - expected) <= 1e-12 * np.abs(expected) + grad_floor)


@st.composite
def stacked_heads(draw):
    """Head inputs for T stacked models: alphas (T, C, K), betas
    (T, C, K, m), log-inputs (T, N, m) with labels (T, N), or (N, m) with
    (N,) shared by every trial, class weights and the link. Coefficients
    reach 1e308, so two scores can lie more than float range apart, or
    overflow."""
    link = draw(st.sampled_from(classifier.LINKS))
    t, n, k, m = (draw(st.integers(1, 4)) for _ in range(4))
    classes = 2 if link == "sigmoid" else draw(st.integers(2, 4))
    rows = 1 if link == "sigmoid" else classes
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.sampled_from((0, 100, 307, 308)))
    alphas = scale * rng.uniform(-1.0, 1.0, (t, rows, k))
    betas = rng.standard_normal((t, rows, k, m))
    shared = draw(st.booleans())
    log_x = rng.uniform(-1.0, 1.0, (n, m) if shared else (t, n, m))
    y = rng.integers(0, classes, n if shared else (t, n))
    return alphas, betas, log_x, y, rng.uniform(0.1, 5.0, classes), link


def index_gather_loss(alphas, betas, log_x, y, weights, link):
    """The head's loss, each row's label term taken by an index gather."""
    phi = signomial.monomials(betas, log_x)
    Z = classifier._class_scores(link, (alphas[..., None, :] @ phi)[..., 0, :])  # (T, C, N)
    shifted = Z - Z.max(axis=-2, keepdims=True)
    log_p = shifted - np.log(np.exp(shifted).sum(axis=-2))[..., None, :]
    t, n = log_p.shape[0], log_p.shape[-1]
    at_label = log_p[np.arange(t)[:, None], y, np.arange(n)]
    return -(weights[y] * at_label).sum(axis=-1) / n


@settings(max_examples=300, deadline=None)
@given(stacked_heads())
# class 1's score is 2e308 below class 0's, so its log-probability is -inf
@example((np.array([[[1e308], [-1e308], [0.0]]]), np.zeros((1, 3, 1, 1)),
          np.zeros((1, 2, 1)), np.array([[0, 2]]), np.ones(3), "softmax"))
def test_the_masked_label_loss_is_the_index_gather_bit_for_bit(case):
    alphas, betas, log_x, y, weights, link = case
    with np.errstate(over="ignore", invalid="ignore"):
        loss, _ = classifier._smooth_loss(alphas, betas, log_x,
                                          classifier._labels(y, weights), link)
        want = index_gather_loss(alphas, betas, log_x, y, weights, link)
    np.testing.assert_array_equal(loss, want)


@pytest.mark.parametrize("link", ["softmax", "sigmoid"])
def test_loss_at_a_zero_coefficient_warns_about_nothing(link):
    # the zero term adds exactly 0 to its score, so the loss is that of the
    # model without it, bit for bit, and the term's exponents get no gradient;
    # under softmax the one-term second class is zero-padded as well
    kept = [Term(1.2, (0.5, -1.0)), Term(-0.4, (1.0, 0.3))]
    zero = Term(0.0, (2.0, 1.0))
    other = [Signomial([Term(0.8, (-0.5, 0.5))])] if link == "softmax" else []
    with_zero = EcselModel([Signomial([kept[0], zero, kept[1]]), *other], link=link)
    without = EcselModel([Signomial(kept), *other], link=link)
    rng = np.random.default_rng(8)
    X = rng.uniform(0.5, 4.0, size=(12, 2))
    y = rng.integers(0, 2, size=12)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loss, grad = loss_and_grad(with_zero, X, y, l1_penalty=0.0)
        assert loss == loss_and_grad(without, X, y, l1_penalty=0.0)[0]
    d_beta = grad[with_zero._alphas.size:].reshape(with_zero._betas.shape)
    assert not d_beta[0, 1].any() and np.isfinite(grad).all()


def test_loss_rejects_empty_batch_and_bad_labels():
    model = demo_model()
    with pytest.raises(DataFormatError):
        loss_and_grad(model, np.empty((0, 3)), [], l1_penalty=0.0)
    with pytest.raises(LabelOutOfRangeError):
        loss_and_grad(model, [[1.0, 1.0, 1.0]], [5], l1_penalty=0.0)
    # a label count that differs from the row count, either way round
    with pytest.raises(DimensionMismatchError):
        loss_and_grad(model, [[1.0, 1.0, 1.0]] * 2, [1], l1_penalty=0.0)
    with pytest.raises(DimensionMismatchError):
        loss_and_grad(model, [[1.0, 1.0, 1.0]], [0, 1], l1_penalty=0.0)
    # one weight per class, each finite and non-negative as class_weights gives
    x, y = [[1.0, 1.0, 1.0]] * 2, [0, 1]
    for weights in ([1.0], [1.0, 1.0, 1.0], [[1.0, 1.0]], 1.0):
        with pytest.raises(DimensionMismatchError):
            loss_and_grad(model, x, y, l1_penalty=0.0, weights=weights)
    for weights in ([1.0, -1.0], [1.0, np.nan], [np.inf, 1.0]):
        with pytest.raises(BadConfigError):
            loss_and_grad(model, x, y, l1_penalty=0.0, weights=weights)
    assert loss_and_grad(model, x, y, 0.0, weights=[1.0, 0.0])[0] == pytest.approx(
        loss_and_grad(model, x[:1], y[:1], 0.0)[0] / 2)


# --- class weights ---------------------------------------------------------------


def test_class_weights_formula():
    w = class_weights(np.array([0, 0, 0, 1]), 2, multiplier=1.0)
    np.testing.assert_allclose(w, [2 / 3, 2.0])
    np.testing.assert_allclose(class_weights(np.array([0, 0, 0, 1]), 2, 0.0), [1.0, 1.0])


def test_class_weights_balanced_data_always_unit():
    y = np.array([0, 1, 2] * 4)
    np.testing.assert_allclose(class_weights(y, 3, multiplier=0.7), np.ones(3))


def test_class_weights_missing_class():
    with pytest.raises(ClassTooSmallError):
        class_weights(np.array([0, 0, 0]), 2, multiplier=1.0)


def test_class_weights_refuse_a_negative_weight():
    # class 1 gets 1 - 2 * (4 / (2 * 1) - 1) = -1: the loss is unbounded below
    with pytest.raises(BadConfigError, match="class 1"):
        class_weights(np.array([0, 0, 0, 1]), 2, multiplier=-2.0)
    # a weight of exactly zero is still a bounded loss
    np.testing.assert_allclose(class_weights(np.array([0, 0, 0, 1]), 2, -1.0), [4 / 3, 0.0])


# --- config validation ------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"num_terms": 0},
        {"l1_penalty": -0.1},
        {"batch_size": 0},
        {"epochs": 0},
        {"learning_rate": 0.0},
        {"learning_rate": float("nan")},
        {"learning_rate": float("inf")},
        {"l1_penalty": float("nan")},
        {"link": "probit"},
        {"threshold_grid_step": 0.0},
        {"threshold_grid_step": 0.5},
        {"patience": 0},
        {"patience": -3},
    ],
)
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(BadConfigError):
        ClassifyConfig(**kwargs).validate()


def test_model_shape_validation():
    z = Signomial([Term(1.0, (0.5,))])
    with pytest.raises(BadConfigError):
        EcselModel([z], link="softmax")
    with pytest.raises(BadConfigError):
        EcselModel([z, z], link="sigmoid")
    with pytest.raises(BadConfigError):
        EcselModel([z, z], threshold=1.0)
    z2 = Signomial([Term(1.0, (0.5, 0.5))])
    with pytest.raises(DimensionMismatchError):
        EcselModel([z, z2])
    # a model that could not be loaded again is refused when built
    with pytest.raises(DimensionMismatchError):
        EcselModel([z2, z2], feature_names=["a", "a"])


# --- training ---------------------------------------------------------------------


def blobs(seed=0, n=120, log_sep=1.0):
    """Two log-space Gaussian blobs, positive features, labels 0/1."""
    rng = np.random.default_rng(seed)
    half = n // 2
    g0 = rng.normal(-log_sep, 0.4, size=(half, 2))
    g1 = rng.normal(log_sep, 0.4, size=(n - half, 2))
    X = np.exp(np.vstack([g0, g1]))
    y = np.array([0] * half + [1] * (n - half))
    perm = rng.permutation(n)
    return X[perm], y[perm]


def make_sets(seed=0, n=160):
    X, y = blobs(seed=seed, n=n)
    cut = int(0.75 * n)
    train = data_io.Dataset(
        X=X[:cut], y=y[:cut], feature_names=["a", "b"], class_names=["neg", "pos"]
    )
    val = data_io.Dataset(
        X=X[cut:], y=y[cut:], feature_names=["a", "b"], class_names=["neg", "pos"]
    )
    return train, val


def test_fit_learns_separable_blobs():
    train, val = make_sets(seed=1)
    cfg = ClassifyConfig(num_terms=1, epochs=150, learning_rate=0.05, seed=3,
                         l1_penalty=1e-4, batch_size=32, patience=30)
    model, trace = fit(train, val, cfg)
    acc = float(np.mean(predict_batch(model, val.X) == val.y))
    assert acc >= 0.95
    assert model.class_names == ["neg", "pos"]
    assert len(trace.val_loss) == len(trace.epochs) <= 150


def test_fit_sigmoid_binary_with_threshold_selection():
    train, val = make_sets(seed=5)
    cfg = ClassifyConfig(num_terms=1, epochs=150, learning_rate=0.05, seed=2,
                         link="sigmoid", l1_penalty=1e-4, patience=30)
    model, _ = fit(train, val, cfg)
    assert len(model.signomials) == 1
    assert 0 < model.threshold < 1
    acc = float(np.mean(predict_batch(model, val.X) == val.y))
    assert acc >= 0.95


def test_fit_is_deterministic_for_fixed_seed():
    train, val = make_sets(seed=9)
    cfg = ClassifyConfig(num_terms=2, epochs=25, seed=42)
    m1, t1 = fit(train, val, cfg)
    m2, t2 = fit(train, val, cfg)
    assert t1.val_loss == t2.val_loss
    assert m1.to_dict() == m2.to_dict()
    m3, _ = fit(train, val, ClassifyConfig(num_terms=2, epochs=25, seed=43))
    assert m3.to_dict() != m1.to_dict()


def test_fit_full_batch_loss_nonincreasing_on_easy_case():
    train, val = make_sets(seed=13)
    cfg = ClassifyConfig(
        num_terms=1, epochs=50, learning_rate=1e-3, batch_size=10_000,
        l1_penalty=0.0, seed=0, patience=100,
    )
    _, trace = fit(train, val, cfg)
    diffs = np.diff(trace.train_loss)
    assert np.all(diffs <= 1e-9)


def test_huge_l1_forces_constant_model():
    train, val = make_sets(seed=21)
    cfg = ClassifyConfig(num_terms=2, epochs=60, l1_penalty=10.0, seed=1,
                         learning_rate=0.01)
    model, _ = fit(train, val, cfg)
    for s in model.signomials:
        assert np.all(np.abs(s.betas) < 1e-8)
    preds = predict_batch(model, val.X)
    assert len(np.unique(preds)) == 1


def test_fit_early_stops_and_restores_best():
    train, val = make_sets(seed=17)
    cfg = ClassifyConfig(num_terms=1, epochs=400, learning_rate=0.05, seed=7,
                         patience=10, l1_penalty=1e-4)
    model, trace = fit(train, val, cfg)
    if trace.stopped_early:
        assert len(trace.epochs) < 400
    assert trace.best_epoch in trace.epochs
    assert min(trace.val_loss) == pytest.approx(trace.val_loss[trace.best_epoch], abs=1e-15)


def test_fit_rejects_sigmoid_multiclass():
    train, val = make_sets(seed=1)
    train3 = data_io.Dataset(
        X=np.vstack([train.X, [[1.0, 1.0]]]),
        y=np.append(train.y, 2),
        feature_names=train.feature_names,
        class_names=["a", "b", "c"],
    )
    with pytest.raises(BadConfigError):
        fit(train3, val, ClassifyConfig(link="sigmoid", epochs=1))


def test_fit_diverges_loudly_with_insane_learning_rate():
    train, val = make_sets(seed=2)
    cfg = ClassifyConfig(num_terms=2, epochs=30, learning_rate=1e3, seed=0)
    with pytest.raises(NonFiniteLossError) as exc_info:
        fit(train, val, cfg)
    assert exc_info.value.epoch is not None
    assert isinstance(exc_info.value.__cause__, OverflowLimitError)


def test_fit_trials_trains_each_trial_as_it_would_alone(monkeypatch):
    # a 4-trial stack: trial 1 diverges as in the test above, trial 2 stops
    # early after steps whose gradients are clipped, trials 0 and 3 run all
    # their (different) epochs
    train, val = make_sets(seed=2)
    cfgs = [
        ClassifyConfig(num_terms=2, epochs=30, learning_rate=1e-2, seed=1, patience=30),
        ClassifyConfig(num_terms=2, epochs=30, learning_rate=1e3, seed=0),
        ClassifyConfig(num_terms=2, epochs=30, learning_rate=1.0, seed=3, patience=2),
        ClassifyConfig(num_terms=2, epochs=20, learning_rate=3e-3, l1_penalty=1e-2,
                       seed=4, patience=30),
    ]
    rows = []

    def recording(state, params, *args, **kwargs):
        rows.append(len(params))
        return adam_step(state, params, *args, **kwargs)

    monkeypatch.setattr(optim, "adam_step", recording)
    results = fit_trials(train, val, cfgs)
    stepped = list(rows)

    with pytest.raises(NonFiniteLossError) as lone:
        fit(train, val, cfgs[1])
    failed = results[1]
    assert type(failed) is NonFiniteLossError
    assert str(failed) == str(lone.value)
    assert failed.epoch == lone.value.epoch is not None
    assert type(failed.__cause__) is OverflowLimitError
    assert str(failed.__cause__) == str(lone.value.__cause__)

    early = results[2][1]
    assert early.stopped_early and len(early.epochs) < 30
    # when trial 1 overflows, the stacked step names it and the three sound
    # trials run the step again as one stack: no trial ever steps alone
    # while others are live, and the stack goes from 4 rows straight to 3
    cut = stepped.index(3)
    assert set(stepped[:cut]) == {4}
    # 4 batches an epoch; a trial leaves the stack when it stops or fails,
    # so the stack steps each survivor once per batch of its own epochs
    survivors = 4 * (30 + len(early.epochs) + 20)
    assert stepped == sorted(stepped, reverse=True) and stepped[-1] == 1
    assert 0 <= sum(stepped) - survivors < 4 * (failed.epoch + 1)

    for i in (0, 2, 3):
        model, trace = fit(train, val, cfgs[i])
        assert json.dumps(results[i][0].to_dict()) == json.dumps(model.to_dict())
        assert results[i][1] == trace


def test_a_stack_drops_each_overflowing_trial_it_names():
    # three of five trials overflow at epoch 0; each failure names its
    # trial, which leaves, and the rest run the step again as one stack
    train, val = make_sets(seed=2)
    cfgs = [
        ClassifyConfig(num_terms=2, epochs=30, learning_rate=lr, seed=seed)
        for lr, seed in ((1e3, 0), (1e-2, 1), (1e3, 5), (3e2, 7), (1e-3, 2))
    ]
    results = fit_trials(train, val, cfgs)
    failed = [i for i, r in enumerate(results) if isinstance(r, Exception)]
    assert failed == [0, 2, 3]
    for i, cfg in enumerate(cfgs):
        if i in failed:
            with pytest.raises(NonFiniteLossError) as lone:
                fit(train, val, cfg)
            got, want = results[i], lone.value
            assert type(got) is type(want) and str(got) == str(want)
            assert got.epoch == want.epoch == 0
            assert type(got.__cause__) is type(want.__cause__) is OverflowLimitError
            assert str(got.__cause__) == str(want.__cause__)
        else:
            model, trace = fit(train, val, cfg)
            assert json.dumps(results[i][0].to_dict()) == json.dumps(model.to_dict())
            assert results[i][1] == trace


def test_a_non_finite_loss_names_its_trial_and_the_step_changes_nothing(monkeypatch):
    # trial 1's loss turns NaN on the third training step of a 3-trial
    # stack: that trial leaves, and the other two take the step again as if
    # it had never failed, so they still equal their lone fits
    train, val = make_sets(seed=2)
    cfgs = [ClassifyConfig(num_terms=2, epochs=3, learning_rate=1e-2, seed=s) for s in range(3)]
    real, calls = classifier._smooth_loss, []

    def poisoned(*args):
        loss, grad = real(*args)
        calls.append(len(loss))
        if len(calls) == 3:
            loss = np.where(np.arange(len(loss)) == 1, np.nan, loss)
        return loss, grad

    monkeypatch.setattr(classifier, "_smooth_loss", poisoned)
    results = fit_trials(train, val, cfgs)
    monkeypatch.undo()
    assert calls[:4] == [3, 3, 3, 2]
    assert type(results[1]) is NonFiniteLossError and results[1].epoch == 0
    assert str(results[1]) == "non-finite training loss at epoch 0"
    for i in (0, 2):
        model, trace = fit(train, val, cfgs[i])
        assert json.dumps(results[i][0].to_dict()) == json.dumps(model.to_dict())
        assert results[i][1] == trace


def test_a_score_past_float_range_is_a_non_finite_loss_without_a_warning():
    # 10^300 * 10^300 overflows the score, while the monomial's log,
    # 300 ln 10 = 690.8, stays under the limit
    model = EcselModel([Signomial([Term(1e300, (300.0,))]), Signomial([Term(1.0, (1.0,))])])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteLossError):
            loss_and_grad(model, [[10.0]], [0], l1_penalty=0.0)


def test_a_trial_whose_score_overflows_leaves_with_the_error_it_raises_alone():
    # inputs e^(+-0.007): trial 1's first step of about 1e5 moves its
    # exponents to |beta ln x| of about 700, just under the monomial limit,
    # and its coefficient to about 1e5, which takes the score past float
    # range; the other two trials train as they would alone
    rng = np.random.default_rng(0)
    X = np.exp(0.00699 * np.where(rng.random((40, 1)) < 0.5, -1.0, 1.0))
    y = np.arange(40) % 2
    train, val = (data_io.Dataset(X=X[rows], y=y[rows], feature_names=["a"],
                                  class_names=["n", "p"]) for rows in (slice(30), slice(30, None)))
    cfgs = [ClassifyConfig(num_terms=1, epochs=5, learning_rate=lr, l1_penalty=0.0,
                           batch_size=10, seed=seed)
            for lr, seed in ((1e-2, 0), (1e5, 1), (1e-2, 2))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        results = fit_trials(train, val, cfgs)
        with pytest.raises(NonFiniteLossError) as lone:
            fit(train, val, cfgs[1])
    failed = results[1]
    assert type(failed) is NonFiniteLossError and failed.__cause__ is None
    assert str(failed) == str(lone.value) == "non-finite training loss at epoch 0"
    assert failed.epoch == lone.value.epoch == 0 and lone.value.__cause__ is None
    for i in (0, 2):
        model, trace = fit(train, val, cfgs[i])
        assert json.dumps(results[i][0].to_dict()) == json.dumps(model.to_dict())
        assert results[i][1] == trace


def test_fit_trials_leaves_numpy_error_state_as_it_found_it():
    # trial 1's score passes float range and trial 3's monomial passes the
    # limit, so each leaves the stack by an error raised inside a step's
    # errstate; the caller's error state is the same afterwards
    train, val = make_sets(seed=2)
    cfgs = [ClassifyConfig(num_terms=2, epochs=5, learning_rate=lr, seed=seed)
            for lr, seed in ((1e-2, 0), (1e5, 1), (1e-2, 2), (1e3, 0))]
    before = np.geterr()
    results = fit_trials(train, val, cfgs)
    assert np.geterr() == before
    assert [isinstance(r, Exception) for r in results] == [False, True, False, True]


def test_training_takes_one_errstate_per_step_and_per_validation(monkeypatch):
    # the guard for the step-scoped errstate: 3 trials, 6 epochs of 4
    # batches of 120 rows, so 24 stacked steps and 6 validation passes
    entries = []

    class Counting(np.errstate):
        def __enter__(self):
            entries.append(self)
            return super().__enter__()

    monkeypatch.setattr(np, "errstate", Counting)
    train, val = make_sets(seed=2)
    cfgs = [ClassifyConfig(num_terms=2, epochs=6, patience=6, learning_rate=1e-2, seed=s)
            for s in range(3)]
    results = fit_trials(train, val, cfgs)
    assert all(len(trace.epochs) == 6 for _, trace in results)
    assert 0 < len(entries) <= 6 * 4 + 6


def test_fit_trials_checks_labels_before_training():
    train, val = make_sets(seed=0)
    cfg = ClassifyConfig(epochs=1)
    short = data_io.Dataset(train.X, train.y[:-1], train.feature_names)
    with pytest.raises(DimensionMismatchError):
        fit_trials(short, val, [cfg])
    with pytest.raises(DimensionMismatchError):
        fit_trials(train, data_io.Dataset(val.X, val.y[:, None], val.feature_names), [cfg])
    negative = val.y.copy()
    negative[3] = -1
    with pytest.raises(LabelOutOfRangeError):
        fit_trials(train, data_io.Dataset(val.X, negative, val.feature_names), [cfg])


def test_a_fit_on_zero_feature_columns_fails_before_any_training(monkeypatch):
    def unexpected(*args, **kwargs):
        raise AssertionError("a fit on no features trained")

    monkeypatch.setattr(classifier, "_train_stack", unexpected)
    y = np.array([0, 1] * 4)
    empty = data_io.Dataset(np.ones((8, 0)), y, [])
    with pytest.raises(DimensionMismatchError, match=r"\(8, 0\)"):
        fit(empty, empty, ClassifyConfig(epochs=1))


# --- threshold grid ---------------------------------------------------------------


def test_threshold_grid_example():
    th = best_f1_threshold(np.array([0.2, 0.8]), np.array([0, 1]), 0.001)
    assert th == pytest.approx(0.201, abs=1e-12)


def test_threshold_tie_goes_to_lowest():
    # every threshold separates perfectly, so the first grid point wins
    th = best_f1_threshold(np.array([0.01, 0.99]), np.array([0, 1]), 0.1)
    assert th == pytest.approx(0.1)


def test_threshold_grid_keeps_its_last_point():
    # 0.9 is the only grid point of step 0.3 that separates the classes
    p1 = np.array([0.95, 0.95, 0.85, 0.85])
    assert best_f1_threshold(p1, np.array([1, 1, 0, 0]), 0.3) == pytest.approx(0.9)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(0.001, 0.999), min_size=2, max_size=12),
    st.integers(0, 2**31 - 1),
    st.sampled_from([0.01, 0.03, 0.05, 0.1, 0.3]),
)
def test_threshold_matches_exhaustive_oracle(probs, seed, step):
    rng = np.random.default_rng(seed)
    p1 = np.array(probs)
    y = rng.integers(0, 2, size=len(p1))
    got = best_f1_threshold(p1, y, step)

    # oracle: brute-force scan of the same grid
    def f1_at(th):
        pred = p1 >= th
        tp = np.sum(pred & (y == 1))
        denom = 2 * tp + np.sum(pred & (y == 0)) + np.sum(~pred & (y == 1))
        return 2 * tp / denom if denom else 0.0

    grid = [k * step for k in range(1, 1000) if k * step < 1.0]
    scores = [f1_at(th) for th in grid]
    best = max(scores)
    expected = grid[scores.index(best)]
    assert got == pytest.approx(expected, abs=1e-12)


def test_select_threshold_requires_binary():
    rng = np.random.default_rng(0)
    model = random_model(rng, C=3)
    val = data_io.Dataset(
        X=np.ones((4, 3)), y=np.array([0, 1, 2, 0]),
        feature_names=["a", "b", "c"], class_names=["x", "y", "z"],
    )
    with pytest.raises(BadConfigError):
        select_threshold(model, val, 0.1)


# --- metrics ----------------------------------------------------------------------


def test_metrics_frozen_example():
    # oracle: sklearn accuracy_score / precision_recall_fscore_support /
    # confusion_matrix on yTrue=(0,0,1,1,2), yPred=(0,1,1,1,2)
    m = compute_metrics([0, 0, 1, 1, 2], [0, 1, 1, 1, 2], 3)
    assert m.accuracy == pytest.approx(0.8)
    assert m.precision == pytest.approx(0.8666666666666666, rel=1e-12)
    assert m.recall == pytest.approx(0.8, rel=1e-12)
    assert m.f1 == pytest.approx(0.7866666666666667, rel=1e-12)
    np.testing.assert_array_equal(m.confusion, [[1, 1, 0], [0, 2, 0], [0, 0, 1]])
    # ties for least-frequent true class (1 each for classes 2) -> class 2 is
    # the unique minority here with 1 sample, and its recall is 1.0
    assert m.minority_recall == pytest.approx(1.0)


def test_minority_recall_picks_least_frequent():
    m = compute_metrics([0, 0, 0, 1], [0, 0, 0, 0], 2)
    assert m.minority_recall == 0.0  # class 1 has 1 sample, predicted wrong
    m = compute_metrics([0, 0, 0, 1], [1, 0, 0, 1], 2)
    assert m.minority_recall == 1.0


def test_minority_recall_tie_lowest_index():
    # classes 0 and 1 both have support 2; the tie goes to class 0
    m = compute_metrics([0, 0, 1, 1], [1, 1, 1, 1], 2)
    assert m.minority_recall == 0.0
    m = compute_metrics([0, 0, 1, 1], [0, 0, 0, 0], 2)
    assert m.minority_recall == 1.0


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(2, 5), st.integers(3, 40))
def test_metrics_match_sklearn(seed, C, n):
    sklearn_metrics = pytest.importorskip("sklearn.metrics")
    rng = np.random.default_rng(seed)
    y_true = rng.integers(0, C, size=n)
    y_pred = rng.integers(0, C, size=n)
    m = compute_metrics(y_true, y_pred, C)
    assert m.accuracy == pytest.approx(sklearn_metrics.accuracy_score(y_true, y_pred))
    pr, rc, f1, _ = sklearn_metrics.precision_recall_fscore_support(
        y_true, y_pred, average="weighted", labels=np.arange(C), zero_division=0
    )
    assert m.precision == pytest.approx(pr, abs=1e-12)
    assert m.recall == pytest.approx(rc, abs=1e-12)
    assert m.f1 == pytest.approx(f1, abs=1e-12)
    np.testing.assert_array_equal(
        m.confusion, sklearn_metrics.confusion_matrix(y_true, y_pred, labels=np.arange(C))
    )


def test_metrics_validation():
    with pytest.raises(DimensionMismatchError):
        compute_metrics([0, 1], [0], 2)
    with pytest.raises(LabelOutOfRangeError):
        compute_metrics([0, 3], [0, 1], 2)
    with pytest.raises(DataFormatError):
        compute_metrics([], [], 2)


# --- persistence -------------------------------------------------------------------


def test_model_round_trip(tmp_path):
    model = demo_model()
    path = str(tmp_path / "model.json")
    model.save(path)
    back = EcselModel.load(path)
    assert back.to_dict() == model.to_dict()
    x = [1.5, 0.7, 2.0]
    np.testing.assert_allclose(predict_proba(back, x), predict_proba(model, x))


def test_sigmoid_model_round_trip_keeps_threshold(tmp_path):
    model = EcselModel(
        [Signomial([Term(0.4, (1.0, -0.5))])], link="sigmoid", threshold=0.37,
        feature_names=["u", "v"], class_names=["no", "yes"],
    )
    path = str(tmp_path / "model.json")
    model.save(path)
    back = EcselModel.load(path)
    assert back.threshold == pytest.approx(0.37)
    assert back.link == "sigmoid"
    assert back.class_names == ["no", "yes"]


_FLOATS = st.floats(min_value=-50, max_value=50, allow_nan=False, allow_subnormal=False)


@st.composite
def _models(draw):
    m = draw(st.integers(1, 3))
    link = draw(st.sampled_from(["softmax", "sigmoid"]))
    n_scores = 1 if link == "sigmoid" else draw(st.integers(2, 3))
    term = st.tuples(_FLOATS, st.lists(_FLOATS, min_size=m, max_size=m))
    signomials = [Signomial(draw(st.lists(term, min_size=1, max_size=3)), m=m)
                  for _ in range(n_scores)]
    scaler = None
    if draw(st.booleans()):
        X = np.array(draw(st.lists(st.lists(st.floats(0.1, 100), min_size=m, max_size=m),
                                   min_size=2, max_size=5)))
        scaler = data_io.Scaler().fit(X)
    return EcselModel(
        signomials, link=link, threshold=draw(st.floats(0.01, 0.99)), scaler=scaler,
        feature_names=[f"f{j}" for j in range(m)],
    )


@settings(max_examples=60, deadline=None)
@given(model=_models())
def test_save_load_save_is_byte_identical(tmp_path_factory, model):
    directory = tmp_path_factory.mktemp("model")
    first, second = str(directory / "a.json"), str(directory / "b.json")
    model.save(first)
    EcselModel.load(first).save(second)
    assert Path(first).read_bytes() == Path(second).read_bytes()


def test_softmax_serialization_omits_threshold():
    assert "threshold" not in demo_model().to_dict()


def test_load_rejects_wrong_kind(tmp_path):
    path = str(tmp_path / "model.json")
    data_io.save_model({"kind": "mystery"}, path)
    with pytest.raises(CorruptModelError):
        EcselModel.load(path)


def test_from_dict_rejects_garbage():
    with pytest.raises(CorruptModelError):
        EcselModel.from_dict({"kind": "classifier", "link": "softmax"})
    # swapped scaler bounds would invert the scaling
    model = EcselModel([Signomial([(1.0, (1.0, -1.0))]), Signomial([(1.0, (-1.0, 1.0))])],
                       scaler=data_io.Scaler().fit(np.array([[1.0, 2.0], [3.0, 5.0]])))
    payload = model.to_dict()
    payload["scaler"]["mins"], payload["scaler"]["maxs"] = [3.0, 5.0], [1.0, 2.0]
    with pytest.raises(CorruptModelError):
        EcselModel.from_dict(payload)


@pytest.mark.parametrize("key", ["featureNames", "classNames"])
def test_an_empty_name_list_is_corrupt_and_only_an_absent_one_defaults(key):
    model = EcselModel([Signomial([(1.0, (1.0, -1.0))]), Signomial([(1.0, (-1.0, 1.0))])],
                       feature_names=["a", "b"], class_names=["neg", "pos"])
    payload = model.to_dict()
    payload[key] = []
    with pytest.raises(CorruptModelError):
        EcselModel.from_dict(payload)
    del payload[key]
    back = EcselModel.from_dict(payload)
    assert (back.feature_names, back.class_names) == (
        (["x1", "x2"], ["neg", "pos"]) if key == "featureNames" else (["a", "b"], ["0", "1"]))
