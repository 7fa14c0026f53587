import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signolearn import data_io
from signolearn.classifier import (
    ClassifyConfig,
    EcselModel,
    best_f1_threshold,
    class_weights,
    compute_metrics,
    fit,
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
from signolearn.optim import ParamLayout
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
        layout = ParamLayout(
            alpha_shape=(len(model.signomials), 2),
            beta_shape=(len(model.signomials), 2, 3),
        )
        alphas, betas = layout.unpack(
            layout.pack(
                np.array([s.alphas for s in model.signomials]),
                np.array([s.betas for s in model.signomials]),
            )
        )
        theta0 = layout.pack(alphas, betas)

        def loss_at(theta):
            a, b = layout.unpack(theta)
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


def test_loss_rejects_empty_batch_and_bad_labels():
    model = demo_model()
    with pytest.raises(DataFormatError):
        loss_and_grad(model, np.empty((0, 3)), [], l1_penalty=0.0)
    with pytest.raises(LabelOutOfRangeError):
        loss_and_grad(model, [[1.0, 1.0, 1.0]], [5], l1_penalty=0.0)


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


# --- config validation ------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"num_terms": 0},
        {"l1_penalty": -0.1},
        {"batch_size": 0},
        {"epochs": 0},
        {"learning_rate": 0.0},
        {"link": "probit"},
        {"threshold_grid_step": 0.0},
        {"threshold_grid_step": 0.5},
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
    cfg = ClassifyConfig(num_terms=2, epochs=30, learning_rate=1e3, seed=0,
                         clip_norm=None)
    with pytest.raises(NonFiniteLossError) as exc_info:
        fit(train, val, cfg)
    assert exc_info.value.epoch is not None
    assert isinstance(exc_info.value.__cause__, OverflowLimitError)


# --- threshold grid ---------------------------------------------------------------


def test_threshold_grid_example():
    th = best_f1_threshold(np.array([0.2, 0.8]), np.array([0, 1]), 0.001)
    assert th == pytest.approx(0.201, abs=1e-12)


def test_threshold_tie_goes_to_lowest():
    # every threshold separates perfectly, so the first grid point wins
    th = best_f1_threshold(np.array([0.01, 0.99]), np.array([0, 1]), 0.1)
    assert th == pytest.approx(0.1)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(0.001, 0.999), min_size=2, max_size=12),
    st.integers(0, 2**31 - 1),
    st.sampled_from([0.01, 0.05, 0.1]),
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

    grid = [k * step for k in range(1, int(round(1 / step))) if k * step < 1.0]
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


def test_metrics_macro_average():
    m = compute_metrics([0, 0, 1, 1, 2], [0, 1, 1, 1, 2], 3, average="macro")
    assert m.precision == pytest.approx(0.8888888888888888, rel=1e-12)
    assert m.recall == pytest.approx(0.8333333333333334, rel=1e-12)
    assert m.f1 == pytest.approx(0.8222222222222223, rel=1e-12)


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
    with pytest.raises(BadConfigError):
        compute_metrics([0, 1], [0, 1], 2, average="median")


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
