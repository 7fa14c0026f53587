import dataclasses
import json
import math
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signolearn import classifier, explain, signomial
from signolearn.classifier import EcselModel, predict_proba
from signolearn.errors import (
    BadConfigError,
    DataFormatError,
    DimensionMismatchError,
    NonPositiveInputError,
    OverflowLimitError,
    SameClassError,
    SignolearnError,
    ZeroComponentScoreError,
)
from signolearn.data_io import Dataset
from signolearn.explain import (
    attribute_exact_log,
    attribute_gradient,
    build_report,
    compare_scenarios,
    counterfactual_scale,
    default_baseline,
    elasticity,
    margin_sensitivity,
    probability_sensitivity,
    sensitivity_first_order,
)
from signolearn.signomial import Signomial, Term, evaluate


def two_class_demo():
    """Small two-class softmax model used throughout, scores 1.4 / 1.2 at ones."""
    z0 = Signomial(
        [Term(0.8, (-1.2, 0.0, -0.6)), Term(0.6, (0.0, -1.5, -0.4))]
    )
    z1 = Signomial(
        [Term(0.7, (1.6, 0.0, 0.8)), Term(0.5, (0.0, 1.8, 0.4))]
    )
    return EcselModel([z0, z1])


def poly_model():
    """z0 = 2*x1 + x2^2 next to a flat competitor."""
    z0 = Signomial([Term(2.0, (1.0, 0.0)), Term(1.0, (0.0, 2.0))])
    z1 = Signomial([Term(1.0, (0.0, 0.0))])
    return EcselModel([z0, z1])


def random_model(rng, C=3, K=2, m=3, positive=False):
    sigs = []
    for _ in range(C):
        terms = []
        for _ in range(K):
            a = float(rng.uniform(0.2, 2.0))
            if not positive and rng.random() < 0.5:
                a = -a
            beta = tuple(float(b) for b in rng.uniform(-2.0, 2.0, m))
            terms.append(Term(a, beta))
        sigs.append(Signomial(terms))
    return EcselModel(sigs)


def fd_score_log_gradient(model, c, x, j, h=1e-6):
    xp = x.copy()
    xm = x.copy()
    xp[j] *= math.exp(h)
    xm[j] *= math.exp(-h)
    return (model.scores(xp)[c] - model.scores(xm)[c]) / (2 * h)


# --- elasticity and log-gradient ------------------------------------------------


def test_elasticity_hand_example():
    # z = 2*x1 + x2^2 at (2, 3): per-term (4, 9), total 13,
    # G = (4*1, 9*2) = (4, 18), E = G / 13, all by hand
    ev = elasticity(poly_model(), 0, [2.0, 3.0])
    assert ev.score == pytest.approx(13.0, rel=1e-14)
    assert ev.log_gradient == pytest.approx([4.0, 18.0], rel=1e-13)
    assert ev.defined
    assert ev.elasticity == pytest.approx(
        [0.3076923076923077, 1.3846153846153846], rel=1e-13
    )


def test_elasticity_undefined_when_score_not_positive():
    neg = EcselModel(
        [
            Signomial([Term(1.0, (1.0,)), Term(-2.0, (1.0,))]),
            Signomial([Term(1.0, (0.0,))]),
        ]
    )
    ev = elasticity(neg, 0, [1.0])
    assert ev.score == pytest.approx(-1.0)
    assert not ev.defined
    assert ev.elasticity is None
    # the log-gradient stays available: 1*1 + 1*(-2) = -1
    assert ev.log_gradient == pytest.approx([-1.0])


def test_elasticity_zero_score_also_undefined():
    flat = EcselModel(
        [
            Signomial([Term(1.0, (1.0,)), Term(-1.0, (1.0,))]),
            Signomial([Term(1.0, (0.0,))]),
        ]
    )
    assert elasticity(flat, 0, [2.5]).elasticity is None


def test_elasticity_bad_class_index():
    with pytest.raises(BadConfigError):
        elasticity(poly_model(), 5, [1.0, 1.0])
    # a sigmoid model has two classes, though it learns one score
    sig = EcselModel([Signomial([Term(1.0, (1.0,))])], link="sigmoid")
    for call in (lambda: elasticity(sig, 2, [1.0]),
                 lambda: sensitivity_first_order(sig, 2, [1.0], 0, 0.01)):
        with pytest.raises(BadConfigError, match="class index 2 out of range for 2 classes"):
            call()


def test_log_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    checked = 0
    while checked < 25:
        model = random_model(rng)
        x = rng.uniform(0.5, 3.0, model.m)
        c = int(rng.integers(model.C))
        ev = elasticity(model, c, x)
        per_term = np.abs(evaluate(model.signomials[c], x).per_term)
        if abs(ev.score) < 1e-3 * per_term.sum():
            continue  # near-cancellation makes FD meaningless
        for j in range(model.m):
            fd = fd_score_log_gradient(model, c, x, j)
            assert ev.log_gradient[j] == pytest.approx(fd, rel=1e-6, abs=1e-9)
        checked += 1


def test_elasticity_matches_log_log_fd():
    rng = np.random.default_rng(4)
    for _ in range(20):
        model = random_model(rng, positive=True)
        x = rng.uniform(0.5, 3.0, model.m)
        c = int(rng.integers(model.C))
        ev = elasticity(model, c, x)
        h = 1e-6
        for j in range(model.m):
            xp, xm = x.copy(), x.copy()
            xp[j] *= math.exp(h)
            xm[j] *= math.exp(-h)
            fd = (
                math.log(model.scores(xp)[c]) - math.log(model.scores(xm)[c])
            ) / (2 * h)
            assert ev.elasticity[j] == pytest.approx(fd, rel=1e-6, abs=1e-9)


def test_zero_padded_classes_score_like_their_own_signomials():
    # classes of 3, 1 and 2 terms stack with zero-coefficient padding, one of
    # them a literal 0.0 term: no warning, and every score and margin is the
    # per-class evaluate bit for bit
    sigs = [Signomial([Term(1.5, (0.5, -1.0, 0.3)), Term(0.0, (2.0, 0.0, 1.0)),
                       Term(-0.7, (1.0, 1.0, -2.0))]),
            Signomial([Term(0.4, (-1.0, 0.25, 0.5))]),
            Signomial([Term(2.0, (0.0, 1.0, 1.0)), Term(-0.3, (1.5, -0.5, 0.0))])]
    model = EcselModel(sigs)
    X = np.random.default_rng(10).uniform(0.5, 4.0, size=(6, 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = model.scores_batch(X)
        for x, row in zip(X, batch):
            totals = [evaluate(s, x).total for s in sigs]
            assert row.tolist() == model.scores(x).tolist() == totals
            for c in range(len(sigs)):
                report = build_report(model, x, c, "gradient", np.ones(3))
                assert [e["margin"] for e in report["margins"]] == [
                    totals[c] - totals[o] for o in range(len(sigs)) if o != c
                ]


# --- counterfactual scaling -----------------------------------------------------


def test_counterfactual_hand_example():
    # doubling x1 in 0.7*x1^1.6*x3^0.8 + 0.5*x2^1.8*x3^0.4 at all-ones:
    # 0.7*2**1.6 + 0.5 computed by hand
    got = counterfactual_scale(two_class_demo(), 1, [1.0, 1.0, 1.0], 0, 2.0)
    assert got == pytest.approx(2.6220031931145575, rel=1e-14)


def test_counterfactual_identity_scale():
    model = two_class_demo()
    x = [1.3, 0.8, 2.1]
    for c in range(2):
        assert counterfactual_scale(model, c, x, 1, 1.0) == pytest.approx(
            model.scores(x)[c], rel=1e-14
        )


def test_counterfactual_equals_direct_evaluation():
    # the shortcut must agree with literally editing the input and
    # re-evaluating; draws near sign cancellation are skipped because
    # relative error is not meaningful there
    rng = np.random.default_rng(11)
    kept = 0
    for _ in range(1000):
        model = random_model(
            rng, C=2, K=int(rng.integers(1, 5)), m=int(rng.integers(1, 5))
        )
        x = rng.uniform(0.5, 3.0, model.m)
        q = float(rng.uniform(0.25, 4.0))
        j = int(rng.integers(model.m))
        c = int(rng.integers(2))
        x_scaled = x.copy()
        x_scaled[j] *= q
        direct = model.scores(x_scaled)[c]
        gross = np.abs(evaluate(model.signomials[c], x_scaled).per_term).sum()
        if abs(direct) < 1e-6 * gross:
            continue
        got = counterfactual_scale(model, c, x, j, q)
        assert got == pytest.approx(direct, rel=1e-12)
        kept += 1
    assert kept > 900


def test_counterfactual_rejects_bad_scale():
    model = poly_model()
    for q in (0.0, -2.0, float("nan"), float("inf")):
        with pytest.raises(NonPositiveInputError):
            counterfactual_scale(model, 0, [1.0, 1.0], 0, q)


@pytest.mark.parametrize("q", ["2", None, [2.0], 2 + 0j, np.complex128(2.0)],
                         ids=["string", "None", "list", "complex", "numpy complex"])
def test_a_scale_factor_must_be_a_real_number(q):
    # Python would raise its untyped TypeError, or take a complex's real part
    model = two_class_demo()
    x = [1.0, 2.0, 3.0]
    with pytest.raises(DataFormatError, match="scale factor must be a real number"):
        counterfactual_scale(model, 0, x, 0, q)
    with pytest.raises(DataFormatError, match="eps must be a real number"):
        sensitivity_first_order(model, 0, x, 0, q)


def test_numpy_and_integer_scale_factors_are_taken_as_floats():
    model = two_class_demo()
    x = [1.0, 2.0, 3.0]
    for q in (np.float64(2.0), np.float32(2.0), np.int64(2), 2):
        assert bits(counterfactual_scale(model, 1, x, 2, q)) == bits(
            counterfactual_scale(model, 1, x, 2, 2.0))
        assert bits(sensitivity_first_order(model, 1, x, 2, q)) == bits(
            sensitivity_first_order(model, 1, x, 2, 2.0))


def test_counterfactual_bad_feature_index():
    with pytest.raises(BadConfigError):
        counterfactual_scale(poly_model(), 0, [1.0, 1.0], 2, 2.0)
    # the class index is bounded by the model's classes, two for sigmoid
    sig = EcselModel([Signomial([Term(1.0, (1.0,))])], link="sigmoid")
    with pytest.raises(BadConfigError, match="class index 2 out of range for 2 classes"):
        counterfactual_scale(sig, 2, [1.0], 0, 2.0)
    with pytest.raises(BadConfigError, match="class index -1 out of range for 2 classes"):
        counterfactual_scale(sig, -1, [1.0], 0, 2.0)


@pytest.mark.parametrize("link", ["softmax", "sigmoid"])
def test_a_curve_point_is_the_python_float_sum_over_forward_terms(link):
    # sum_k z_k * q**beta_kj in term order on Python floats, over forward's
    # per-term values at x (zero padding terms included), bit for bit
    rng = np.random.default_rng(27)
    sigs = [Signomial([Term(float(rng.uniform(-2.0, 2.0)), tuple(rng.uniform(-2.0, 2.0, 3)))
                       for _ in range(k)]) for k in (3, 2, 1)]
    model = EcselModel(sigs if link == "softmax" else sigs[:1], link=link)
    x = rng.uniform(0.5, 3.0, 3)
    per_term = signomial.forward(model._alphas, model._betas, signomial.log_inputs(x[None]))
    # a sigmoid model's one trained row is class 1's
    first = model.C - len(model.signomials)
    for row, terms in enumerate(per_term[..., 0].tolist()):
        c = first + row
        for j in range(model.m):
            exponents = model._betas[row, :, j].tolist()
            for q in np.geomspace(0.1, 10.0, 41).tolist():
                want = 0.0
                for z, b in zip(terms, exponents):
                    want += z * q**b
                assert bits(counterfactual_scale(model, c, x, j, q)) == bits(want)


@pytest.mark.parametrize("terms, scaled_score", [
    # 2^1100 alone overflows, though 1e-300 * 2^1100 = 1.358e31 scores
    # finitely (to the log domain's precision at ln 2^1100 = 762)
    ([Term(1e-300, (1100.0,))], pytest.approx(1.3582985265193575e31, rel=1e-8)),
    # inf - inf: evaluating the scaled input names the overflowing term
    ([Term(1.0, (1100.0,)), Term(-1.0, (1100.0,))], OverflowLimitError),
])
def test_counterfactual_raises_instead_of_a_non_finite_score(terms, scaled_score):
    model = EcselModel([Signomial(terms)], link="sigmoid")
    if scaled_score is OverflowLimitError:
        with pytest.raises(OverflowLimitError):
            model.scores([2.0])
    else:
        assert model.scores([2.0])[1] == scaled_score
    # the shortcut's q**beta and sum overflow before the check sees them,
    # and the caller gets the typed error with no numpy warning
    with warnings.catch_warnings(), pytest.raises(OverflowLimitError):
        warnings.simplefilter("error")
        counterfactual_scale(model, 1, [1.0], 0, 2.0)
    assert counterfactual_scale(model, 1, [1.0], 0, 1.0) == model.scores([1.0])[1]


def test_counterfactual_takes_numpy_scalars_without_a_warning():
    # a numpy q**beta would overflow to inf with a RuntimeWarning; as a
    # Python float it raises, and the caller sees only the typed error
    model = EcselModel([Signomial([Term(1e-300, (1100.0,))])], link="sigmoid")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for c, j, q in [(1, 0, np.float64(2.0)), (np.int64(1), np.intp(0), 2.0),
                        (np.int32(1), np.int64(0), np.float64(2.0))]:
            with pytest.raises(OverflowLimitError):
                counterfactual_scale(model, c, [1.0], j, q)
        at_one = counterfactual_scale(model, np.int64(1), [1.0], np.int64(0), np.float64(1.0))
    assert type(at_one) is float and at_one == model.scores([1.0])[1]


@pytest.mark.parametrize("log_q", [-0.05, 0.05, 0.1, 0.11])
def test_counterfactual_near_float_range_warns_about_nothing(log_q):
    # a term of e^699 scaled by q^100: finite up to ln q = 0.1078, past which
    # the Python float product reads inf and the call raises
    model = EcselModel([Signomial([(1.0, (100.0,))])], link="sigmoid")
    x, q = [math.exp(6.99)], math.exp(log_q)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if log_q > 0.1078:
            with pytest.raises(OverflowLimitError):
                counterfactual_scale(model, 1, x, 0, q)
        else:
            got = counterfactual_scale(model, 1, x, 0, q)
            assert got == pytest.approx(math.exp(699.0 + 100 * log_q), rel=1e-9)


# --- first-order sensitivity ----------------------------------------------------


def test_sensitivity_first_order_hand_example():
    # z + eps*G_j = 13 + 0.01*18 at (2, 3)
    got = sensitivity_first_order(poly_model(), 0, [2.0, 3.0], 1, 0.01)
    assert got == pytest.approx(13.18, rel=1e-13)


def test_sensitivity_gap_shrinks_quadratically():
    # halving eps by 10 should cut the first-order gap by ~100
    model = EcselModel(
        [
            Signomial([Term(3.0, (0.5, -1.3)), Term(1.0, (2.0, 0.0))]),
            Signomial([Term(1.0, (0.0, 0.0))]),
        ]
    )
    x = np.array([2.0, 3.0])
    for j in range(2):
        gaps = []
        for eps in (1e-2, 1e-3):
            x_new = x.copy()
            x_new[j] *= 1.0 + eps
            true = model.scores(x_new)[0]
            approx = sensitivity_first_order(model, 0, x, j, eps)
            gaps.append(abs(true - approx))
        ratio = gaps[0] / gaps[1]
        assert 80 < ratio < 120


# --- margins ---------------------------------------------------------------------


def test_margin_hand_example():
    # single-term scores 2*x^1.5 and 1*x^0.5 at x=1:
    # margin 2-1=1, gradient 2*1.5 - 1*0.5 = 2.5
    model = EcselModel(
        [Signomial([Term(2.0, (1.5,))]), Signomial([Term(1.0, (0.5,))])]
    )
    ms = margin_sensitivity(model, 0, 1, [1.0])
    assert ms.margin == pytest.approx(1.0)
    assert ms.per_feature == pytest.approx([2.5])


def test_margin_antisymmetric():
    rng = np.random.default_rng(7)
    model = random_model(rng, C=4)
    x = rng.uniform(0.5, 2.0, model.m)
    ab = margin_sensitivity(model, 1, 3, x)
    ba = margin_sensitivity(model, 3, 1, x)
    assert ab.margin == pytest.approx(-ba.margin, rel=1e-13)
    assert ab.per_feature == pytest.approx(-ba.per_feature, rel=1e-13)


def test_margin_same_class_rejected():
    with pytest.raises(SameClassError):
        margin_sensitivity(poly_model(), 1, 1, [1.0, 1.0])


def test_a_sigmoid_margin_is_its_learned_score():
    # class 1 against the constant class 0: the margin is z and its gradient G
    sig = EcselModel([Signomial([Term(1.5, (1.0, -0.5))])], link="sigmoid")
    x = [2.0, 3.0]
    ms = margin_sensitivity(sig, 1, 0, x)
    z, g = sig.scores(x)[1], elasticity(sig, 1, x).log_gradient
    assert ms.margin == z and z == pytest.approx(math.sqrt(3.0), rel=1e-15)
    assert (ms.per_feature == g).all() and ms.per_feature == pytest.approx([z, -0.5 * z])
    back = margin_sensitivity(sig, 0, 1, x)
    assert back.margin == -z and (back.per_feature == -g).all()


def test_sigmoid_class_0_scores_an_exact_zero():
    # class 0 of a sigmoid model has no terms; everything read from its
    # score is an exact 0, and class 1 is the learned score
    model = EcselModel([Signomial([Term(1.5, (1.0, -0.5)), Term(-0.3, (2.0, 1.0))])],
                       link="sigmoid")
    x, b = [2.0, 3.0], [1.0, 1.5]
    assert model.term_counts == [0, 2]
    z = model.scores(x)
    assert z.shape == (2,) and z[0] == 0.0 and z[1] == evaluate(model.signomials[0], x).total
    assert (model.scores_batch([x, b])[:, 0] == 0.0).all()
    ev = elasticity(model, 0, x)
    assert ev.score == 0.0 and (ev.log_gradient == 0.0).all() and ev.elasticity is None
    for j in range(model.m):
        for q in (1e-3, 0.5, 1.0, 7.0, 1e6):
            assert counterfactual_scale(model, 0, x, j, q) == 0.0
        assert sensitivity_first_order(model, 0, x, j, 0.1) == 0.0
    rep = attribute_gradient(model, 0, x, b)
    assert (rep.phi == 0.0).all() and rep.residual == 0.0
    with pytest.raises(BadConfigError, match="0 terms"):
        attribute_exact_log(model, 0, x, b)


# --- probability sensitivity ----------------------------------------------------


def test_probability_sensitivity_hand_example():
    # scores z0 = x - 1 and z1 = 0 at x=1 give p = (1/2, 1/2),
    # G0 = 1, G1 = 0, so D0 = 0.5*(1 - 0.5) = 0.25 and D1 = -0.25
    model = EcselModel(
        [
            Signomial([Term(1.0, (1.0,)), Term(-1.0, (0.0,))]),
            Signomial([Term(0.0, (1.0,))]),
        ]
    )
    assert probability_sensitivity(model, 0, [1.0]) == pytest.approx([0.25])
    assert probability_sensitivity(model, 1, [1.0]) == pytest.approx([-0.25])


def test_probability_rows_sum_to_zero():
    rng = np.random.default_rng(19)
    for _ in range(20):
        model = random_model(rng, C=int(rng.integers(2, 5)))
        x = rng.uniform(0.5, 3.0, model.m)
        total = sum(
            probability_sensitivity(model, c, x) for c in range(model.C)
        )
        assert total == pytest.approx(np.zeros(model.m), abs=1e-12)


def test_probability_sensitivity_sigmoid():
    # z = x^2 at x=1: p = sigmoid(1), derivative p*(1-p)*G with G = 2
    model = EcselModel([Signomial([Term(1.0, (2.0,))])], link="sigmoid")
    d1 = probability_sensitivity(model, 1, [1.0])
    assert d1 == pytest.approx([0.3932238664829637], rel=1e-13)
    d0 = probability_sensitivity(model, 0, [1.0])
    assert d0 == pytest.approx([-0.3932238664829637], rel=1e-13)
    with pytest.raises(BadConfigError):
        probability_sensitivity(model, 2, [1.0])


@pytest.mark.parametrize("z", [30.0, 37.0, 40.0])
def test_sigmoid_class_0_keeps_its_digits_at_large_scores(z):
    # score z x^2 at x = 1, so G = 2z; p0 = e^-z / (1 + e^-z) is far below
    # the spacing of floats near 1, where 1 - p1 reads 0 from z = 37 on
    model = EcselModel([Signomial([Term(z, (2.0,))])], link="sigmoid")
    score = float(model.scores([1.0])[1])
    p0 = math.exp(-score) / (1.0 + math.exp(-score))
    p1 = 1.0 / (1.0 + math.exp(-score))
    p = predict_proba(model, [1.0])
    assert p[0] == pytest.approx(p0, rel=1e-12, abs=0.0)
    assert p[1] == pytest.approx(p1, rel=1e-12, abs=0.0)
    sensitivity = probability_sensitivity(model, 0, [1.0])
    assert sensitivity == pytest.approx([-p0 * p1 * 2.0 * score], rel=1e-12, abs=0.0)


@pytest.mark.parametrize("z", [30.0, 37.0, 40.0])
def test_a_near_certain_class_keeps_its_probability_sensitivity(z):
    # G_c - sum_r p_r G_r cancels once p_c rounds to 1; the sensitivity is
    # still p_c sum_{r != c} p_r (G_c - G_r), far below that rounding
    sigmoid = EcselModel([Signomial([Term(z, (2.0,))])], link="sigmoid")
    p0 = math.exp(-z) / (1.0 + math.exp(-z))
    p1 = 1.0 / (1.0 + math.exp(-z))
    want = {0: -p0 * p1 * 2.0 * z, 1: p1 * p0 * 2.0 * z}
    for c, expected in want.items():
        got = probability_sensitivity(sigmoid, c, [1.0])
        assert got == pytest.approx([expected], rel=1e-12, abs=0.0)

    # class 0 scores z + 1 (G = 2z + 2) against 1 (G = 1) and 0.5 (G = -0.5)
    softmax = EcselModel([
        Signomial([Term(z + 1.0, (2.0,))]),
        Signomial([Term(1.0, (1.0,))]),
        Signomial([Term(0.5, (-1.0,))]),
    ])
    scores, grads = [z + 1.0, 1.0, 0.5], [2.0 * z + 2.0, 1.0, -0.5]
    weights = [math.exp(s - scores[0]) for s in scores]
    p = [w / sum(weights) for w in weights]
    for c in range(3):
        expected = p[c] * sum(p[r] * (grads[c] - grads[r]) for r in range(3) if r != c)
        got = probability_sensitivity(softmax, c, [1.0])
        assert got == pytest.approx([expected], rel=1e-12, abs=0.0)
    assert probability_sensitivity(softmax, 0, [1.0])[0] > 0.0


@pytest.mark.parametrize("link", ["softmax", "sigmoid"])
def test_probability_sensitivity_matches_fd(link):
    rng = np.random.default_rng(23)
    for _ in range(10):
        if link == "sigmoid":
            model = EcselModel(
                [random_model(rng, C=2, m=3).signomials[0]], link="sigmoid"
            )
        else:
            model = random_model(rng, C=3, m=3)
        x = rng.uniform(0.5, 3.0, model.m)
        c = int(rng.integers(model.C))
        grad = probability_sensitivity(model, c, x)
        h = 1e-6
        for j in range(model.m):
            xp, xm = x.copy(), x.copy()
            xp[j] *= math.exp(h)
            xm[j] *= math.exp(-h)
            fd = (predict_proba(model, xp)[c] - predict_proba(model, xm)[c]) / (
                2 * h
            )
            assert grad[j] == pytest.approx(fd, rel=1e-6, abs=1e-9)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="long double is no wider than float64 here")
def test_sensitivities_match_a_long_double_evaluation():
    # central differences carry about 1e-9 of rounding on scores near 16, so
    # they cannot show an analytic error below that; G_cj = sum_k z_ck beta_ckj
    # in long double bounds it at 1e-12 of sum_k |z_ck beta_ckj|
    rng = np.random.default_rng(41)
    for _ in range(500):
        link = "sigmoid" if rng.random() < 0.25 else "softmax"
        rows = 1 if link == "sigmoid" else int(rng.integers(2, 5))
        k, m = (int(v) for v in rng.integers(1, 5, 2))
        alphas = rng.uniform(0.2, 2.0, (rows, k)) * rng.choice([-1.0, 1.0], (rows, k))
        betas = rng.uniform(-2.0, 2.0, (rows, k, m))
        model = EcselModel([Signomial.from_arrays(a, b) for a, b in zip(alphas, betas)],
                           link=link)
        x = rng.uniform(0.5, 3.0, m)
        wide_betas = betas.astype(np.longdouble)
        log_terms = np.log(np.abs(alphas).astype(np.longdouble)) + wide_betas @ np.log(
            x.astype(np.longdouble))
        terms = np.sign(alphas) * np.exp(log_terms)  # z_ck
        g = (terms[..., None] * wide_betas).sum(axis=1)
        gross = np.abs(terms[..., None] * wide_betas).sum(axis=1)
        scores = terms.sum(axis=1)
        if link == "sigmoid":  # class 0 scores the constant 0, so G_0 = 0
            scores = np.concatenate([np.zeros(1, np.longdouble), scores])
            g, gross = (np.concatenate([np.zeros_like(v), v]) for v in (g, gross))
        for c in range(model.C):
            got = elasticity(model, c, x).log_gradient
            assert (np.abs(got - g[c]) <= 1e-12 * gross[c]).all()
            for r in range(c + 1, model.C):
                got = margin_sensitivity(model, c, r, x).per_feature
                assert (np.abs(got - (g[c] - g[r])) <= 1e-12 * (gross[c] + gross[r])).all()
        p = np.exp(scores - scores.max())
        p /= p.sum()
        for c in range(model.C):
            want = p[c] * (p @ (g[c] - g))
            got = probability_sensitivity(model, c, x)
            assert (np.abs(got - want) <= 1e-12 * gross.sum(axis=0)).all()


# --- exact log-space attribution -------------------------------------------------


def test_exact_log_hand_example():
    # 2*x^3 from baseline 1 to e: phi = 3*ln(e) = 3 and the component
    # log-value is ln(2) + 3 = 3.6931471805599454, residual ~ 0
    model = EcselModel(
        [Signomial([Term(2.0, (3.0,))]), Signomial([Term(1.0, (0.0,))])]
    )
    rep = attribute_exact_log(model, 0, [math.e], [1.0])
    assert rep.phi == pytest.approx([3.0], rel=1e-14)
    assert abs(rep.residual) < 1e-10
    assert rep.sign == 1.0
    assert rep.term_idx == 0
    z = model.scores([math.e])[0]
    assert math.log(z) == pytest.approx(3.6931471805599454, rel=1e-14)


def test_exact_log_residual_vanishes():
    rng = np.random.default_rng(31)
    for _ in range(100):
        model = random_model(rng, C=2, K=3, m=4)
        x = rng.uniform(0.3, 4.0, 4)
        b = rng.uniform(0.3, 4.0, 4)
        k = int(rng.integers(3))
        rep = attribute_exact_log(model, 0, x, b, term_idx=k)
        assert abs(rep.residual) < 1e-10


def test_exact_log_negative_component():
    model = EcselModel(
        [Signomial([Term(-1.5, (2.0,))]), Signomial([Term(1.0, (0.0,))])]
    )
    rep = attribute_exact_log(model, 0, [2.0], [1.0])
    assert rep.sign == -1.0
    assert rep.phi == pytest.approx([2.0 * math.log(2.0)], rel=1e-13)
    assert abs(rep.residual) < 1e-10


def test_exact_log_multiterm_requires_term_choice():
    model = two_class_demo()
    with pytest.raises(BadConfigError) as exc:
        attribute_exact_log(model, 0, [1.0, 1.0, 1.0], [2.0, 2.0, 2.0])
    assert "gradient" in str(exc.value)
    rep = attribute_exact_log(
        model, 0, [1.0, 1.0, 1.0], [2.0, 2.0, 2.0], term_idx=1
    )
    assert abs(rep.residual) < 1e-10


def test_exact_log_single_term_covers_whole_score():
    model = EcselModel(
        [Signomial([Term(0.5, (1.0, -2.0))]), Signomial([Term(1.0, (0.0, 0.0))])]
    )
    x, b = [3.0, 0.5], [1.0, 1.0]
    rep = attribute_exact_log(model, 0, x, b)
    total = math.log(model.scores(x)[0]) - math.log(model.scores(b)[0])
    assert rep.phi.sum() == pytest.approx(total, rel=1e-12)


def test_exact_log_zero_component_rejected():
    model = EcselModel(
        [Signomial([Term(0.0, (1.0,))]), Signomial([Term(1.0, (0.0,))])]
    )
    with pytest.raises(ZeroComponentScoreError):
        attribute_exact_log(model, 0, [2.0], [1.0])


def test_exact_log_bad_term_index():
    with pytest.raises(BadConfigError):
        attribute_exact_log(poly_model(), 0, [1.0, 1.0], [2.0, 2.0], term_idx=7)


def test_exact_log_term_index_bounded_by_the_class_own_terms():
    # the stacked kernel pads class 1 to two terms; its padding term is not
    # a term of the model, so index 1 is out of range there
    model = EcselModel(
        [
            Signomial([Term(1.0, (1.0,)), Term(2.0, (0.5,))]),
            Signomial([Term(3.0, (2.0,))]),
        ]
    )
    assert attribute_exact_log(model, 1, [2.0], [1.0]).term_idx == 0
    with pytest.raises(BadConfigError):
        attribute_exact_log(model, 1, [2.0], [1.0], term_idx=1)
    assert attribute_exact_log(model, 0, [2.0], [1.0], term_idx=1).term_idx == 1


# --- gradient attribution ---------------------------------------------------------


def test_gradient_attribution_exact_for_k1_formula():
    # for a single-term score the gradient at x* is z(x*)*beta, so
    # phi_j = z(x*) * beta_j * (ln x_j - ln x*_j) exactly
    model = EcselModel(
        [Signomial([Term(2.0, (1.5, -0.5))]), Signomial([Term(1.0, (0.0, 0.0))])]
    )
    x_star = np.array([1.5, 2.0])
    x = np.array([1.8, 1.7])
    rep = attribute_gradient(model, 0, x, x_star)
    z_star = model.scores(x_star)[0]
    expect = z_star * np.array([1.5, -0.5]) * np.log(x / x_star)
    assert rep.phi == pytest.approx(expect, rel=1e-12)
    true_change = model.scores(x)[0] - z_star
    assert rep.residual == pytest.approx(true_change - expect.sum(), abs=1e-12)


def test_gradient_attribution_small_displacement():
    model = EcselModel(
        [
            Signomial([Term(2.0, (1.5, -0.5)), Term(1.0, (0.0, 2.0))]),
            Signomial([Term(1.0, (0.0, 0.0))]),
        ]
    )
    x_star = np.array([1.5, 2.0])
    x = x_star * math.exp(1e-4)
    rep = attribute_gradient(model, 0, x, x_star)
    assert abs(rep.residual) / abs(rep.phi.sum()) < 1e-3


def test_gradient_attribution_probability_mode():
    model = two_class_demo()
    x_star = np.array([1.2, 0.9, 1.4])
    x = x_star * math.exp(1e-4)
    rep = attribute_gradient(model, 1, x, x_star, target="probability")
    assert rep.target == "probability"
    true_change = predict_proba(model, x)[1] - predict_proba(model, x_star)[1]
    assert rep.phi.sum() + rep.residual == pytest.approx(true_change, rel=1e-12)
    assert abs(rep.residual) / abs(rep.phi.sum()) < 1e-3


def test_gradient_attribution_sigmoid_probability():
    model = EcselModel([Signomial([Term(1.0, (2.0,))])], link="sigmoid")
    rep = attribute_gradient(
        model, 1, [1.0001], [1.0], target="probability"
    )
    assert abs(rep.residual) / abs(rep.phi.sum()) < 1e-3


def test_gradient_attribution_bad_target():
    with pytest.raises(BadConfigError):
        attribute_gradient(poly_model(), 0, [1.0, 1.0], [2.0, 2.0], target="odds")


# --- faithfulness of scaling attributions ----------------------------------------


def test_counterfactual_ranking_tracks_exponent_magnitude():
    # for single-term scores, scaling the feature with the larger |beta|
    # must move the score more (log-scale change is |beta*ln r|)
    rng = np.random.default_rng(101)
    models = 0
    while models < 100:
        beta = rng.uniform(-3.0, 3.0, 3)
        mags = np.sort(np.abs(beta))
        if np.any(np.diff(mags) < 0.05):
            continue  # need clearly distinct magnitudes for a strict ranking
        alpha = float(rng.uniform(0.2, 3.0)) * float(rng.choice([-1.0, 1.0]))
        model = EcselModel(
            [
                Signomial([Term(alpha, tuple(beta))]),
                Signomial([Term(1.0, (0.0, 0.0, 0.0))]),
            ]
        )
        x = rng.uniform(0.5, 4.0, 3)
        base = abs(model.scores(x)[0])
        for r in (0.5, 2.0, 10.0):
            deltas = [
                abs(
                    math.log(abs(counterfactual_scale(model, 0, x, j, r)))
                    - math.log(base)
                )
                for j in range(3)
            ]
            for k in range(3):
                for l in range(3):
                    if abs(beta[k]) > abs(beta[l]):
                        assert deltas[k] > deltas[l]
        models += 1


# --- baselines ---------------------------------------------------------------------


def make_dataset(X):
    X = np.asarray(X, dtype=float)
    y = np.zeros(len(X), dtype=int)
    names = [f"x{j + 1}" for j in range(X.shape[1])]
    return Dataset(X=X, y=y, feature_names=names, class_names=None)


def test_default_baseline_geometric_mean():
    data = make_dataset([[1.0, 8.0], [4.0, 2.0]])
    b = default_baseline(data, "geometric-mean")
    assert b == pytest.approx([2.0, 4.0], rel=1e-14)


def test_default_baseline_all_ones_and_sample():
    data = make_dataset([[1.0, 8.0], [4.0, 2.0]])
    assert default_baseline(data, "all-ones") == pytest.approx([1.0, 1.0])
    assert default_baseline(data, "sample", row=1) == pytest.approx([4.0, 2.0])
    with pytest.raises(BadConfigError):
        default_baseline(data, "sample", row=5)


def test_default_baseline_validation():
    with pytest.raises(DataFormatError):
        default_baseline(make_dataset(np.empty((0, 2))), "all-ones")
    with pytest.raises(NonPositiveInputError):
        default_baseline(make_dataset([[1.0, -3.0]]), "geometric-mean")
    with pytest.raises(BadConfigError):
        default_baseline(make_dataset([[1.0, 2.0]]), "median")


# --- report assembly ----------------------------------------------------------------


def test_build_report_schema_and_ordering():
    model = two_class_demo()
    x = [2.0, 1.5, 0.8]
    report = build_report(
        model, x, class_idx=1, mode="exact-log", baseline=[1.0, 1.0, 1.0], term_idx=0
    )
    assert set(report) == {
        "input",
        "baseline",
        "class",
        "mode",
        "phi",
        "residual",
        "elasticities",
        "logGradients",
        "margins",
    }
    assert report["class"] == 1
    assert report["mode"] == "exact-log"
    assert report["input"] == {"x1": 2.0, "x2": 1.5, "x3": 0.8}
    # entries are sorted by |value| descending and carry original indexes
    vals = [abs(entry["value"]) for entry in report["phi"].values()]
    assert vals == sorted(vals, reverse=True)
    assert {entry["index"] for entry in report["phi"].values()} == {0, 1, 2}
    assert report["phi"]["x1"]["index"] == 0
    assert abs(report["residual"]) < 1e-10
    assert report["elasticities"] is not None
    assert len(report["margins"]) == 1
    assert report["margins"][0]["against"] == 0
    assert "perFeature" in report["margins"][0]


def test_build_report_gradient_mode_and_sigmoid():
    model = EcselModel([Signomial([Term(1.0, (2.0,))])], link="sigmoid")
    report = build_report(
        model, [1.5], class_idx=1, mode="gradient", baseline=[1.0]
    )
    assert report["mode"] == "gradient"
    # class 1 against the constant class 0: the margin is z = 1.5^2, G = 2z
    assert report["margins"] == [
        {"against": 0, "margin": 2.25, "perFeature": {"x1": {"value": 4.5, "index": 0}}}
    ]
    with pytest.raises(BadConfigError):
        build_report(model, [1.5], 1, "shapley", [1.0])


def test_build_report_refuses_options_its_mode_ignores():
    model, x, b = two_class_demo(), np.full(3, 2.0), np.ones(3)
    with pytest.raises(BadConfigError, match="exact-log"):
        build_report(model, x, 0, "gradient", b, term_idx=0)
    with pytest.raises(BadConfigError, match="gradient mode"):
        build_report(model, x, 0, "exact-log", b, term_idx=0, target="probability")
    build_report(model, x, 0, "exact-log", b, term_idx=0, target="score")
    build_report(model, x, 0, "gradient", b, target="probability")


def test_build_report_undefined_elasticities():
    model = EcselModel(
        [
            Signomial([Term(-1.0, (1.0,))]),
            Signomial([Term(1.0, (0.0,))]),
        ]
    )
    report = build_report(model, [2.0], 0, "exact-log", [1.0])
    assert report["elasticities"] is None
    assert report["logGradients"]["x1"]["value"] == pytest.approx(-2.0)


def test_ranked_map_takes_arrays_and_lists_alike():
    names = ["a", "b", "c", "d"]
    values = [0.5, -2.0, 0.5, 2.0]
    from_list = explain._ranked_map(names, values)
    assert explain._ranked_map(names, np.array(values)) == from_list
    # |value| descending; the tied pairs keep their index order
    assert list(from_list) == ["b", "d", "a", "c"]
    assert [e["index"] for e in from_list.values()] == [1, 3, 0, 2]
    assert all(type(e["value"]) is float for e in from_list.values())
    assert all(type(e["value"]) is float
               for e in explain._ranked_map(names[:2], [3, -1]).values())


@pytest.mark.parametrize("mode, kw", [("gradient", {}), ("gradient", {"target": "probability"}),
                                      ("exact-log", {"term_idx": 0})])
def test_report_entries_are_python_floats_and_plain_json(mode, kw):
    model = two_class_demo()
    report = build_report(model, np.array([2.0, 1.5, 0.8]), 1, mode, [1.0, 1.0, 1.0], **kw)
    assert report["input"] == {"x1": 2.0, "x2": 1.5, "x3": 0.8}
    assert report["baseline"] == {"x1": 1.0, "x2": 1.0, "x3": 1.0}
    maps = [report["phi"], report["elasticities"], report["logGradients"]]
    maps += [m["perFeature"] for m in report["margins"]]
    for entry in (e for ranked in maps for e in ranked.values()):
        assert type(entry["value"]) is float
    for v in [*report["input"].values(), *report["baseline"].values()]:
        assert type(v) is float
    assert json.loads(json.dumps(report, allow_nan=False)) == report


def test_compare_scenarios():
    model = two_class_demo()
    out = compare_scenarios(
        model, [("base", [1.0, 1.0, 1.0]), ("shifted", [2.0, 1.0, 1.0])]
    )
    rows = out["scenarios"]
    assert [r["name"] for r in rows] == ["base", "shifted"]
    assert rows[0]["scores"] == pytest.approx([1.4, 1.2])
    assert rows[0]["predicted"] == 0
    probs = rows[1]["probabilities"]
    assert sum(probs) == pytest.approx(1.0)
    with pytest.raises(DataFormatError):
        compare_scenarios(model, [])


def test_compare_scenarios_sigmoid_threshold():
    model = EcselModel(
        [Signomial([Term(1.0, (2.0,))])], link="sigmoid", threshold=0.7
    )
    out = compare_scenarios(model, [("a", [1.0])])
    row = out["scenarios"][0]
    assert row["threshold"] == 0.7
    # p1 = sigmoid(1) ~ 0.731 >= 0.7
    assert row["predicted"] == 1


# --- agreement with the kernel -------------------------------------------------------


@st.composite
def models_and_inputs(draw):
    """A softmax or sigmoid model whose scores may differ in term count, so
    the stacked kernel pads, plus an input that may have the wrong shape, a
    non-positive entry, or (with exponents up to 400) overflow some class."""
    link = draw(st.sampled_from(["softmax", "sigmoid"]))
    m = draw(st.integers(1, 3))
    exp_range = draw(st.sampled_from([2.0, 400.0]))
    finite = dict(allow_nan=False, allow_infinity=False)
    sigs = [
        Signomial(
            [
                Term(
                    draw(st.floats(-3, 3, **finite)),
                    tuple(draw(st.floats(-exp_range, exp_range, **finite)) for _ in range(m)),
                )
                for _ in range(draw(st.integers(1, 3)))
            ],
            m=m,
        )
        for _ in range(1 if link == "sigmoid" else draw(st.integers(2, 4)))
    ]
    model = EcselModel(sigs, link=link)
    x = [draw(st.floats(1.0, 10.0)) for _ in range(m)]
    flaw = draw(st.sampled_from([None, "shape", "value"]))
    if flaw == "shape":
        x.append(1.0)
    elif flaw == "value":
        x[draw(st.integers(0, m - 1))] = draw(st.sampled_from([0.0, -1.0, math.nan, math.inf]))
    return model, np.array(x), draw(st.integers(0, model.C - 1))


def outcome(fn):
    """fn's result, or the type of the SignolearnError it raised."""
    try:
        return fn()
    except SignolearnError as exc:
        return type(exc)


def bits(obj):
    """obj with every float and array replaced by its bytes, so that == on
    two results compares them bit for bit."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return type(obj), bits(vars(obj))
    if isinstance(obj, dict):
        return tuple((k, bits(v)) for k, v in obj.items())
    if isinstance(obj, (list, tuple)):
        return tuple(bits(v) for v in obj)
    if isinstance(obj, np.ndarray):
        return obj.shape, obj.dtype.str, obj.tobytes()
    if isinstance(obj, float):
        return np.float64(obj).tobytes()
    return obj


# every explain entry that takes a class, feature, term or row index, as a
# function of the model, the input and that index; index 1 is valid in each
INDEX_ENTRIES = {
    "elasticity": lambda m, x, i: elasticity(m, i, x),
    "counterfactual class": lambda m, x, i: counterfactual_scale(m, i, x, 0, 2.0),
    "counterfactual feature": lambda m, x, i: counterfactual_scale(m, 0, x, i, 2.0),
    "first-order class": lambda m, x, i: sensitivity_first_order(m, i, x, 0, 0.01),
    "first-order feature": lambda m, x, i: sensitivity_first_order(m, 0, x, i, 0.01),
    "margin class": lambda m, x, i: margin_sensitivity(m, i, 0, x),
    "margin other": lambda m, x, i: margin_sensitivity(m, 0, i, x),
    "probability": lambda m, x, i: probability_sensitivity(m, i, x),
    "exact-log class": lambda m, x, i: attribute_exact_log(m, i, x, np.ones(3), 0),
    "exact-log term": lambda m, x, i: attribute_exact_log(m, 0, x, np.ones(3), i),
    "gradient": lambda m, x, i: attribute_gradient(m, i, x, np.ones(3)),
    "gradient-p": lambda m, x, i: attribute_gradient(m, i, x, np.ones(3), "probability"),
    "report class": lambda m, x, i: build_report(m, x, i, "gradient", np.ones(3)),
    "report term": lambda m, x, i: build_report(m, x, 0, "exact-log", np.ones(3), i),
    "baseline row": lambda m, x, i: default_baseline(make_dataset([x, 2 * x]), "sample", i),
}


@pytest.mark.parametrize("entry", INDEX_ENTRIES)
def test_an_index_must_be_an_integer(entry):
    model, x = two_class_demo(), np.array([1.3, 0.8, 2.1])

    def call(i):
        return INDEX_ENTRIES[entry](model, x, i)

    want = bits(call(1))
    for i in (np.int64(1), np.intp(1), np.int32(1), np.uint8(1)):
        assert bits(call(i)) == want
    # a float or a bool would reach numpy or Python indexing and raise its
    # untyped IndexError or TypeError
    for bad in (1.0, np.float64(1.0), 1.5, True, np.bool_(True), "1"):
        with pytest.raises(BadConfigError, match="index must be an integer"):
            call(bad)


def explanation_calls(model, x, c):
    ones = np.ones(model.m)
    calls = {
        "elasticity": lambda: elasticity(model, c, x),
        "counterfactual": lambda: counterfactual_scale(model, c, x, 0, 2.0),
        "first-order": lambda: sensitivity_first_order(model, c, x, 0, 0.01),
        "probability": lambda: probability_sensitivity(model, c, x),
        "gradient": lambda: attribute_gradient(model, c, x, ones),
        "gradient-p": lambda: attribute_gradient(model, c, x, ones, "probability"),
        "report": lambda: build_report(model, x, c, "gradient", ones),
        "scenarios": lambda: compare_scenarios(model, [("ones", ones), ("x", x)]),
        "margin": lambda: margin_sensitivity(model, c, (c + 1) % model.C, x),
    }
    if model.term_counts[c]:  # a sigmoid model's class 0 has no term to attribute
        calls["exact-log"] = lambda: attribute_exact_log(model, c, x, ones, term_idx=0)
    return calls


@settings(max_examples=200, deadline=None)
@given(models_and_inputs())
def test_explanations_agree_with_the_kernel_or_raise_alike(case):
    model, x, c = case
    ones = np.ones(model.m)
    calls = explanation_calls(model, x, c)
    scores = outcome(lambda: model.scores(x))
    # every call after scores reads x warm; each equals, bit for bit, the
    # same call on a model that has read nothing yet, or raises alike
    warm = {name: outcome(fn) for name, fn in calls.items()}
    for name, result in warm.items():
        cold = EcselModel(list(model.signomials), link=model.link)
        assert bits(result) == bits(outcome(explanation_calls(cold, x, c)[name])), name
    if isinstance(scores, type):
        assert warm == dict.fromkeys(calls, scores)
        return
    assert elasticity(model, c, x).score == pytest.approx(scores[c], rel=1e-12, abs=0.0)
    for entry in build_report(model, x, c, "gradient", ones)["margins"]:
        margin = scores[c] - scores[entry["against"]]
        assert entry["margin"] == pytest.approx(margin, rel=1e-12, abs=0.0)
    rep = attribute_gradient(model, c, x, ones, "probability")
    change = predict_proba(model, x)[c] - predict_proba(model, ones)[c]
    total = float(rep.phi.sum())
    assert total + rep.residual == pytest.approx(change, rel=0.0, abs=1e-12 * (1 + abs(total)))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["softmax", "sigmoid"]), st.integers(1, 3), st.integers(1, 3),
       st.integers(0, 2**32 - 1))
def test_both_links_take_the_class_indices_0_to_C(link, k, m, seed):
    # every entry that takes a class accepts [0, C) for both links and
    # refuses C; the scores of one row and of a batch agree
    rng = np.random.default_rng(seed)
    rows = 1 if link == "sigmoid" else int(rng.integers(2, 5))
    model = EcselModel([Signomial.from_arrays(rng.uniform(-2.0, 2.0, k),
                                              rng.uniform(-2.0, 2.0, (k, m)))
                        for _ in range(rows)], link=link)
    X = rng.uniform(0.5, 3.0, (3, m))
    x, ones = X[0], np.ones(m)
    batch = model.scores_batch(X)
    assert batch.shape == (3, model.C)
    # to rounding: a batch's matmul may sum ln x in another order
    for row, want in zip(X, batch):
        assert model.scores(row) == pytest.approx(want, rel=1e-12, abs=1e-9)
    scenario = compare_scenarios(model, [("x", x)])["scenarios"][0]
    assert scenario["scores"] == pytest.approx(batch[0], rel=1e-12, abs=1e-9)
    entries = {
        "score": lambda c: model.scores(x)[c],
        "batch score": lambda c: batch[:, c],
        "elasticity": lambda c: elasticity(model, c, x),
        "counterfactual": lambda c: counterfactual_scale(model, c, x, 0, 2.0),
        "first-order": lambda c: sensitivity_first_order(model, c, x, 0, 0.01),
        "margin": lambda c: margin_sensitivity(model, c, (c + 1) % model.C, x),
        "margin other": lambda c: margin_sensitivity(model, (c + 1) % model.C, c, x),
        "probability": lambda c: probability_sensitivity(model, c, x),
        "exact-log": lambda c: attribute_exact_log(model, c, x, ones, term_idx=0),
        "gradient": lambda c: attribute_gradient(model, c, x, ones),
        "gradient-p": lambda c: attribute_gradient(model, c, x, ones, "probability"),
        "report": lambda c: build_report(model, x, c, "gradient", ones),
    }
    for name, call in entries.items():
        for c in range(model.C):
            if name == "exact-log" and not model.term_counts[c]:
                continue  # a class without terms has no term 0 to attribute
            call(c)
        if name not in ("score", "batch score"):
            with pytest.raises(BadConfigError, match=f"class index {model.C} out of range"):
                call(model.C)
    for c in range(model.C):
        assert elasticity(model, c, x).score == model.scores(x)[c]
        assert counterfactual_scale(model, c, x, 0, 1.0) == pytest.approx(
            model.scores(x)[c], rel=1e-12, abs=1e-9)


@settings(max_examples=200, deadline=None)
@given(models_and_inputs())
def test_every_decision_path_picks_the_same_class(case):
    # predict, a one-row predict_batch and compare_scenarios share one
    # decision rule: the threshold for sigmoid, the first argmax for softmax
    model, x, _ = case
    single = outcome(lambda: classifier.predict(model, x))
    batch = outcome(lambda: classifier.predict_batch(model, x[None, :]))
    scenario = outcome(lambda: compare_scenarios(model, [("x", x)]))
    if isinstance(single, type):
        assert batch is single and scenario is single
        return
    assert batch.tolist() == [single]
    assert scenario["scenarios"][0]["predicted"] == single


def test_each_explanation_runs_the_kernel_once_per_input(monkeypatch):
    calls = []
    real = signomial.forward

    def counting(*args):
        calls.append(args)
        return real(*args)

    for module in (signomial, classifier, explain):
        monkeypatch.setattr(module, "forward", counting, raising=False)
    rng = np.random.default_rng(5)
    x, b = rng.uniform(0.5, 3.0, 3), rng.uniform(0.5, 3.0, 3)

    def fresh():
        # the model keeps the per-term values of the last input it read, so
        # each case gets a model of its own and starts cold
        return random_model(np.random.default_rng(6), C=3, K=2, m=3)

    cases = [
        (1, lambda model: elasticity(model, 1, x)),
        (1, lambda model: counterfactual_scale(model, 1, x, 0, 2.0)),
        (1, lambda model: sensitivity_first_order(model, 1, x, 2, 0.01)),
        (1, lambda model: margin_sensitivity(model, 0, 2, x)),
        (1, lambda model: probability_sensitivity(model, 2, x)),
        (2, lambda model: attribute_exact_log(model, 0, x, b, term_idx=1)),
        (2, lambda model: attribute_gradient(model, 0, x, b)),
        (2, lambda model: attribute_gradient(model, 0, x, b, target="probability")),
        (2, lambda model: compare_scenarios(model, [("x", x), ("b", b)])),
        (2, lambda model: build_report(model, x, 1, "gradient", b)),
        (2, lambda model: build_report(model, x, 1, "gradient", b, target="probability")),
        (2, lambda model: build_report(model, x, 1, "exact-log", b, term_idx=0)),
    ]
    for limit, fn in cases:
        model = fresh()
        calls.clear()
        fn(model)
        assert 1 <= len(calls) <= limit

    # a one-row read of the row the model read last runs no kernel at all
    model = fresh()
    elasticity(model, 1, x)
    calls.clear()
    for _, fn in cases[:5]:
        fn(model)
    assert calls == []

    # what an explained row costs: predict reads x and the report reads only
    # the baseline; the 41-point curve runs no kernel at all
    model = fresh()
    calls.clear()
    c = classifier.predict(model, x)
    build_report(model, x, c, "gradient", b)
    assert len(calls) == 2
    for q in np.geomspace(0.1, 10.0, 41):
        counterfactual_scale(model, c, x, 0, float(q))
    assert len(calls) == 2


def test_the_model_keeps_only_the_last_good_row():
    def cold(fn):
        return bits(fn(two_class_demo()))

    model = two_class_demo()
    good = np.array([1.5, 0.7, 2.0])
    want = cold(lambda m: elasticity(m, 1, good))
    assert bits(elasticity(model, 1, good)) == want

    # a raising row is never kept: it raises every time, and the good row
    # still reads as on a fresh model afterwards
    bad_rows = [
        (np.array([1.0, math.nan, 1.0]), NonPositiveInputError),
        (np.array([1.0, 0.0, 1.0]), NonPositiveInputError),
        (np.ones(4), DimensionMismatchError),
        (np.array([1e300, 1.0, 1.0]), OverflowLimitError),  # 1.6 * ln 1e300 > 700
        (["a", 1.0, 1.0], DataFormatError),
    ]
    for row, error in bad_rows:
        fresh = two_class_demo()
        for _ in range(2):
            with pytest.raises(error):
                elasticity(model, 1, row)
            with pytest.raises(error):
                counterfactual_scale(model, 1, row, 0, 2.0)
            with pytest.raises(error):
                counterfactual_scale(fresh, 1, row, 0, 2.0)
        # a raising row leaves no record behind
        assert fresh._last_row is None
        assert model._last_row[0] == good.tobytes()
        assert bits(elasticity(model, 1, good)) == want

    # the key is the row's value, not the caller's array
    x = good.copy()
    before = model.scores(x)
    point = counterfactual_scale(model, 1, x, 0, 2.0)
    x[0] = 3.0
    assert bits(model.scores(x)) == cold(lambda m: m.scores(x))
    assert not np.array_equal(model.scores(x), before)
    x[2] = 0.5
    got = counterfactual_scale(model, 1, x, 0, 2.0)
    assert bits(got) == cold(lambda m: counterfactual_scale(m, 1, x, 0, 2.0))
    assert got != point

    with pytest.raises(ValueError):
        model._row(x).terms[0, 0] = 1.0

    # threads explaining different rows on one model read their own rows
    rows = np.random.default_rng(8).uniform(0.5, 3.0, (4, 3))
    grid = np.geomspace(0.1, 10.0, 41)

    def explain_row(m, x):
        return bits((
            build_report(m, x, 0, "gradient", np.ones(3)),
            [counterfactual_scale(m, 0, x, 1, float(q)) for q in grid],
        ))

    wants = [explain_row(two_class_demo(), x) for x in rows]
    shared, passes = two_class_demo(), 300
    got = [[] for _ in rows]
    start = threading.Barrier(len(rows), timeout=30)

    def serve(i):
        start.wait()
        for _ in range(passes):
            got[i].append(explain_row(shared, rows[i]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=serve, args=(i,)) for i in range(len(rows))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    # a memo that kept its key and values in two attributes failed this in
    # five of six runs, since a thread switch may fall between the two
    assert got == [[want] * passes for want in wants]


def counting_kernel_passes(monkeypatch):
    """A list that gets one entry per kernel pass, from a wrapper on the
    beta . ln x matmul that forward and monomials share."""
    passes = []
    real = signomial._mono_log

    def counting(betas, log_x):
        passes.append(log_x.shape[-2])
        return real(betas, log_x)

    monkeypatch.setattr(signomial, "_mono_log", counting)
    return passes


@pytest.mark.parametrize("target", ["score", "probability"])
def test_rows_explained_against_one_baseline_cost_one_pass_each_and_one_more(
    monkeypatch, target
):
    # predict, a gradient report and a 41-point curve per row, as
    # `explain --counterfactual` and the serving benchmark run them
    passes = counting_kernel_passes(monkeypatch)
    model = random_model(np.random.default_rng(12), C=3, K=3, m=4)
    rng = np.random.default_rng(13)
    rows, baseline = rng.uniform(0.5, 3.0, (25, 4)), rng.uniform(0.5, 3.0, 4)
    for x in rows:
        c = classifier.predict(model, x)
        build_report(model, x, c, "gradient", baseline, target=target)
        for q in np.geomspace(0.1, 10.0, 41):
            counterfactual_scale(model, c, x, 1, float(q))
    assert passes == [1] * (len(rows) + 1)


@pytest.mark.parametrize("link", ["softmax", "sigmoid"])
def test_a_gradient_residual_is_the_score_change_minus_the_contributions(link):
    # bit for bit, with both scores read through model.scores: the report's
    # attribution and its margins read one evaluation of each input
    rng = np.random.default_rng(14)
    model = random_model(rng, C=3, K=2, m=3)
    if link == "sigmoid":
        model = EcselModel([model.signomials[0]], link="sigmoid")
    baseline = rng.uniform(0.5, 3.0, 3)
    for x in rng.uniform(0.5, 3.0, (20, 3)):
        c = classifier.predict(model, x) if link == "softmax" else 0
        report = build_report(model, x, c, "gradient", baseline)
        phi = np.empty(3)
        for entry in report["phi"].values():
            phi[entry["index"]] = entry["value"]
        zx, zb = model.scores(x), model.scores(baseline)
        assert report["residual"] == float(zx[c] - zb[c]) - float(phi.sum())


def test_the_row_and_reference_records_do_not_evict_each_other(monkeypatch):
    passes = counting_kernel_passes(monkeypatch)
    model = two_class_demo()
    x, y, b = np.array([1.5, 0.7, 2.0]), np.array([0.6, 1.1, 1.3]), np.ones(3)
    attribute_gradient(model, 1, x, b)
    assert len(passes) == 2
    for row in (y, x, y):
        classifier.predict(model, row)  # replaces the row's record only
        attribute_gradient(model, 1, row, b)
        attribute_exact_log(model, 1, row, b, term_idx=0)
    assert len(passes) == 5
    assert model._last_row.key == y.tobytes()
    assert model._last_reference.key == b.tobytes()
    # a baseline read as a row, and a row read as a baseline, each take a
    # slot of their own
    elasticity(model, 1, b)
    attribute_gradient(model, 1, b, x)
    assert len(passes) == 7
    assert model._last_row.key == b.tobytes()
    assert model._last_reference.key == x.tobytes()


def test_records_are_read_only_and_public_returns_fresh():
    model = two_class_demo()
    x, b = np.array([1.5, 0.7, 2.0]), np.ones(3)
    attribute_gradient(model, 1, x, b)
    for record in (model._last_row, model._last_reference):
        for values in (record.terms, record.scores, record.log_gradients):
            with pytest.raises(ValueError):
                values[...] = 0.0
    want = model.scores(x).tobytes()
    returned = [
        model.scores(x),
        predict_proba(model, x),
        elasticity(model, 1, x).log_gradient,
        margin_sensitivity(model, 1, 0, x).per_feature,
        probability_sensitivity(model, 1, x),
        attribute_gradient(model, 1, x, b).phi,
    ]
    for values in returned:
        assert values.flags.writeable
        values[...] = 7.0
    assert model.scores(x).tobytes() == want
    assert bits(elasticity(model, 1, x)) == bits(elasticity(two_class_demo(), 1, x))


def test_an_overflowing_input_raises_on_every_call_in_either_slot():
    model = two_class_demo()
    good, bad = np.array([1.5, 0.7, 2.0]), np.array([1e300, 1.0, 1.0])
    attribute_gradient(model, 1, good, good * 2.0)
    for _ in range(3):
        with pytest.raises(OverflowLimitError):
            attribute_gradient(model, 1, bad, good)
        with pytest.raises(OverflowLimitError):
            attribute_gradient(model, 1, good, bad)
        with pytest.raises(OverflowLimitError):
            attribute_exact_log(model, 1, good, bad, term_idx=0)
        with pytest.raises(OverflowLimitError):
            build_report(model, good, 1, "gradient", bad)
        with pytest.raises(OverflowLimitError):
            model.scores(bad)
    # neither slot kept the input that raised
    assert model._last_row.key == model._last_reference.key == good.tobytes()
