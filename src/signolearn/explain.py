"""Closed-form interpretability for signomial classifiers.

Everything here is exact arithmetic on the model itself, no sampling:
elasticities and log-gradients per feature, exact counterfactuals under
feature scaling, first-order sensitivity, score-margin and probability
sensitivities, and additive attributions in log-space (exact per term,
first-order for whole scores). Pure functions over an immutable model.

Each function is closed-form algebra on the per-term values of every
class. A read takes them, with the scores and log-gradients, from the
records the model keeps: one for the last explained row and one for the
last reference input, an attribution's baseline. So predicting a row,
reporting on it against a baseline and drawing its counterfactual curve run
the kernel once on that row, and N rows explained against one baseline run
it N + 1 times. A scenario table runs one forward pass over its inputs. As
in model.scores, an overflowing term in any class raises OverflowLimitError.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .classifier import EcselModel, _class_scores, _decide, _probabilities
from .data_io import Dataset
from .errors import (
    BadConfigError,
    DataFormatError,
    MixedSignError,
    NonPositiveInputError,
    OverflowLimitError,
    SameClassError,
    ZeroComponentScoreError,
)
from .signomial import log_inputs, numeric_array, single_input


@dataclass
class ElasticityVector:
    """Per-feature elasticity and log-gradient of one class score at one x.

    The elasticity is None when the score is not positive there; the
    log-gradient is always defined.
    """

    score: float
    log_gradient: np.ndarray
    elasticity: np.ndarray | None

    @property
    def defined(self) -> bool:
        return self.elasticity is not None


@dataclass
class MarginSensitivity:
    class_idx: int
    other_idx: int
    margin: float
    per_feature: np.ndarray


@dataclass
class AttributionReport:
    """Per-feature additive contributions with an explicit exactness gap."""

    mode: str  # "exact-log" or "gradient"
    class_idx: int
    phi: np.ndarray
    residual: float
    x: np.ndarray
    baseline: np.ndarray
    term_idx: int | None = None
    sign: float | None = None  # sign of the attributed component (exact-log)
    target: str | None = None  # "score" or "probability" (gradient mode)


def _row_values(model: EcselModel, x):
    """The read-only scores (C,) and log-gradients (C, m) at one input, from
    the record the model keeps for its explained row."""
    row = model._row(x)
    return row.scores, row.log_gradients


def _check_index(idx: int, count: int, what: str, of: str) -> None:
    """Raise BadConfigError unless idx is a Python or numpy integer (not a
    bool) in [0, count)."""
    if isinstance(idx, bool) or not isinstance(idx, (int, np.integer)):
        raise BadConfigError(f"{what} index must be an integer, got {idx!r}")
    if not 0 <= idx < count:
        raise BadConfigError(f"{what} index {idx} out of range for {count} {of}")


def _real_number(value, what: str) -> float:
    """value as a Python float, or DataFormatError unless it is a real number
    (a Python or numpy int or float; not a string, None, a sequence or a
    complex). A numpy float would overflow to inf with a warning where a
    Python float raises."""
    if not isinstance(value, numbers.Real):
        raise DataFormatError(f"{what} must be a real number, got {value!r}")
    return float(value)


def _probability_gradient(model: EcselModel, p, log_gradients, class_idx: int):
    """d p_c / d ln x = p_c sum_{r != c} p_r (G_c - G_r) from the
    probabilities (C,) and the score log-gradients, with a zero row of G for
    a sigmoid model's class 0, whose score is the constant 0. Summing the
    differences weighted by the other classes' probabilities keeps a class
    whose probability is near 1 exact, where G_c - sum_r p_r G_r cancels."""
    g = _class_scores(model.link, log_gradients)
    return p[class_idx] * (p @ (g[class_idx] - g))


def elasticity(model: EcselModel, class_idx: int, x) -> ElasticityVector:
    """Proportional and absolute sensitivity of a class score.

    The log-gradient is G_j = sum_k beta_kj * z_k(x); the elasticity E_j =
    G_j / z divides by the score and is only defined where the score is
    positive.
    """
    _check_index(class_idx, len(model.signomials), "class", "scores")
    z, g = _row_values(model, x)
    z, g = float(z[class_idx]), g[class_idx].copy()
    return ElasticityVector(score=z, log_gradient=g, elasticity=g / z if z > 0 else None)


def counterfactual_scale(
    model: EcselModel, class_idx: int, x, feature_idx: int, q: float
) -> float:
    """Exact class score after scaling one feature by a factor q.

    sum_k z_k(x) * q^beta_kj: equal (to float precision) to evaluating the
    model at the literally scaled input, but computed in O(K) from the
    per-term values at x, which the model keeps for its explained row, so a
    curve over many q on one row runs the kernel once. The sum runs on
    Python floats in term order.

    A score that is not finite raises OverflowLimitError, as evaluating an
    overflowing term does: Python raises OverflowError where q**beta leaves
    float range, and a product or sum that overflows reads inf or NaN, with
    no numpy warning either way. The shortcut scales in linear space, so it
    also raises where the scaled input still scores finitely but q**beta
    alone overflows, as with 1e-300 * x^1100 at q = 2. A q that is not a
    real number raises DataFormatError, and one that is not finite and > 0
    NonPositiveInputError.
    """
    # a Python float passes on one type test, as every point of a curve does
    if type(q) is not float:
        q = _real_number(q, "scale factor")
    if not q > 0 or not math.isfinite(q):
        raise NonPositiveInputError(f"scale factor must be positive, got {q!r}")
    # plain comparisons for the common case; _check_index raises for the
    # rest and passes numpy integers. A sigmoid model has one score.
    num_scores = len(model.signomials)
    if type(class_idx) is not int or not 0 <= class_idx < num_scores:
        _check_index(class_idx, num_scores, "class", "scores")
    if type(feature_idx) is not int or not 0 <= feature_idx < model.m:
        _check_index(feature_idx, model.m, "feature", "features")
    terms = model._row(x).lists[class_idx]
    score = 0.0
    try:
        for z, b in zip(terms, model._exponents[class_idx][feature_idx]):
            score += z * q**b
    except OverflowError:
        score = math.inf
    if not math.isfinite(score):
        raise OverflowLimitError(
            f"counterfactual score of class {class_idx} at q={q!r} is {score!r}"
        )
    return score


def sensitivity_first_order(
    model: EcselModel, class_idx: int, x, feature_idx: int, eps: float
) -> float:
    """First-order prediction of the score after scaling feature j by 1+eps;
    an eps that is not a real number raises DataFormatError."""
    eps = _real_number(eps, "eps")
    _check_index(feature_idx, model.m, "feature", "features")
    ev = elasticity(model, class_idx, x)
    return ev.score + eps * float(ev.log_gradient[feature_idx])


def margin_sensitivity(
    model: EcselModel, class_idx: int, other_idx: int, x
) -> MarginSensitivity:
    """Margin between two class scores and its per-feature log-gradient."""
    if len(model.signomials) < 2:
        raise BadConfigError("margins need a model with per-class scores")
    _check_index(class_idx, len(model.signomials), "class", "scores")
    _check_index(other_idx, len(model.signomials), "class", "scores")
    if class_idx == other_idx:
        raise SameClassError(f"margin of class {class_idx} against itself is zero")
    z, g = _row_values(model, x)
    return MarginSensitivity(
        class_idx=class_idx,
        other_idx=other_idx,
        margin=float(z[class_idx] - z[other_idx]),
        per_feature=g[class_idx] - g[other_idx],
    )


def probability_sensitivity(model: EcselModel, class_idx: int, x) -> np.ndarray:
    """Derivative of one class probability w.r.t. each log-feature.

    p_c * sum_{r != c} p_r (G_c - G_r), where a sigmoid model's class 0
    scores the constant 0 (G_0 = 0), so that class 0 gets -p_0 p_1 G and
    class 1 p_1 p_0 G. Across classes these vectors sum to zero per feature.
    """
    _check_index(class_idx, model.C, "class", "classes")
    z, g = _row_values(model, x)
    return _probability_gradient(model, _probabilities(model, z[None, :])[0], g, class_idx)


def attribute_exact_log(
    model: EcselModel,
    class_idx: int,
    x,
    baseline,
    term_idx: int | None = None,
) -> AttributionReport:
    """Exact additive attribution of one score component in log-space.

    phi_j = beta_j * ln(x_j / b_j) decomposes the log-magnitude change of a
    single term between the baseline and x, with residual zero up to float
    noise. For a single-term score this covers the entire class score; for
    multi-term scores a term index must be chosen (or use gradient mode).
    """
    _check_index(class_idx, len(model.signomials), "class", "scores")
    num_terms = model.signomials[class_idx].num_terms
    if term_idx is None:
        if num_terms != 1:
            raise BadConfigError(
                f"score of class {class_idx} has {num_terms} terms; exact "
                "log-space attribution needs a term index, or use gradient mode"
            )
        term_idx = 0
    _check_index(term_idx, num_terms, "term", "terms")
    zx = model._row(x).lists[class_idx][term_idx]
    zb = model._reference(baseline).lists[class_idx][term_idx]
    if zx == 0.0 or zb == 0.0:
        raise ZeroComponentScoreError(
            f"term {term_idx} of class {class_idx} evaluates to zero; "
            "log attribution is undefined"
        )
    if (zx > 0) != (zb > 0):
        raise MixedSignError(
            f"term {term_idx} changes sign between baseline and input"
        )
    x = numeric_array(x)
    b = numeric_array(baseline)
    phi = model._betas[class_idx, term_idx] * np.log(x / b)
    residual = math.log(abs(zx)) - math.log(abs(zb)) - float(phi.sum())
    return AttributionReport(
        mode="exact-log",
        class_idx=class_idx,
        term_idx=term_idx,
        phi=phi,
        residual=residual,
        x=x,
        baseline=b,
        sign=math.copysign(1.0, zx),
    )


def attribute_gradient(
    model: EcselModel,
    class_idx: int,
    x,
    x_star,
    target: str = "score",
) -> AttributionReport:
    """First-order attribution around a reference input.

    phi_j = gradient_j(x_star) * (ln x_j - ln x*_j), where the gradient is
    the score log-gradient or the probability sensitivity. The residual is
    the true change minus the sum of contributions and is reported, never
    hidden.
    """
    if target == "score":
        _check_index(class_idx, len(model.signomials), "class", "scores")
    elif target == "probability":
        _check_index(class_idx, model.C, "class", "classes")
    else:
        raise BadConfigError(f"target must be score or probability, got {target!r}")
    x = numeric_array(x)
    x_star = numeric_array(x_star)
    ref, row = model._reference(x_star), model._row(x)
    if target == "score":
        before, after = ref.scores[class_idx], row.scores[class_idx]
        grad = ref.log_gradients[class_idx]
    else:
        p_ref, p_row = _probabilities(model, np.stack([ref.scores, row.scores]))
        before, after = p_ref[class_idx], p_row[class_idx]
        grad = _probability_gradient(model, p_ref, ref.log_gradients, class_idx)
    phi = grad * (np.log(x) - np.log(x_star))
    residual = float(after - before) - float(phi.sum())
    return AttributionReport(
        mode="gradient",
        class_idx=class_idx,
        phi=phi,
        residual=residual,
        x=x,
        baseline=x_star,
        target=target,
    )


def default_baseline(data: Dataset, kind: str, row: int = 0) -> np.ndarray:
    """A positive reference input: per-feature geometric mean, ones, or a row."""
    X = np.asarray(data.X, dtype=float)
    if X.size == 0:
        raise DataFormatError("cannot build a baseline from an empty dataset")
    log_x = log_inputs(X)
    if kind == "geometric-mean":
        return np.exp(log_x.mean(axis=0))
    if kind == "all-ones":
        return np.ones(X.shape[1])
    if kind == "sample":
        _check_index(row, X.shape[0], "row", "rows")
        return X[row].copy()
    raise BadConfigError(
        f"baseline kind must be geometric-mean, all-ones or sample, got {kind!r}"
    )


# --- report assembly ------------------------------------------------------------


def _ranked_map(names, values) -> dict:
    """name -> {value, index} map ordered by |value| descending, ties in
    index order."""
    values = np.asarray(values, dtype=float).tolist()
    order = sorted(range(len(names)), key=lambda j: -abs(values[j]))
    return {names[j]: {"value": values[j], "index": j} for j in order}


def build_report(
    model: EcselModel,
    x,
    class_idx: int,
    mode: str,
    baseline,
    term_idx: int | None = None,
    target: str = "score",
) -> dict:
    """Assemble the full explanation JSON for one input.

    Bundles the chosen attribution with elasticities, log-gradients and all
    pairwise margins for the class, keyed by feature name and sorted by
    contribution magnitude. A term index belongs to exact-log mode and a
    probability target to gradient mode; either in the other mode raises
    BadConfigError rather than being ignored.
    """
    names = model.feature_names
    x = numeric_array(x)
    if mode == "exact-log":
        if target != "score":
            raise BadConfigError(
                f"exact-log mode attributes a score, not target {target!r}; "
                "use gradient mode"
            )
        rep = attribute_exact_log(model, class_idx, x, baseline, term_idx)
    elif mode == "gradient":
        if term_idx is not None:
            raise BadConfigError(
                f"term {term_idx} needs exact-log mode; gradient mode attributes "
                "the whole score"
            )
        rep = attribute_gradient(model, class_idx, x, baseline, target)
    else:
        raise BadConfigError(f"mode must be exact-log or gradient, got {mode!r}")
    _check_index(class_idx, len(model.signomials), "class", "scores")
    z, g = _row_values(model, x)
    margins = [
        {
            "against": other,
            "margin": float(z[class_idx] - z[other]),
            "perFeature": _ranked_map(names, g[class_idx] - g[other]),
        }
        for other in range(model.C)
        if other != class_idx and model.link != "sigmoid"
    ]
    return {
        "input": dict(zip(names, x.tolist())),
        "baseline": dict(zip(names, rep.baseline.tolist())),
        "class": class_idx,
        "mode": rep.mode,
        "phi": _ranked_map(names, rep.phi),
        "residual": rep.residual,
        "elasticities": (
            _ranked_map(names, g[class_idx] / z[class_idx]) if z[class_idx] > 0 else None
        ),
        "logGradients": _ranked_map(names, g[class_idx]),
        "margins": margins,
    }


def compare_scenarios(model: EcselModel, scenarios: list[tuple[str, np.ndarray]]) -> dict:
    """Evaluate named inputs side by side: scores, probabilities, decision."""
    if not scenarios:
        raise DataFormatError("no scenarios given")
    xs = [numeric_array(x) for _, x in scenarios]
    scores = model.scores_batch(np.concatenate([single_input(x, model.m) for x in xs]))
    probs = _probabilities(model, scores)
    rows = []
    for (name, _), x, z, p, c in zip(scenarios, xs, scores, probs, _decide(model, probs)):
        entry = {
            "name": name,
            "input": {fn: float(v) for fn, v in zip(model.feature_names, x)},
            "scores": [float(s) for s in z],
            "probabilities": [float(v) for v in p],
        }
        if model.link == "sigmoid":
            entry["threshold"] = model.threshold
        entry["predicted"] = int(c)
        rows.append(entry)
    return {"scenarios": rows}
