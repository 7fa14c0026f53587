"""Closed-form interpretability for signomial classifiers.

Everything here is exact arithmetic on the model itself, no sampling:
elasticities and log-gradients per feature, exact counterfactuals under
feature scaling, first-order sensitivity, score-margin and probability
sensitivities, and additive attributions in log-space (exact per term,
first-order for whole scores). Pure functions over an immutable model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classifier import EcselModel, predict_proba, _sigmoid
from .data_io import Dataset
from .errors import (
    BadConfigError,
    DataFormatError,
    MixedSignError,
    NonPositiveInputError,
    SameClassError,
    ZeroComponentScoreError,
)
from .signomial import evaluate, log_inputs


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


def _class_terms(model: EcselModel, class_idx: int, x):
    """Per-term values, exponents and the total score for one class."""
    if not 0 <= class_idx < len(model.signomials):
        raise BadConfigError(
            f"class index {class_idx} out of range for {len(model.signomials)} scores"
        )
    s = model.signomials[class_idx]
    bd = evaluate(s, x)
    return s, np.array(bd.per_term), bd.total


def elasticity(model: EcselModel, class_idx: int, x) -> ElasticityVector:
    """Proportional and absolute sensitivity of a class score.

    The log-gradient is G_j = sum_k beta_kj * z_k(x); the elasticity E_j =
    G_j / z divides by the score and is only defined where the score is
    positive.
    """
    s, per_term, z = _class_terms(model, class_idx, x)
    if s.num_terms:
        g = s.betas.T @ per_term
    else:
        g = np.zeros(s.m)
    e = g / z if z > 0 else None
    return ElasticityVector(score=z, log_gradient=g, elasticity=e)


def counterfactual_scale(
    model: EcselModel, class_idx: int, x, feature_idx: int, q: float
) -> float:
    """Exact class score after scaling one feature by a factor q.

    Equal (to float precision) to evaluating the model at the literally
    scaled input, but computed directly from the per-term values.
    """
    if not q > 0 or not math.isfinite(q):
        raise NonPositiveInputError(f"scale factor must be positive, got {q!r}")
    s, per_term, _ = _class_terms(model, class_idx, x)
    if not 0 <= feature_idx < s.m:
        raise BadConfigError(f"feature index {feature_idx} out of range for m={s.m}")
    if not s.num_terms:
        return 0.0
    return float(np.power(q, s.betas[:, feature_idx]) @ per_term)


def sensitivity_first_order(
    model: EcselModel, class_idx: int, x, feature_idx: int, eps: float
) -> float:
    """First-order prediction of the score after scaling feature j by 1+eps."""
    ev = elasticity(model, class_idx, x)
    if not 0 <= feature_idx < len(ev.log_gradient):
        raise BadConfigError(
            f"feature index {feature_idx} out of range for m={len(ev.log_gradient)}"
        )
    return ev.score + eps * float(ev.log_gradient[feature_idx])


def margin_sensitivity(
    model: EcselModel, class_idx: int, other_idx: int, x
) -> MarginSensitivity:
    """Margin between two class scores and its per-feature log-gradient."""
    if class_idx == other_idx:
        raise SameClassError(f"margin of class {class_idx} against itself is zero")
    if len(model.signomials) < 2:
        raise BadConfigError("margins need a model with per-class scores")
    a = elasticity(model, class_idx, x)
    b = elasticity(model, other_idx, x)
    return MarginSensitivity(
        class_idx=class_idx,
        other_idx=other_idx,
        margin=a.score - b.score,
        per_feature=a.log_gradient - b.log_gradient,
    )


def probability_sensitivity(model: EcselModel, class_idx: int, x) -> np.ndarray:
    """Derivative of one class probability w.r.t. each log-feature.

    Softmax: p_c * (G_c - sum_r p_r G_r). Sigmoid: p(1-p) * G applied to the
    single score, negated for class 0. Across classes these vectors sum to
    zero per feature.
    """
    if model.link == "sigmoid":
        if class_idx not in (0, 1):
            raise BadConfigError(f"class index {class_idx} out of range for 2 classes")
        ev = elasticity(model, 0, x)
        p1 = float(_sigmoid(np.array([ev.score]))[0])
        grad = p1 * (1.0 - p1) * ev.log_gradient
        return grad if class_idx == 1 else -grad
    if not 0 <= class_idx < model.C:
        raise BadConfigError(
            f"class index {class_idx} out of range for {model.C} classes"
        )
    p = predict_proba(model, x)
    g_all = np.stack(
        [elasticity(model, c, x).log_gradient for c in range(model.C)]
    )
    avg = p @ g_all
    return p[class_idx] * (g_all[class_idx] - avg)


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
    s, per_term_x, _ = _class_terms(model, class_idx, x)
    if term_idx is None:
        if s.num_terms != 1:
            raise BadConfigError(
                f"score of class {class_idx} has {s.num_terms} terms; exact "
                "log-space attribution needs a term index, or use gradient mode"
            )
        term_idx = 0
    if not 0 <= term_idx < s.num_terms:
        raise BadConfigError(
            f"term index {term_idx} out of range for {s.num_terms} terms"
        )
    _, per_term_b, _ = _class_terms(model, class_idx, baseline)
    zx = float(per_term_x[term_idx])
    zb = float(per_term_b[term_idx])
    if zx == 0.0 or zb == 0.0:
        raise ZeroComponentScoreError(
            f"term {term_idx} of class {class_idx} evaluates to zero; "
            "log attribution is undefined"
        )
    if (zx > 0) != (zb > 0):
        raise MixedSignError(
            f"term {term_idx} changes sign between baseline and input"
        )
    x = np.asarray(x, dtype=float)
    b = np.asarray(baseline, dtype=float)
    beta = s.betas[term_idx]
    phi = beta * np.log(x / b)
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
    if target not in ("score", "probability"):
        raise BadConfigError(f"target must be score or probability, got {target!r}")
    x = np.asarray(x, dtype=float)
    x_star = np.asarray(x_star, dtype=float)
    if target == "score":
        grad = elasticity(model, class_idx, x_star).log_gradient
        before = elasticity(model, class_idx, x_star).score
        after = _class_terms(model, class_idx, x)[2]
    else:
        grad = probability_sensitivity(model, class_idx, x_star)
        before = predict_proba(model, x_star)[class_idx]
        after = predict_proba(model, x)[class_idx]
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
        if not 0 <= row < X.shape[0]:
            raise BadConfigError(f"row {row} out of range for {X.shape[0]} rows")
        return X[row].copy()
    raise BadConfigError(
        f"baseline kind must be geometric-mean, all-ones or sample, got {kind!r}"
    )


# --- report assembly ------------------------------------------------------------


def _ranked_map(names, values) -> dict:
    """name -> {value, index} map ordered by |value| descending, stable."""
    order = sorted(range(len(names)), key=lambda j: (-abs(float(values[j])), j))
    return {
        names[j]: {"value": float(values[j]), "index": j} for j in order
    }


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
    contribution magnitude.
    """
    names = model.feature_names
    x = np.asarray(x, dtype=float)
    if mode == "exact-log":
        rep = attribute_exact_log(model, class_idx, x, baseline, term_idx)
    elif mode == "gradient":
        rep = attribute_gradient(model, class_idx, x, baseline, target)
    else:
        raise BadConfigError(f"mode must be exact-log or gradient, got {mode!r}")
    ev = elasticity(model, class_idx, x)
    margins = []
    if model.link != "sigmoid":
        for other in range(model.C):
            if other == class_idx:
                continue
            ms = margin_sensitivity(model, class_idx, other, x)
            margins.append(
                {
                    "against": other,
                    "margin": ms.margin,
                    "perFeature": _ranked_map(names, ms.per_feature),
                }
            )
    return {
        "input": {name: float(v) for name, v in zip(names, x)},
        "baseline": {name: float(v) for name, v in zip(names, rep.baseline)},
        "class": class_idx,
        "mode": rep.mode,
        "phi": _ranked_map(names, rep.phi),
        "residual": rep.residual,
        "elasticities": None if not ev.defined else _ranked_map(names, ev.elasticity),
        "logGradients": _ranked_map(names, ev.log_gradient),
        "margins": margins,
    }


def compare_scenarios(model: EcselModel, scenarios: list[tuple[str, np.ndarray]]) -> dict:
    """Evaluate named inputs side by side: scores, probabilities, decision."""
    if not scenarios:
        raise DataFormatError("no scenarios given")
    rows = []
    for name, x in scenarios:
        x = np.asarray(x, dtype=float)
        p = predict_proba(model, x)
        scores = model.scores(x)
        entry = {
            "name": name,
            "input": {fn: float(v) for fn, v in zip(model.feature_names, x)},
            "scores": [float(s) for s in scores],
            "probabilities": [float(v) for v in p],
        }
        if model.link == "sigmoid":
            entry["threshold"] = model.threshold
            entry["predicted"] = int(p[1] >= model.threshold)
        else:
            entry["predicted"] = int(np.argmax(p))
        rows.append(entry)
    return {"scenarios": rows}
