"""Signomial classifiers: per-class scores, softmax/sigmoid link, training.

Each class carries one signomial score function. Probabilities come from a
max-shifted softmax over class scores, or a sigmoid over a single score for
binary models. Training minimizes class-weighted cross-entropy plus an L1
penalty on the exponents, using mini-batch Adam with gradient clipping and a
proximal soft-threshold step; early stopping restores the best snapshot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import data_io
from .errors import (
    BadConfigError,
    ClassTooSmallError,
    CorruptModelError,
    DataFormatError,
    DimensionMismatchError,
    LabelOutOfRangeError,
    NonFiniteLossError,
    OverflowLimitError,
)
from .optim import AdamState, EarlyStopMonitor, adam_step, prox_l1
from .signomial import (
    Signomial,
    backward,
    forward,
    log_coefficients,
    log_inputs,
    single_input,
)

# global L2 norm each mini-batch gradient is clipped to before its Adam step
GRAD_CLIP_NORM = 1.0


@dataclass
class ClassifyConfig:
    """Training knobs for the signomial classifier."""

    num_terms: int = 2
    l1_penalty: float = 1e-3
    learning_rate: float = 1e-3
    batch_size: int = 32
    epochs: int = 200
    patience: int = 20
    class_weight_multiplier: float = 0.0
    seed: int = 0
    link: str = "softmax"
    threshold_grid_step: float = 1e-3

    def validate(self) -> None:
        if self.num_terms < 1:
            raise BadConfigError(f"num_terms must be >= 1, got {self.num_terms}")
        # written so that NaN fails them too
        if not (math.isfinite(self.l1_penalty) and self.l1_penalty >= 0):
            raise BadConfigError(f"l1_penalty must be finite and >= 0, got {self.l1_penalty}")
        if self.batch_size < 1:
            raise BadConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 1:
            raise BadConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.patience < 1:
            raise BadConfigError(f"patience must be >= 1, got {self.patience}")
        data_io.check_seed(self.seed)
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise BadConfigError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if not math.isfinite(self.class_weight_multiplier):
            raise BadConfigError(
                f"class_weight_multiplier must be finite, got {self.class_weight_multiplier}"
            )
        if self.link not in ("softmax", "sigmoid"):
            raise BadConfigError(f"link must be softmax or sigmoid, got {self.link!r}")
        if not 0 < self.threshold_grid_step < 0.5:
            raise BadConfigError(
                f"threshold_grid_step must be in (0, 0.5), got {self.threshold_grid_step}"
            )


class EcselModel:
    """A trained signomial classifier.

    Softmax models hold one signomial per class; sigmoid models hold a single
    score signomial for the positive class and a decision threshold.
    """

    def __init__(
        self,
        signomials: list[Signomial],
        link: str = "softmax",
        threshold: float = 0.5,
        feature_names: list[str] | None = None,
        class_names: list[str] | None = None,
        scaler: data_io.Scaler | None = None,
    ):
        if link not in ("softmax", "sigmoid"):
            raise BadConfigError(f"link must be softmax or sigmoid, got {link!r}")
        if link == "sigmoid":
            if len(signomials) != 1:
                raise BadConfigError("sigmoid link needs exactly one score signomial")
        elif len(signomials) < 2:
            raise BadConfigError("softmax link needs at least two signomials")
        ms = {s.m for s in signomials}
        if len(ms) != 1:
            raise DimensionMismatchError(f"signomials disagree on feature count: {ms}")
        if not 0 < threshold < 1:
            raise BadConfigError(f"threshold must be in (0, 1), got {threshold}")
        self.signomials = tuple(signomials)
        self.link = link
        self.threshold = float(threshold)
        self.m = signomials[0].m
        self.C = 2 if link == "sigmoid" else len(signomials)
        self.feature_names = feature_names or [f"x{j + 1}" for j in range(self.m)]
        self.class_names = class_names or [str(c) for c in range(self.C)]
        self.scaler = scaler
        if len(self.feature_names) != self.m:
            raise DimensionMismatchError(
                f"{len(self.feature_names)} feature names for {self.m} features"
            )
        if len(self.class_names) != self.C:
            raise DimensionMismatchError(
                f"{len(self.class_names)} class names for {self.C} classes"
            )
        if scaler is not None and scaler.mins is not None:
            shapes = {np.shape(scaler.mins), np.shape(scaler.maxs)}
            if shapes != {(self.m,)}:
                raise DimensionMismatchError(
                    f"scaler bounds have shapes {sorted(shapes)} for {self.m} features"
                )
        # the signomials are fixed from here on, so the kernel constants are too
        self._alphas, self._betas = _stack_params(self.signomials)
        self._kernel = (*log_coefficients(self._alphas), self._betas)

    @property
    def num_terms(self) -> int:
        return max(s.num_terms for s in self.signomials)

    def scores(self, x) -> np.ndarray:
        """Score vector (C,) at one input, from the same kernel as scores_batch."""
        return self.scores_batch(single_input(x, self.m))[0]

    def scores_batch(self, X) -> np.ndarray:
        """Score matrix (N, C) over a batch of inputs."""
        _, per_term = forward(*self._kernel, log_inputs(X, self.m))
        return per_term.sum(axis=2)

    def to_dict(self) -> dict:
        payload = {
            "kind": "classifier",
            "link": self.link,
            "featureNames": list(self.feature_names),
            "classNames": list(self.class_names),
            "scaler": None if self.scaler is None else self.scaler.to_dict(),
            "signomials": [s.to_dict() for s in self.signomials],
        }
        if self.link == "sigmoid":
            payload["threshold"] = self.threshold
        return payload

    @classmethod
    def from_dict(cls, data: dict) -> "EcselModel":
        try:
            signomials = [Signomial.from_dict(d) for d in data["signomials"]]
            scaler = (
                None if data.get("scaler") is None else data_io.Scaler.from_dict(data["scaler"])
            )
            # CSV columns are matched to these names, so they must be strings
            if not all(isinstance(n, str) for n in data.get("featureNames") or ()):
                raise TypeError(f"feature names must be strings, got {data['featureNames']!r}")
            return cls(
                signomials=signomials,
                link=data["link"],
                threshold=data.get("threshold", 0.5),
                feature_names=data.get("featureNames"),
                class_names=data.get("classNames"),
                scaler=scaler,
            )
        except (KeyError, TypeError, ValueError, BadConfigError, DataFormatError,
                DimensionMismatchError) as exc:
            raise CorruptModelError(f"invalid classifier payload: {exc}") from exc

    def save(self, path: str) -> None:
        data_io.save_model(self.to_dict(), path)

    @classmethod
    def load(cls, path: str) -> "EcselModel":
        data = data_io.load_model(path)
        if data.get("kind") != "classifier":
            raise CorruptModelError(f"{path}: not a classifier model")
        return cls.from_dict(data)


# --- probability plumbing ------------------------------------------------------


def _softmax_rows(Z: np.ndarray) -> np.ndarray:
    shifted = Z - Z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _probabilities(model: EcselModel, Z: np.ndarray) -> np.ndarray:
    if model.link == "sigmoid":
        p1 = _sigmoid(Z[:, 0])
        return np.column_stack([1.0 - p1, p1])
    return _softmax_rows(Z)


def predict_proba(model: EcselModel, x) -> np.ndarray:
    """Class-probability vector at one input."""
    return _probabilities(model, model.scores(x)[None, :])[0]


def predict_proba_batch(model: EcselModel, X) -> np.ndarray:
    return _probabilities(model, model.scores_batch(X))


def predict(model: EcselModel, x) -> int:
    """Predicted class index; softmax ties break to the lowest index."""
    p = predict_proba(model, x)
    if model.link == "sigmoid":
        return int(p[1] >= model.threshold)
    return int(np.argmax(p))


def predict_batch(model: EcselModel, X) -> np.ndarray:
    p = predict_proba_batch(model, X)
    if model.link == "sigmoid":
        return (p[:, 1] >= model.threshold).astype(int)
    return np.argmax(p, axis=1)


# --- loss/grad core -----------------------------------------------------------


def _stack_params(signomials: list[Signomial]) -> tuple[np.ndarray, np.ndarray]:
    k = max(s.num_terms for s in signomials)
    m = signomials[0].m
    alphas = np.zeros((len(signomials), k))
    betas = np.zeros((len(signomials), k, m))
    for c, s in enumerate(signomials):
        if s.num_terms:
            alphas[c, : s.num_terms] = s.alphas
            betas[c, : s.num_terms] = s.betas
    return alphas, betas


def class_weights(y: np.ndarray, num_classes: int, multiplier: float) -> np.ndarray:
    """Per-class weights 1 + multiplier * (N / (C * N_c) - 1).

    A negative weight would make the loss unbounded below, so it is refused.
    """
    counts = np.bincount(y, minlength=num_classes).astype(float)
    if np.any(counts == 0):
        missing = int(np.argmin(counts))
        raise ClassTooSmallError(f"class {missing} has no samples; cannot weight it")
    n = float(len(y))
    weights = 1.0 + multiplier * (n / (num_classes * counts) - 1.0)
    if np.any(weights < 0):
        worst = int(np.argmin(weights))
        raise BadConfigError(
            f"class weight multiplier {multiplier} gives class {worst} "
            f"the negative weight {weights[worst]}"
        )
    return weights


def _smooth_loss_and_param_grad(alphas, betas, log_x, y, weights, link):
    """Weighted cross-entropy value and gradient w.r.t. alphas/betas."""
    n = log_x.shape[0]
    mono_log, per_term = forward(*log_coefficients(alphas), betas, log_x)
    Z = per_term.sum(axis=2)
    w = weights[y]
    if link == "sigmoid":
        z = Z[:, 0]
        # stable log-sigmoid pieces: ln p = -softplus(-z), ln(1-p) = -softplus(z)
        softplus = np.logaddexp(0.0, np.stack([-z, z]))
        loss = float(np.sum(w * np.where(y == 1, softplus[0], softplus[1])) / n)
        dz = (w * (_sigmoid(z) - y) / n)[:, None]
    else:
        with np.errstate(invalid="ignore"):
            shifted = Z - Z.max(axis=1, keepdims=True)
        log_norm = np.log(np.sum(np.exp(shifted), axis=1))
        log_p = shifted - log_norm[:, None]
        loss = float(-np.sum(w * log_p[np.arange(n), y]) / n)
        p = np.exp(log_p)
        dz = p.copy()
        dz[np.arange(n), y] -= 1.0
        dz *= (w / n)[:, None]
    d_alpha, d_beta = backward(dz, mono_log, per_term, log_x)
    return loss, d_alpha, d_beta


def loss_and_grad(
    model: EcselModel,
    X,
    y,
    l1_penalty: float,
    weights: np.ndarray | None = None,
) -> tuple[float, np.ndarray]:
    """Objective value (including the L1 term) and smooth-part gradient.

    The gradient is a flat vector, alphas then betas, each raveled;
    the L1 term contributes to the reported loss but not to this gradient,
    since training handles it with a proximal step.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    if X.shape[0] == 0:
        raise DataFormatError("empty batch")
    if y.min(initial=0) < 0 or y.max(initial=0) >= model.C:
        raise LabelOutOfRangeError(f"labels must lie in [0, {model.C})")
    if weights is None:
        weights = np.ones(model.C)
    alphas, betas = model._alphas, model._betas
    smooth, d_alpha, d_beta = _smooth_loss_and_param_grad(
        alphas, betas, log_inputs(X, model.m), y, weights, model.link
    )
    loss = smooth + l1_penalty * float(np.sum(np.abs(betas)))
    if not math.isfinite(loss):
        raise NonFiniteLossError("loss is non-finite")
    return loss, np.concatenate([d_alpha.ravel(), d_beta.ravel()])


# --- training -----------------------------------------------------------------


@dataclass
class FitTrace:
    """Per-epoch loss history plus where the best snapshot was taken."""

    epochs: list[int] = field(default_factory=list)
    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    best_epoch: int = -1
    stopped_early: bool = False


def fit(
    train: data_io.Dataset,
    val: data_io.Dataset,
    cfg: ClassifyConfig,
    feature_names: list[str] | None = None,
    class_names: list[str] | None = None,
    scaler: data_io.Scaler | None = None,
) -> tuple[EcselModel, FitTrace]:
    """Train a signomial classifier with mini-batch Adam plus proximal L1.

    Deterministic for a fixed cfg.seed: initialization and epoch shuffling
    come from one counter-based stream. Early stopping watches the validation
    loss each epoch and the returned model is the best snapshot.
    """
    cfg.validate()
    X, y = np.asarray(train.X, dtype=float), np.asarray(train.y, dtype=int)
    Xv, yv = np.asarray(val.X, dtype=float), np.asarray(val.y, dtype=int)
    if X.shape[0] == 0 or Xv.shape[0] == 0:
        raise DataFormatError("training and validation sets must be non-empty")
    if X.shape[1] != Xv.shape[1]:
        raise DimensionMismatchError("train and validation feature counts differ")
    num_classes = int(max(y.max(), yv.max())) + 1
    if num_classes < 2:
        raise ClassTooSmallError("need at least two classes to train")
    if cfg.link == "sigmoid" and num_classes != 2:
        raise BadConfigError(f"sigmoid link is binary-only, data has {num_classes} classes")

    n, m = X.shape
    c_rows = 1 if cfg.link == "sigmoid" else num_classes
    k = cfg.num_terms
    log_x = log_inputs(X)
    log_xv = log_inputs(Xv)
    weights = class_weights(y, num_classes, cfg.class_weight_multiplier)

    rng = np.random.Generator(np.random.Philox(key=cfg.seed))
    alphas = 0.1 + 0.1 * rng.standard_normal((c_rows, k))
    betas = 0.05 * rng.standard_normal((c_rows, k, m))
    # one flat vector, alphas then betas: the order Adam's clip norm sums in
    params = np.concatenate([alphas.ravel(), betas.ravel()])
    n_alpha = alphas.size
    beta_mask = np.arange(params.size) >= n_alpha
    adam = AdamState.init(params.size)
    monitor = EarlyStopMonitor(cfg.patience)
    trace = FitTrace()

    def unpack(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return p[:n_alpha].reshape(c_rows, k), p[n_alpha:].reshape(c_rows, k, m)

    def full_loss(p: np.ndarray, lx: np.ndarray, labels: np.ndarray) -> float:
        a, b = unpack(p)
        smooth, _, _ = _smooth_loss_and_param_grad(a, b, lx, labels, weights, cfg.link)
        return smooth + cfg.l1_penalty * float(np.sum(np.abs(b)))

    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        running, seen = 0.0, 0
        try:
            for start in range(0, n, cfg.batch_size):
                idx = order[start : start + cfg.batch_size]
                a, b = unpack(params)
                smooth, d_alpha, d_beta = _smooth_loss_and_param_grad(
                    a, b, log_x[idx], y[idx], weights, cfg.link
                )
                batch_loss = smooth + cfg.l1_penalty * float(np.sum(np.abs(b)))
                if not math.isfinite(batch_loss):
                    raise NonFiniteLossError(
                        f"non-finite training loss at epoch {epoch}", epoch=epoch
                    )
                grad = np.concatenate([d_alpha.ravel(), d_beta.ravel()])
                params = adam_step(adam, params, grad, cfg.learning_rate, GRAD_CLIP_NORM)
                params = prox_l1(params, beta_mask, cfg.learning_rate, cfg.l1_penalty)
                running += batch_loss * len(idx)
                seen += len(idx)
            val_loss = full_loss(params, log_xv, yv)
        except OverflowLimitError as exc:
            raise NonFiniteLossError(
                f"training overflowed at epoch {epoch}: {exc}", epoch=epoch
            ) from exc
        if not math.isfinite(val_loss):
            raise NonFiniteLossError(
                f"non-finite validation loss at epoch {epoch}", epoch=epoch
            )
        trace.epochs.append(epoch)
        trace.train_loss.append(running / seen)
        trace.val_loss.append(val_loss)
        if monitor.update(val_loss, params, epoch):
            trace.stopped_early = True
            break

    best = monitor.best_params if monitor.best_params is not None else params
    trace.best_epoch = monitor.best_epoch if monitor.best_epoch >= 0 else cfg.epochs - 1
    alphas, betas = unpack(best)
    signomials = [
        Signomial.from_arrays(alphas[c], betas[c]) for c in range(c_rows)
    ]
    model = EcselModel(
        signomials=signomials,
        link=cfg.link,
        feature_names=feature_names or list(train.feature_names),
        class_names=class_names
        or (train.class_names if train.class_names else None),
        scaler=scaler,
    )
    if cfg.link == "sigmoid":
        model.threshold = select_threshold(model, val, cfg.threshold_grid_step)
    return model, trace


# --- threshold selection --------------------------------------------------------


def best_f1_threshold(p1: np.ndarray, y: np.ndarray, grid_step: float) -> float:
    """Scan the threshold grid and return the F1-maximizing value.

    The grid is grid_step, 2*grid_step, ..., up to but excluding 1; ties go
    to the lowest threshold. F1 is that of the positive class.
    """
    if not 0 < grid_step < 0.5:
        raise BadConfigError(f"grid step must be in (0, 0.5), got {grid_step}")
    p1 = np.asarray(p1, dtype=float)
    y = np.asarray(y, dtype=int)
    best_th, best_f1 = None, -1.0
    # every k * grid_step below 1: k runs up to floor(1 / grid_step)
    for kk in range(1, int(1.0 / grid_step) + 1):
        th = kk * grid_step
        if th >= 1.0:
            break
        pred = p1 >= th
        tp = int(np.sum(pred & (y == 1)))
        fp = int(np.sum(pred & (y == 0)))
        fn = int(np.sum(~pred & (y == 1)))
        denom = 2 * tp + fp + fn
        f1 = (2 * tp / denom) if denom else 0.0
        if f1 > best_f1:
            best_f1, best_th = f1, th
    return float(best_th)


def select_threshold(model: EcselModel, val: data_io.Dataset, grid_step: float) -> float:
    """Pick the decision threshold maximizing F1 on the validation set."""
    if model.C != 2:
        raise BadConfigError("threshold selection applies to binary models only")
    if val.n == 0:
        raise DataFormatError("empty validation set")
    p1 = predict_proba_batch(model, val.X)[:, 1]
    return best_f1_threshold(p1, val.y, grid_step)


# --- metrics --------------------------------------------------------------------


@dataclass
class Metrics:
    accuracy: float
    precision: float
    recall: float
    f1: float
    minority_recall: float
    confusion: np.ndarray

    def to_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "minorityRecall": self.minority_recall,
            "confusion": self.confusion.tolist(),
        }


def compute_metrics(y_true, y_pred, num_classes: int) -> Metrics:
    """Accuracy, support-weighted precision/recall/F1, minority recall, confusion.

    The confusion matrix has true classes as rows, predictions as columns.
    Minority recall is the recall of the least-frequent true class, with
    ties going to the lowest class index.
    """
    y_true = np.asarray(y_true, dtype=int)
    y_pred = np.asarray(y_pred, dtype=int)
    if y_true.shape != y_pred.shape:
        raise DimensionMismatchError(
            f"length mismatch: {y_true.shape} vs {y_pred.shape}"
        )
    if y_true.size == 0:
        raise DataFormatError("empty label arrays")
    for arr, name in ((y_true, "true"), (y_pred, "predicted")):
        if arr.min() < 0 or arr.max() >= num_classes:
            raise LabelOutOfRangeError(f"{name} labels outside [0, {num_classes})")

    confusion = np.zeros((num_classes, num_classes), dtype=int)
    np.add.at(confusion, (y_true, y_pred), 1)
    support = confusion.sum(axis=1)
    predicted = confusion.sum(axis=0)
    tp = np.diag(confusion).astype(float)
    with np.errstate(invalid="ignore", divide="ignore"):
        prec_c = np.where(predicted > 0, tp / np.maximum(predicted, 1), 0.0)
        rec_c = np.where(support > 0, tp / np.maximum(support, 1), 0.0)
        f1_c = np.where(
            prec_c + rec_c > 0, 2 * prec_c * rec_c / np.maximum(prec_c + rec_c, 1e-300), 0.0
        )
    w = support / support.sum()
    present = support > 0
    minority = int(np.argmin(np.where(present, support, np.iinfo(np.int64).max)))
    return Metrics(
        accuracy=float(np.mean(y_true == y_pred)),
        precision=float(np.sum(w * prec_c)),
        recall=float(np.sum(w * rec_c)),
        f1=float(np.sum(w * f1_c)),
        minority_recall=float(rec_c[minority]),
        confusion=confusion,
    )
