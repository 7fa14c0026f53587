"""Signomial classifiers: per-class scores, softmax/sigmoid link, training.

Each class carries one signomial score function. Probabilities come from a
max-shifted softmax over class scores, or a sigmoid over a single score for
binary models. Training minimizes class-weighted cross-entropy plus an L1
penalty on the exponents, using mini-batch Adam with gradient clipping and a
proximal soft-threshold step; early stopping restores the best snapshot.
"""

from __future__ import annotations

import math
import sys
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
    NonFiniteGradientError,
    NonFiniteLossError,
    OverflowLimitError,
)
from .optim import AdamStack, EarlyStopMonitor, finite_rows
from .signomial import (
    LOG_MAGNITUDE_LIMIT,
    Signomial,
    backward,
    forward,
    log_inputs,
    monomials,
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
        # None means the default names; an empty list is a wrong count
        if feature_names is None:
            feature_names = [f"x{j + 1}" for j in range(self.m)]
        if class_names is None:
            class_names = [str(c) for c in range(self.C)]
        self.feature_names, self.class_names = feature_names, class_names
        self.scaler = scaler
        # a CSV column is read for each name, so no two may be the same
        if len(self.feature_names) != self.m or len(set(self.feature_names)) < self.m:
            raise DimensionMismatchError(
                f"feature names {self.feature_names!r} are not {self.m} distinct names"
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
        self._alphas, self._betas = _stack_params(self.signomials)
        # the largest |ln q| for which scaling one feature by q keeps every
        # term (each below e^LOG_MAGNITUDE_LIMIT, then times at most
        # q^max|beta|) and their sum inside float range, less one unit of
        # margin for rounding: explain.counterfactual_scale needs no errstate
        # below it
        headroom = (math.log(sys.float_info.max) - LOG_MAGNITUDE_LIMIT - 1.0
                    - math.log(max(self._betas.shape[1], 1)))
        beta_max = float(np.abs(self._betas).max(initial=0.0))
        self._quiet_log_q = headroom / beta_max if beta_max else math.copysign(math.inf, headroom)
        # (row bytes, per-term values) of the last good input; one tuple, set
        # in one statement, so threads sharing the model need no lock
        self._last_terms: tuple[bytes, np.ndarray] | None = None

    @property
    def num_terms(self) -> int:
        return max(s.num_terms for s in self.signomials)

    def _terms_at(self, x) -> np.ndarray:
        """Read-only per-term values (C, K) at one input.

        The values for the last input are kept, keyed on its float64 bytes, so
        reading one row many times runs the kernel once. An input that raises
        is never kept, so it raises again on every call.
        """
        row = single_input(x, self.m)
        key = row.tobytes()
        last = self._last_terms
        if last is not None and last[0] == key:
            return last[1]
        values = forward(self._alphas, self._betas, log_inputs(row, self.m))[0]
        values.setflags(write=False)
        self._last_terms = (key, values)
        return values

    def scores(self, x) -> np.ndarray:
        """Score vector (C,) at one input: the sum of its per-term values."""
        return self._terms_at(x).sum(axis=1)

    def scores_batch(self, X) -> np.ndarray:
        """Score matrix (N, C) over a batch of inputs."""
        return forward(self._alphas, self._betas, log_inputs(X, self.m)).sum(axis=2)

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
            return cls(
                signomials=signomials,
                link=data["link"],
                threshold=data.get("threshold", 0.5),
                feature_names=data_io.name_list(data, "featureNames"),
                class_names=data_io.name_list(data, "classNames"),
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


def _smooth_loss(alphas, betas, log_x, y, weights, link):
    """Weighted cross-entropy of T stacked models, the kernel's classifier head.

    Takes alphas (T, C, K), betas (T, C, K, m), log-inputs (T, N, m) and
    labels (T, N), or log-inputs (N, m) and labels (N,) shared by every
    trial. Returns the losses (T,) and a function that returns dL/dalpha
    (T, C, K) and dL/dbeta (T, C, K, m) from `backward`; a caller that needs
    only the loss never runs it. The scores are Phi alpha over the bare
    monomials of `monomials`, whose limit raises OverflowLimitError; a score
    past float range below it gives a non-finite loss, with no numpy warning.
    Every operation stays within one trial's slice, so a trial's values do
    not depend on the rest of the stack.
    """
    n = log_x.shape[-2]
    phi = monomials(betas, log_x)  # (T, N, C, K)
    w = weights[y]
    with np.errstate(over="ignore", invalid="ignore"):
        # (T, C, 1, K) @ (T, C, K, N): Z is a (T, N, C) view of a (T, C, N) block
        Z = (alphas[..., None, :] @ phi.swapaxes(-3, -1).swapaxes(-3, -2))[..., 0, :]
        Z = Z.swapaxes(-1, -2)
        if link == "sigmoid":
            z = Z[..., 0]
            # stable log-sigmoid pieces: ln p = -softplus(-z), ln(1-p) = -softplus(z)
            softplus = np.logaddexp(0.0, np.stack([-z, z]))
            loss = (w * np.where(y == 1, softplus[0], softplus[1])).sum(axis=-1) / n

            def dz():
                return (w * (_sigmoid(z) - y) / n)[..., None]
        else:
            shifted = Z - Z.max(axis=-1, keepdims=True)
            log_norm = np.log(np.exp(shifted).sum(axis=-1))
            log_p = shifted - log_norm[..., None]
            # each trial's and row's own label: (T, 1) and (N,) broadcast with y
            at_label = (np.arange(len(Z))[:, None], np.arange(n), y)
            loss = -(w * log_p[at_label]).sum(axis=-1) / n

            def dz():
                # in the scores' (T, C, N) layout, contiguous for backward
                d = np.exp(log_p)
                d[at_label] -= 1.0
                d *= (w / n)[..., None]
                return d

    def grad():
        with np.errstate(over="ignore", invalid="ignore"):
            return backward(dz(), phi, alphas, log_x)

    return loss, grad


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
    since training handles it with a proximal step. It is the one-trial case
    of the head training uses.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    if X.shape[0] == 0:
        raise DataFormatError("empty batch")
    if y.shape != (X.shape[0],):
        raise DimensionMismatchError(f"{y.size} labels for {X.shape[0]} rows")
    if y.min(initial=0) < 0 or y.max(initial=0) >= model.C:
        raise LabelOutOfRangeError(f"labels must lie in [0, {model.C})")
    if weights is None:
        weights = np.ones(model.C)
    alphas, betas = model._alphas, model._betas
    smooth, grad = _smooth_loss(
        alphas[None], betas[None], log_inputs(X, model.m)[None], y[None], weights, model.link
    )
    loss = float(smooth[0]) + l1_penalty * float(np.sum(np.abs(betas)))
    if not math.isfinite(loss):
        raise NonFiniteLossError("loss is non-finite")
    d_alpha, d_beta = grad()
    return loss, np.concatenate([d_alpha[0].ravel(), d_beta[0].ravel()])


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

    The one-trial case of `fit_trials`: deterministic for a fixed cfg.seed,
    the returned model is the best snapshot by validation loss, and a trial
    that diverges raises its NonFiniteLossError or NonFiniteGradientError.
    """
    (result,) = fit_trials(train, val, [cfg], feature_names, class_names, scaler)
    if isinstance(result, Exception):
        raise result
    return result


def fit_trials(
    train: data_io.Dataset,
    val: data_io.Dataset,
    cfgs: list[ClassifyConfig],
    feature_names: list[str] | None = None,
    class_names: list[str] | None = None,
    scaler: data_io.Scaler | None = None,
) -> list[tuple[EcselModel, FitTrace] | NonFiniteLossError | NonFiniteGradientError]:
    """Train one classifier per config on the same data, the trials stacked.

    Trials that share num_terms, batch_size, link and class_weight_multiplier
    train together in one lockstep loop (`_train_stack`). Each draws its
    initial values and epoch shuffles from its own counter-based stream
    (cfg.seed), and no arithmetic crosses trials, so a trial's model is the
    one it would get alone, and a trial that diverges leaves the stack with
    the error it would raise alone. Returns, in cfg order, (model, trace) for
    each trial that trained, or the NonFiniteLossError or
    NonFiniteGradientError that stopped it. Config and data faults, such as
    a label count that differs from the row count or a negative label, raise
    before any training.
    """
    for cfg in cfgs:
        cfg.validate()
    X, y = np.asarray(train.X, dtype=float), np.asarray(train.y, dtype=int)
    Xv, yv = np.asarray(val.X, dtype=float), np.asarray(val.y, dtype=int)
    if X.shape[0] == 0 or Xv.shape[0] == 0:
        raise DataFormatError("training and validation sets must be non-empty")
    for labels, rows in ((y, X), (yv, Xv)):
        if labels.shape != (len(rows),):
            raise DimensionMismatchError(f"{labels.size} labels for {len(rows)} rows")
        if labels.min() < 0:
            raise LabelOutOfRangeError(f"label {labels.min()} is negative")
    if X.shape[1] != Xv.shape[1]:
        raise DimensionMismatchError("train and validation feature counts differ")
    num_classes = int(max(y.max(), yv.max())) + 1
    if num_classes < 2:
        raise ClassTooSmallError("need at least two classes to train")
    if num_classes != 2 and any(cfg.link == "sigmoid" for cfg in cfgs):
        raise BadConfigError(f"sigmoid link is binary-only, data has {num_classes} classes")
    log_x = log_inputs(X)
    log_xv = log_inputs(Xv)

    groups: dict[tuple, list[int]] = {}
    for i, cfg in enumerate(cfgs):
        key = (cfg.num_terms, cfg.batch_size, cfg.link, cfg.class_weight_multiplier)
        groups.setdefault(key, []).append(i)
    results: list = [None] * len(cfgs)
    for (_, _, link, multiplier), members in groups.items():
        weights = class_weights(y, num_classes, multiplier)
        c_rows = 1 if link == "sigmoid" else num_classes
        stack = [cfgs[i] for i in members]
        outcomes = _train_stack(stack, log_x, y, log_xv, yv, weights, c_rows)
        for i, cfg, outcome in zip(members, stack, outcomes):
            if isinstance(outcome, Exception):
                results[i] = outcome
                continue
            alphas, betas, trace = outcome
            model = EcselModel(
                signomials=[Signomial.from_arrays(alphas[c], betas[c]) for c in range(c_rows)],
                link=link,
                feature_names=feature_names or list(train.feature_names),
                class_names=class_names or (train.class_names if train.class_names else None),
                scaler=scaler,
            )
            if link == "sigmoid":
                model.threshold = select_threshold(model, val, cfg.threshold_grid_step)
            results[i] = (model, trace)
    return results


def _train_stack(cfgs, log_x, y, log_xv, yv, weights, c_rows) -> list:
    """Mini-batch proximal Adam for T trials of one K, batch size and link.

    The trials are the rows of one AdamStack. Each step makes one
    loss-and-gradient call on every live trial's next batch (T, B, m) and one
    stack step; each epoch ends with one forward-only validation loss. A
    trial leaves the stack when its epochs or patience run out, or when it
    diverges. Returns per trial the best snapshot's alphas (C, K) and betas
    (C, K, m) with its FitTrace, or the error that stopped it.
    """
    n, m = log_x.shape
    k, batch, link = cfgs[0].num_terms, cfgs[0].batch_size, cfgs[0].link
    rngs = [np.random.Generator(np.random.Philox(key=cfg.seed)) for cfg in cfgs]
    # alphas then betas, drawn in that order from each trial's stream
    draws = [(0.1 + 0.1 * rng.standard_normal((c_rows, k)),
              0.05 * rng.standard_normal((c_rows, k, m))) for rng in rngs]
    stack = AdamStack(*map(np.array, zip(*draws)), [cfg.learning_rate for cfg in cfgs],
                      [cfg.l1_penalty for cfg in cfgs], GRAD_CLIP_NORM)
    monitors = [EarlyStopMonitor(cfg.patience) for cfg in cfgs]
    traces = [FitTrace() for _ in cfgs]

    def objective(lx, labels):
        """Losses (smooth + L1) of the live trials, and their gradient function."""
        smooth, grad = _smooth_loss(*stack.split(stack.params), lx, labels, weights, link)
        return smooth + stack.penalty(), grad

    def at_epoch(fn, *args):
        """fn(*args), where an overflow is this epoch's NonFiniteLossError."""
        try:
            return fn(*args)
        except OverflowLimitError as exc:
            raise NonFiniteLossError(f"training overflowed at epoch {epoch}: {exc}",
                                     epoch=epoch, stack_index=exc.stack_index) from exc

    def train_step(start):
        """One step of the live trials on their batch at start; their losses."""
        idx = orders[stack.live, start : start + batch]
        loss, grad = objective(log_x[idx], y[idx])
        finite_rows(loss, f"non-finite training loss at epoch {epoch}", epoch)
        stack.step(*grad())
        return loss

    for epoch in range(max(cfg.epochs for cfg in cfgs)):
        orders = np.zeros((len(cfgs), n), dtype=int)  # by index in cfgs
        for t in stack.live:
            orders[t] = rngs[t].permutation(n)
        # per trial, the sum of batch loss times size; for a few trials a list is cheapest
        running = [0.0] * len(cfgs)
        for start in range(0, n, batch):
            loss = stack.run(at_epoch, train_step, start)
            if loss is None:
                break
            size = min(batch, n - start)
            for t, x in zip(stack.live.tolist(), loss.tolist()):
                running[t] += x * size
        val = stack.run(at_epoch, lambda: finite_rows(
            objective(log_xv, yv)[0], f"non-finite validation loss at epoch {epoch}", epoch))
        if val is None:
            break
        go_on = []
        for i, (t, val_loss) in enumerate(zip(stack.live.tolist(), val.tolist())):
            trace = traces[t]
            trace.epochs.append(epoch)
            trace.train_loss.append(running[t] / n)
            trace.val_loss.append(val_loss)
            trace.stopped_early = monitors[t].update(val_loss, stack.params[i], epoch)
            go_on.append(not trace.stopped_early and epoch + 1 < cfgs[t].epochs)
        if not all(go_on):
            stack.keep(np.array(go_on))

    outcomes = []
    for t, (trace, monitor) in enumerate(zip(traces, monitors)):
        if t in stack.errors:
            outcomes.append(stack.errors[t])
            continue
        trace.best_epoch = monitor.best_epoch
        outcomes.append((*stack.split(monitor.best_params), trace))
    return outcomes


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
