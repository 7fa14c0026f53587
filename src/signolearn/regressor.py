"""Symbolic regression with a single signomial.

Fits z(x) = sum_k alpha_k * prod_j x_j^beta_kj to real targets by mean squared
error plus an L1 penalty on the exponents. Single-term fits run multi-start
L-BFGS directly; multi-term fits run a staged pipeline: several short Adam
runs under strong L1 to discover structure, refinement of the leaders under
weak L1, then pruning, exponent freezing, and an unpenalized L-BFGS polish.
Recovered expressions are snapped to canonical form and compared against the
generating equation up to algebraic equivalence.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .data_io import Dataset
from .errors import (
    AllRestartsFailedError,
    BadConfigError,
    DataFormatError,
    DimensionMismatchError,
    NonFiniteGradientError,
    NonFiniteLossError,
    OverflowLimitError,
    SignolearnError,
    ZeroVarianceError,
)
from .optim import AdamConfig, AdamState, ParamLayout, adam_step, lbfgs_minimize, prox_l1
from .signomial import (
    DEFAULT_COEF_PRUNE_THRESHOLD,
    DEFAULT_EXPONENT_ZERO_THRESHOLD,
    DEFAULT_SNAP_TOLERANCE,
    CanonicalForm,
    Signomial,
    backward,
    canonicalize,
    equivalent,
    evaluate_batch,
    forward,
    log_coefficients,
    log_inputs,
)

# fraction of a range's upper end used as the sampling floor when a benchmark
# domain crosses zero and only its positive part is usable
POSITIVE_PART_FLOOR = 1e-3


@dataclass
class SrConfig:
    """Knobs for the staged symbolic-regression fit."""

    num_terms: int = 1
    lambda_struct: float = 1e-2
    lambda_refine: float = 1e-3
    restarts: int | None = None
    adam_epochs_per_stage: int = 500
    learning_rate: float = 0.05
    seed_list: tuple[int, ...] = (42, 43, 44, 45, 46)
    snap_tolerance: float = DEFAULT_SNAP_TOLERANCE
    coef_prune_threshold: float = DEFAULT_COEF_PRUNE_THRESHOLD
    exponent_zero_threshold: float = DEFAULT_EXPONENT_ZERO_THRESHOLD
    noise_sigma: float = 0.01

    def validate(self) -> None:
        if self.num_terms < 1:
            raise BadConfigError(f"num_terms must be >= 1, got {self.num_terms}")
        if not self.lambda_struct >= self.lambda_refine >= 0:
            raise BadConfigError(
                "need lambda_struct >= lambda_refine >= 0, got "
                f"{self.lambda_struct} and {self.lambda_refine}"
            )
        if self.restarts is not None and self.restarts < 1:
            raise BadConfigError(f"restarts must be >= 1, got {self.restarts}")
        if not self.seed_list:
            raise BadConfigError("seed_list must be non-empty")
        if self.adam_epochs_per_stage < 1:
            raise BadConfigError("adam_epochs_per_stage must be >= 1")
        if self.learning_rate <= 0:
            raise BadConfigError("learning_rate must be > 0")
        if self.noise_sigma < 0:
            raise BadConfigError("noise_sigma must be >= 0")

    def resolved_restarts(self) -> int:
        if self.restarts is not None:
            return self.restarts
        return 4 if self.num_terms == 1 else 8


@dataclass(frozen=True)
class TargetSpec:
    """A benchmark equation: ground truth plus its sampling protocol."""

    name: str
    truth: Signomial
    ranges: tuple[tuple[float, float], ...]
    samples: tuple[int, int]
    num_terms: int
    positive_domain_only: bool = False

    def __post_init__(self):
        if self.truth.m != len(self.ranges):
            raise DimensionMismatchError(
                f"{self.name}: truth has {self.truth.m} features, "
                f"{len(self.ranges)} ranges given"
            )
        if self.samples[0] > self.samples[1] or self.samples[0] < 1:
            raise DataFormatError(f"{self.name}: bad sample-count range {self.samples}")
        for j, (lo, hi) in enumerate(self.effective_ranges()):
            if not (math.isfinite(lo) and math.isfinite(hi)) or lo >= hi:
                raise DataFormatError(f"{self.name}: range {j} is empty: [{lo}, {hi}]")
            if lo <= 0:
                raise DataFormatError(
                    f"{self.name}: range {j} includes non-positive values; "
                    "set positiveDomainOnly or adjust the range"
                )

    def effective_ranges(self) -> tuple[tuple[float, float], ...]:
        """Sampling ranges after restricting to the positive part if asked."""
        if not self.positive_domain_only:
            return self.ranges
        return tuple(
            (max(lo, POSITIVE_PART_FLOOR * hi), hi) for lo, hi in self.ranges
        )

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "truth": self.truth.to_dict(),
            "ranges": [list(r) for r in self.ranges],
            "samples": list(self.samples),
            "K": self.num_terms,
            "positiveDomainOnly": self.positive_domain_only,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TargetSpec":
        try:
            return cls(
                name=data["name"],
                truth=Signomial.from_dict(data["truth"]),
                ranges=tuple(tuple(map(float, r)) for r in data["ranges"]),
                samples=(int(data["samples"][0]), int(data["samples"][1])),
                num_terms=int(data["K"]),
                positive_domain_only=bool(data.get("positiveDomainOnly", False)),
            )
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            raise DataFormatError(f"invalid target spec: {exc}") from exc


@dataclass
class FitStats:
    """Bookkeeping from one fit_sr run."""

    seed: int
    num_terms: int
    restarts: int
    stage_a_losses: list[float] = field(default_factory=list)
    refined_losses: list[float] = field(default_factory=list)
    candidate_mses: list[float] = field(default_factory=list)
    final_mse: float = math.inf
    stage_a_best_mse: float = math.inf
    pruned_terms: int = 0
    zeroed_exponents: int = 0

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "K": self.num_terms,
            "restarts": self.restarts,
            "stageALosses": self.stage_a_losses,
            "refinedLosses": self.refined_losses,
            "candidateMses": self.candidate_mses,
            "finalMse": self.final_mse,
            "stageABestMse": self.stage_a_best_mse,
            "prunedTerms": self.pruned_terms,
            "zeroedExponents": self.zeroed_exponents,
        }


@dataclass
class FitScore:
    mse: float
    nmse: float
    r2: float


@dataclass
class SeedRecovery:
    seed: int
    canonical: CanonicalForm
    recovered: bool
    mse: float
    nmse: float | None
    r2: float | None
    wall_time_seconds: float
    n_samples: int

    def to_dict(self, include_timing: bool = False) -> dict:
        out = {
            "seed": self.seed,
            "equivalent": self.recovered,
            "mse": self.mse,
            "nmse": self.nmse,
            "r2": self.r2,
            "nSamples": self.n_samples,
            "canonical": self.canonical.to_signomial().to_dict(),
        }
        if include_timing:
            out["wallTimeSeconds"] = self.wall_time_seconds
        return out


@dataclass
class RecoveryResult:
    spec_name: str
    seeds: list[SeedRecovery]
    recovery_rate: float

    def to_dict(self, include_timing: bool = False) -> dict:
        return {
            "spec": self.spec_name,
            "recoveryRate": self.recovery_rate,
            "seeds": [s.to_dict(include_timing) for s in self.seeds],
        }


# --- loss -----------------------------------------------------------------------


def _checked_inputs(X, y) -> tuple[np.ndarray, np.ndarray]:
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or X.shape[0] == 0:
        raise DataFormatError("need a non-empty 2-D feature matrix")
    if y.shape != (X.shape[0],):
        raise DimensionMismatchError(f"{len(y)} targets for {X.shape[0]} rows")
    if not np.all(np.isfinite(y)):
        i = int(np.flatnonzero(~np.isfinite(y))[0])
        raise DataFormatError(f"target row {i} is not finite")
    return X, y


def _sr_smooth(alphas, betas, log_x, y):
    """MSE and its gradient w.r.t. (alphas, betas): the kernel with C = 1.

    An overflowing term makes the loss inf with an undefined (NaN) gradient,
    so Adam counts the restart as diverged and the L-BFGS line search rejects
    the probe.
    """
    n = log_x.shape[0]
    sign, log_abs = log_coefficients(alphas)
    # terms below the limit can still square or sum past float range far out
    # along a line search, which is also an infinite loss
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            mono_log, per_term = forward(sign[None], log_abs[None], betas[None], log_x)
            resid = y - per_term[:, 0, :].sum(axis=1)
            dz = (-2.0 / n) * resid
            d_alpha, d_beta = backward(dz[:, None], mono_log, per_term, log_x)
        except OverflowLimitError:
            return math.inf, np.full_like(alphas, np.nan), np.full_like(betas, np.nan)
        return float(resid @ resid) / n, d_alpha[0], d_beta[0]


def sr_loss_and_grad(s: Signomial, X, y, l1_penalty: float = 0.0):
    """Objective (MSE + L1 on exponents) and the smooth part's gradient.

    The gradient comes back flat, coefficients first then exponents row by
    row; the L1 term is reported in the loss but handled by a proximal step
    during training, so it does not contribute to the gradient.
    """
    X, y = _checked_inputs(X, y)
    alphas, betas = s.alphas, s.betas
    loss, d_alpha, d_beta = _sr_smooth(alphas, betas, log_inputs(X, s.m), y)
    total = loss + l1_penalty * float(np.sum(np.abs(betas)))
    if not math.isfinite(total):
        raise NonFiniteLossError("regression loss is non-finite")
    layout = ParamLayout(alpha_shape=alphas.shape, beta_shape=betas.shape)
    return total, layout.pack(d_alpha, d_beta)


# --- staged fitting ---------------------------------------------------------------


def _adam_stage(alphas, betas, log_x, y, lam, epochs, lr):
    """Full-batch Adam with a proximal L1 step; None when the run diverges."""
    layout = ParamLayout(alpha_shape=alphas.shape, beta_shape=betas.shape)
    params = layout.pack(alphas, betas)
    state = AdamState.init(layout.size)
    cfg = AdamConfig(learning_rate=lr, clip_norm=None)
    mask = layout.beta_mask()
    for _ in range(epochs):
        a, b = layout.unpack(params)
        loss, d_alpha, d_beta = _sr_smooth(a, b, log_x, y)
        if not math.isfinite(loss):
            return None
        grad = layout.pack(d_alpha, d_beta)
        try:
            params = adam_step(state, params, grad, cfg)
        except NonFiniteGradientError:
            return None
        params = prox_l1(params, mask, lr, lam)
    a, b = layout.unpack(params)
    loss, _, _ = _sr_smooth(a, b, log_x, y)
    if not math.isfinite(loss):
        return None
    return loss + lam * float(np.sum(np.abs(b))), loss, a, b


def _polish(alphas, betas, log_x, y):
    """L-BFGS on the surviving parameters with zeroed exponents frozen."""
    free = betas != 0.0
    k = len(alphas)
    layout_free = np.flatnonzero(free.ravel())

    def unpack(theta):
        a = theta[:k]
        b = np.zeros_like(betas).ravel()
        b[layout_free] = theta[k:]
        return a, b.reshape(betas.shape)

    def obj(theta):
        a, b = unpack(theta)
        loss, d_alpha, d_beta = _sr_smooth(a, b, log_x, y)
        return loss, np.concatenate([d_alpha, d_beta.ravel()[layout_free]])

    theta0 = np.concatenate([alphas, betas.ravel()[layout_free]])
    res = lbfgs_minimize(obj, theta0)
    a, b = unpack(res.x)
    return a, b, res.loss


def _prune_freeze_polish(alphas, betas, log_x, y, cfg: SrConfig):
    """Alternate pruning and polishing until the sparsity pattern is stable.

    Returns (alphas, betas, mse, pruned_terms, zeroed_exponents); terms with
    tiny coefficients are dropped, tiny exponents are pinned at exactly zero,
    and each change triggers a fresh unpenalized polish of the survivors.
    """
    a, b = np.array(alphas, dtype=float), np.array(betas, dtype=float)
    pruned = zeroed = 0
    b[np.abs(b) < cfg.exponent_zero_threshold] = 0.0
    while True:
        keep = np.abs(a) >= cfg.coef_prune_threshold
        pruned += int(np.sum(~keep))
        a, b = a[keep], b[keep]
        if len(a) == 0:
            return a, b, float(y @ y) / len(y), pruned, zeroed
        a, b, mse = _polish(a, b, log_x, y)
        small_beta = (b != 0.0) & (np.abs(b) < cfg.exponent_zero_threshold)
        small_alpha = np.abs(a) < cfg.coef_prune_threshold
        if not small_beta.any() and not small_alpha.any():
            return a, b, mse, pruned, zeroed
        zeroed += int(small_beta.sum())
        b[small_beta] = 0.0


def fit_sr(X, y, cfg: SrConfig, seed: int = 0) -> tuple[Signomial, FitStats]:
    """Fit one signomial to (X, y) with the staged multi-start strategy.

    K=1 runs multi-start L-BFGS on the raw MSE and keeps the lowest loss;
    K>1 runs short strongly-penalized Adam per restart, refines the top three
    under a weaker penalty, then prunes, freezes and polishes. Candidates are
    always ranked by (loss, restart index), so ties break deterministically.
    """
    cfg.validate()
    X, y = _checked_inputs(X, y)
    k, m = cfg.num_terms, X.shape[1]
    log_x = log_inputs(X)
    restarts = cfg.resolved_restarts()
    rng = np.random.Generator(np.random.Philox(key=seed))
    inits = [
        (rng.standard_normal(k), rng.standard_normal((k, m)))
        for _ in range(restarts)
    ]
    stats = FitStats(seed=seed, num_terms=k, restarts=restarts)

    # candidate pool entries: (sort_loss, order_index, alphas, betas)
    pool: list[tuple[float, int, np.ndarray, np.ndarray]] = []

    if k == 1:
        layout = ParamLayout(alpha_shape=(k,), beta_shape=(k, m))

        def obj(theta):
            a, b = layout.unpack(theta)
            loss, d_alpha, d_beta = _sr_smooth(a, b, log_x, y)
            return loss, layout.pack(d_alpha, d_beta)

        for r, (a0, b0) in enumerate(inits):
            try:
                res = lbfgs_minimize(obj, layout.pack(a0, b0))
            except SignolearnError:
                stats.stage_a_losses.append(math.inf)
                continue
            stats.stage_a_losses.append(res.loss)
            if math.isfinite(res.loss):
                a, b = layout.unpack(res.x)
                pool.append((res.loss, r, a, b))
        if not pool:
            raise AllRestartsFailedError(f"all {restarts} restarts diverged (seed {seed})")
        pool.sort(key=lambda c: (c[0], c[1]))
        pool = pool[:1]
    else:
        # the Adam stages run against variance-scaled targets so the L1
        # strength means the same thing whatever the raw target magnitude;
        # the final polish happens on raw targets with the penalty off
        scale = float(np.std(y)) or 1.0
        y_scaled = y / scale
        stage_a: list[tuple[float, int, np.ndarray, np.ndarray]] = []
        for r, (a0, b0) in enumerate(inits):
            out = _adam_stage(
                a0, b0, log_x, y_scaled, cfg.lambda_struct,
                cfg.adam_epochs_per_stage, cfg.learning_rate,
            )
            if out is None:
                stats.stage_a_losses.append(math.inf)
                continue
            obj_val, _, a, b = out
            stats.stage_a_losses.append(obj_val)
            stage_a.append((obj_val, r, a, b))
        if not stage_a:
            raise AllRestartsFailedError(f"all {restarts} restarts diverged (seed {seed})")
        stage_a.sort(key=lambda c: (c[0], c[1]))

        for rank, (_, r, a, b) in enumerate(stage_a[:3]):
            out = _adam_stage(
                a, b, log_x, y_scaled, cfg.lambda_refine,
                cfg.adam_epochs_per_stage, cfg.learning_rate,
            )
            if out is None:
                stats.refined_losses.append(math.inf)
                continue
            obj_val, _, a2, b2 = out
            stats.refined_losses.append(obj_val)
            pool.append((obj_val, rank, a2 * scale, b2))
        # the best stage-A candidate joins the pool unrefined, which both
        # rescues the fit when refinement diverges and pins the guarantee
        # that the final answer is at least as good as stage A polished
        best_a = stage_a[0]
        pool.append((best_a[0], len(pool), best_a[2] * scale, best_a[3]))

    finals = []
    for order, (_, _, a, b) in enumerate(pool):
        a2, b2, mse, pruned, zeroed = _prune_freeze_polish(a, b, log_x, y, cfg)
        stats.candidate_mses.append(mse)
        finals.append((mse, order, a2, b2, pruned, zeroed))
    finals.sort(key=lambda c: (c[0], c[1]))
    mse, _, a_fin, b_fin, pruned, zeroed = finals[0]
    stats.final_mse = mse
    stats.stage_a_best_mse = stats.candidate_mses[-1] if k > 1 else mse
    stats.pruned_terms = pruned
    stats.zeroed_exponents = zeroed
    return Signomial.from_arrays(a_fin, b_fin), stats


# --- benchmark data ----------------------------------------------------------------


def generate_benchmark_data(
    spec: TargetSpec, n_samples: int, noise_sigma: float, seed: int
) -> Dataset:
    """Sample features uniformly per range and evaluate the ground truth.

    Deterministic for fixed arguments; Gaussian noise of the given sigma is
    added to the targets. Sampling restricts to the positive part of each
    range when the spec says so; no other shifting or scaling is applied, so
    fitted equations live in the same frame as the ground truth.
    """
    if not spec.samples[0] <= n_samples <= spec.samples[1]:
        raise BadConfigError(
            f"{spec.name}: n_samples {n_samples} outside {list(spec.samples)}"
        )
    if noise_sigma < 0:
        raise BadConfigError(f"noise_sigma must be >= 0, got {noise_sigma}")
    rng = np.random.default_rng(seed)
    ranges = spec.effective_ranges()
    X = np.column_stack([rng.uniform(lo, hi, size=n_samples) for lo, hi in ranges])
    y, _ = evaluate_batch(spec.truth, X)
    if noise_sigma > 0:
        y = y + noise_sigma * rng.standard_normal(n_samples)
    names = [f"x{j + 1}" for j in range(spec.truth.m)]
    return Dataset(X=X, y=y, feature_names=names, class_names=None)


def score_fit(s: Signomial, X, y) -> FitScore:
    """MSE, variance-normalized MSE, and R^2 of a fitted signomial.

    Raises ZeroVarianceError when the targets are constant; the exception
    carries the (still well-defined) mse attribute.
    """
    X, y = _checked_inputs(X, y)
    z, _ = evaluate_batch(s, X)
    mse = float(np.mean((y - z) ** 2))
    ss_tot = float(np.mean((y - y.mean()) ** 2))
    if ss_tot == 0.0:
        err = ZeroVarianceError("targets are constant; nmse and r2 are undefined")
        err.mse = mse
        raise err
    return FitScore(mse=mse, nmse=mse / ss_tot, r2=1.0 - mse / ss_tot)


def evaluate_recovery(spec: TargetSpec, cfg: SrConfig) -> RecoveryResult:
    """Run the full recovery protocol for one benchmark equation.

    Per seed: draw a sample count from the spec's range, generate noisy data,
    fit, canonicalize, and compare against the canonical ground truth. The
    returned metrics are computed on a held-out noiseless draw so a fit that
    misses the structure still shows its numerical accuracy; wall time covers
    the fit call only.
    """
    cfg.validate()
    truth = canonicalize(
        spec.truth, cfg.snap_tolerance, cfg.coef_prune_threshold,
        cfg.exponent_zero_threshold,
    )
    seeds = []
    for seed in cfg.seed_list:
        n_rng = np.random.default_rng([seed, 7])
        n = int(n_rng.integers(spec.samples[0], spec.samples[1] + 1))
        data = generate_benchmark_data(spec, n, cfg.noise_sigma, seed)
        t0 = time.perf_counter()
        fitted, _ = fit_sr(data.X, data.y, cfg, seed)
        elapsed = time.perf_counter() - t0
        canon = canonicalize(
            fitted, cfg.snap_tolerance, cfg.coef_prune_threshold,
            cfg.exponent_zero_threshold,
        )
        recovered = equivalent(canon, truth)
        holdout = generate_benchmark_data(spec, spec.samples[1], 0.0, seed + 10_000)
        try:
            score = score_fit(fitted, holdout.X, holdout.y)
            mse, nmse, r2 = score.mse, score.nmse, score.r2
        except ZeroVarianceError as exc:
            mse, nmse, r2 = exc.mse, None, None
        seeds.append(
            SeedRecovery(
                seed=seed, canonical=canon, recovered=recovered, mse=mse,
                nmse=nmse, r2=r2, wall_time_seconds=elapsed, n_samples=n,
            )
        )
    rate = sum(s.recovered for s in seeds) / len(seeds)
    return RecoveryResult(spec_name=spec.name, seeds=seeds, recovery_rate=rate)
