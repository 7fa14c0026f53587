"""Symbolic regression with a single signomial.

Fits z(x) = sum_k alpha_k * prod_j x_j^beta_kj to real targets by mean squared
error plus an L1 penalty on the exponents. A single-term fit is a monomial,
whose ln|z| is affine in ln x, so by default it polishes one start, the
least-squares fit of ln|y| on [1, ln x], once: unless that leaves a term to
prune or an exponent to freeze, its polish is the fit. Multi-term fits run
several short proximal-Adam runs over the exponents under L1 to select
structure, then pruning, exponent freezing, and an unpenalized polish of the
leaders' residuals, raced: LM abandons a candidate still above RACE_MARGIN
times the best sum of squares so far after LM_RACE_EVALS evaluations. Both
steps work by variable projection: z is linear in the coefficients, so they
search only the exponents and solve the coefficients by least squares at
every step, and both get the bare monomials from the kernel's
coefficient-free entry `signomial.monomials`. The Adam stage solves all stacked
rows from their K x K normal equations, in one stacked product and one batched
eigh (`_gram_coefficients`). The polish and the log-space start solve in
`_solve_coefficients`: a one-term polish in closed form, since one column has
condition number 1, and every K >= 2 solve by SVD, since those monomials can be
nearly or exactly rank-deficient. The Adam stage takes its loss from an MSE
head linear in the coefficients (`_mse_head`), and its gradient from
`signomial.backward`, as the classifier does. Its restarts run as one
stacked loop over a leading restart axis (the kernel's C axis); a restart that
diverges leaves it. The polish is Levenberg-Marquardt over the nonzero
exponents. Recovered expressions are snapped to canonical form and compared
against the generating equation up to algebraic equivalence.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .data_io import Dataset, check_seed, name_list, save_model
from .errors import (
    AllRestartsFailedError,
    BadConfigError,
    CorruptModelError,
    DataFormatError,
    DimensionMismatchError,
    NonFiniteLossError,
    SignolearnError,
)
from .optim import AdamStack, finite_rows, levenberg_marquardt
from .signomial import (
    DEFAULT_COEF_PRUNE_THRESHOLD,
    DEFAULT_EXPONENT_ZERO_THRESHOLD,
    CanonicalForm,
    Signomial,
    backward,
    canonicalize,
    equivalent,
    evaluate_batch,
    log_inputs,
    monomials,
    numeric_array,
)

# fraction of a range's upper end used as the sampling floor when a benchmark
# domain crosses zero and only its positive part is usable
POSITIVE_PART_FLOOR = 1e-3

# a multi-term fit polishes the POLISHED restarts with the lowest objective
# after its Adam stage, in that order; each after the first races the best
# sum of squares already polished: LM abandons it if, after LM_RACE_EVALS
# residual evaluations, its sum of squares is still above RACE_MARGIN times
# that best
POLISHED = 4
RACE_MARGIN = 10.0

# machine epsilon, which scales the least-squares solves' rank cut-offs
FLOAT_EPS = float(np.finfo(float).eps)


@dataclass
class SrConfig:
    """Knobs for the staged symbolic-regression fit."""

    num_terms: int = 1
    lambda_struct: float = 1e-2
    restarts: int | None = None
    adam_epochs_per_stage: int = 125
    learning_rate: float = 0.05
    seed_list: tuple[int, ...] = (42, 43, 44, 45, 46)
    noise_sigma: float = 0.01

    def validate(self) -> None:
        if self.num_terms < 1:
            raise BadConfigError(f"num_terms must be >= 1, got {self.num_terms}")
        if not (math.isfinite(self.lambda_struct) and self.lambda_struct >= 0):
            raise BadConfigError(f"lambda_struct must be finite and >= 0, got {self.lambda_struct}")
        if self.restarts is not None and self.restarts < 1:
            raise BadConfigError(f"restarts must be >= 1, got {self.restarts}")
        if not self.seed_list:
            raise BadConfigError("seed_list must be non-empty")
        for seed in self.seed_list:
            check_seed(seed)
        if self.adam_epochs_per_stage < 1:
            raise BadConfigError("adam_epochs_per_stage must be >= 1")
        # written so that NaN fails them too
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise BadConfigError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if not (math.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise BadConfigError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")

    def resolved_restarts(self) -> int:
        """restarts, or by default 1 for K=1 (the log-space start is exact for
        a noiseless monomial) and 8 for K>1."""
        if self.restarts is not None:
            return self.restarts
        return 1 if self.num_terms == 1 else 8


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
    candidate_mses: list[float] = field(default_factory=list)
    final_mse: float = math.inf
    stage_a_best_mse: float = math.inf
    pruned_terms: int = 0
    zeroed_exponents: int = 0
    lm_evaluations: int = 0  # residual evaluations over all the fit's polishes
    abandoned_candidates: int = 0  # candidates whose polish lost the race

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "K": self.num_terms,
            "restarts": self.restarts,
            "stageALosses": self.stage_a_losses,
            "candidateMses": self.candidate_mses,
            "finalMse": self.final_mse,
            "stageABestMse": self.stage_a_best_mse,
            "prunedTerms": self.pruned_terms,
            "zeroedExponents": self.zeroed_exponents,
            "lmEvaluations": self.lm_evaluations,
            "abandonedCandidates": self.abandoned_candidates,
        }


@dataclass
class FitScore:
    """Held-out scores; nmse and r2 are None when the targets are constant."""

    mse: float
    nmse: float | None
    r2: float | None

    def to_dict(self) -> dict:
        return {"mse": self.mse, "nmse": self.nmse, "r2": self.r2}


@dataclass(frozen=True)
class RegressorModel:
    """A fitted regression signomial and its feature names: a `regressor` model file."""

    signomial: Signomial
    feature_names: list[str]

    def __post_init__(self):
        # CSV columns are matched to these names, so they must be distinct strings
        names, m = self.feature_names, self.signomial.m
        if len(names) != m or not all(isinstance(n, str) for n in names) or len(set(names)) < m:
            raise DimensionMismatchError(f"feature names {names!r} are not {m} distinct strings")

    def to_dict(self) -> dict:
        return {
            "kind": "regressor",
            "signomial": self.signomial.to_dict(),
            "featureNames": list(self.feature_names),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RegressorModel":
        try:
            s = Signomial.from_dict(data["signomial"])
            # only an absent key means the default names; [] is corrupt
            names = name_list(data, "featureNames")
            if names is None:
                names = [f"x{j + 1}" for j in range(s.m)]
            return cls(s, list(names))
        except (KeyError, TypeError, DimensionMismatchError) as exc:
            raise CorruptModelError(f"invalid regressor payload: {exc}") from exc

    def save(self, path: str) -> None:
        save_model(self.to_dict(), path)


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

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "equivalent": self.recovered,
            "mse": self.mse,
            "nmse": self.nmse,
            "r2": self.r2,
            "nSamples": self.n_samples,
            "canonical": self.canonical.to_signomial().to_dict(),
        }


@dataclass
class RecoveryResult:
    spec_name: str
    seeds: list[SeedRecovery]
    recovery_rate: float

    def to_dict(self) -> dict:
        return {
            "spec": self.spec_name,
            "recoveryRate": self.recovery_rate,
            "seeds": [s.to_dict() for s in self.seeds],
        }


# --- loss -----------------------------------------------------------------------


def _checked_inputs(X, y) -> tuple[np.ndarray, np.ndarray]:
    X = numeric_array(X)
    y = numeric_array(y)
    if X.ndim != 2 or X.shape[0] == 0:
        raise DataFormatError("need a non-empty 2-D feature matrix")
    if y.shape != (X.shape[0],):
        raise DimensionMismatchError(f"{len(y)} targets for {X.shape[0]} rows")
    if not np.all(np.isfinite(y)):
        i = int(np.flatnonzero(~np.isfinite(y))[0])
        raise DataFormatError(f"target row {i} is not finite")
    return X, y


def _mse_head(phi, alphas, log_x, y):
    """MSE and its gradient for C stacked signomials, linear in the coefficients.

    Takes the bare monomials phi (N, C, K) of `monomials` at ln x (N, m) and
    the coefficients alphas (C, K); returns the losses (C,), dL/dalpha
    (C, K) and dL/dbeta (C, K, m). The residual y - Phi alpha is one stacked
    matrix-vector product, and the gradient is `signomial.backward` at
    dz = dL/dz, the one the classifier's head also uses. A loss past float
    range raises NonFiniteLossError naming its signomial in stack_index.
    """
    n = len(y)
    # monomials below the limit can still multiply, square or sum past float
    # range, which is also an infinite loss
    with np.errstate(over="ignore", invalid="ignore"):
        resid = y - (alphas[:, None, :] @ phi.transpose(1, 2, 0))[:, 0]  # (C, N)
        d_alpha, d_beta = backward(((-2.0 / n) * resid).T, phi, alphas, log_x)
        # a stacked dot product: for C = 1 it is bit for bit resid @ resid
        losses = (resid[:, None, :] @ resid[:, :, None])[:, 0, 0] / n
    return finite_rows(losses, "regression loss is non-finite"), d_alpha, d_beta


def _solve_coefficients(phi, rhs):
    """Least-squares coefficients (C, K, ...) of each stacked row's bare
    monomials phi (N, C, K) against rhs (N, ...), shared by every row. The
    rows share no arithmetic: each row's result is the one it gets alone.

    One column (K = 1, a one-term polish) is solved in closed form,
    phi^T rhs / phi^T phi: its condition number is 1, so the normal equation
    loses nothing (Bjorck, "Numerical Methods for Least Squares Problems",
    1996). phi is first divided by its largest |phi|, since monomials reach
    e^700 and phi^T phi passes float range above e^354. An all-zero column
    gets exactly 0, as the SVD's cut-off gives it.

    K >= 2 takes one batched SVD over the (C, N, K) stack, which gives every
    row's minimum-norm solution V diag(1/s) U^T rhs. Singular values at or
    below eps * max(N, K) * s_max are dropped, lstsq's rcond=None cut-off,
    so a rank-deficient phi (two terms sharing an exponent vector, a column
    that underflows to 0, an all-zero phi) still gives finite coefficients.
    The K >= 2 polishes and the log-space start (m + 1 columns) solve by
    SVD, not by the normal equations of `_gram_coefficients`, since those
    square phi's condition number: of the 1,903 polish points of the Jin-2
    fits at seeds 42 to 56 (perfbench's sr-multi-term), 7 had a singular phi
    and 21 more a condition number above 1e6, where the Gram matrix keeps
    too few digits.
    """
    n, c, k = phi.shape
    if k == 1:
        col = phi.reshape(n, 1, c).T  # (C, 1, N)
        top = np.abs(col).max(axis=2, keepdims=True)
        top[top == 0.0] = 1.0  # an all-zero column: its unit column is 0
        # C order, so each row's products are the ones it gets alone
        unit = np.divide(col, top, order="C")
        norm = unit @ unit.transpose(0, 2, 1)
        norm[norm == 0.0] = 1.0
        solved = (unit @ rhs.reshape(n, -1)) / norm / top
        return solved.reshape((c, 1) + rhs.shape[1:])
    u, s, vt = np.linalg.svd(phi.transpose(1, 0, 2), full_matrices=False)
    kept = s > FLOAT_EPS * max(n, k) * s[:, :1]
    inv = np.divide(1.0, s, out=np.zeros_like(s), where=kept)
    ut_rhs = u.transpose(0, 2, 1) @ rhs.reshape(n, -1)
    solved = vt.transpose(0, 2, 1) @ (inv[:, :, None] * ut_rhs)
    return solved.reshape(solved.shape[:2] + rhs.shape[1:])


def _gram_coefficients(phi, y):
    """Least-squares coefficients (C, K) of each stacked row's bare monomials
    phi (N, C, K), a view of `monomials`' rows-last (C, K, N) buffer, against
    y (N,), from the K x K normal equations.

    One stacked product of that buffer, with y appended as a last row, gives
    every row's Gram matrix G = Phi^T Phi and Phi^T y, and one batched eigh
    of G the minimum-norm solution V diag(1/lambda) V^T Phi^T y over the
    eigenvalues above eps * max(N, K) * lambda_max; the rest are G's
    rounding noise. So a repeated exponent row splits its share evenly, and
    a zero column or an all-zero phi gets a coefficient of 0. Each row is
    its own product and its own eigh, so its result is the one it gets alone.

    The normal equations cost a factor of kappa^2 in accuracy, kappa being
    phi's condition number (Bjorck, "Numerical Methods for Least Squares
    Problems", 1996). The Adam stage can afford that: over its 15,120
    solves in the Jin-2 fits at seeds 42 to 56 (perfbench's sr-multi-term)
    kappa had a median of 10^1.5 and a maximum of 10^5.7, and no phi was
    rank-deficient. A Gram matrix past float range gives NaN coefficients,
    with no warning, so the MSE head's loss is non-finite and names the row.
    """
    n, c, k = phi.shape
    with np.errstate(over="ignore", invalid="ignore"):
        rows = np.concatenate([phi.transpose(1, 2, 0), np.broadcast_to(y, (c, 1, n))], axis=1)
        gram = rows @ rows.transpose(0, 2, 1)  # (C, K+1, K+1)
        lam, v = np.linalg.eigh(gram[:, :k, :k])
        cut = FLOAT_EPS * max(n, k) * lam[:, -1:]
        # written so that a NaN eigenvalue, which a Gram matrix past float
        # range gives, is kept and its row's coefficients turn NaN
        inv = np.divide(1.0, lam, out=np.zeros_like(lam), where=~(lam <= cut))
        return (v @ (inv[:, :, None] * (v.transpose(0, 2, 1) @ gram[:, :k, k:])))[:, :, 0]


def sr_loss_and_grad(s: Signomial, X, y, l1_penalty: float = 0.0):
    """Objective (MSE + L1 on exponents) and the smooth part's gradient.

    The gradient comes back flat, coefficients first then exponents row by
    row; the L1 term is reported in the loss but handled by a proximal step
    during training, so it does not contribute to the gradient. An
    overflowing term raises OverflowLimitError, as score_fit does.
    """
    X, y = _checked_inputs(X, y)
    # the head sees only the bare monomials, so the terms are evaluated once
    # as score_fit evaluates them, to raise score_fit's error for an overflow
    evaluate_batch(s, X)
    alphas, betas = s.alphas, s.betas
    log_x = log_inputs(X, s.m)
    loss, d_alpha, d_beta = _mse_head(monomials(betas[None], log_x), alphas[None], log_x, y)
    total = float(loss[0]) + l1_penalty * float(np.sum(np.abs(betas)))
    if not math.isfinite(total):
        raise NonFiniteLossError("regression loss is non-finite")
    return total, np.concatenate([d_alpha[0], d_beta[0].ravel()])


# --- staged fitting ---------------------------------------------------------------


def _adam_stage(betas, log_x, y, lam, epochs, lr):
    """Full-batch proximal Adam over the exponents of R restarts at once,
    betas (R, K, m), by variable projection.

    Each epoch makes one stacked `monomials` call, which gives every
    restart's bare monomials Phi, solves all restarts' coefficients on their
    Phi from the normal equations in one stacked product and one batched
    eigh (`_gram_coefficients`, minimum-norm where a Phi is rank-deficient),
    and takes one AdamStack step on the exponents with the linear MSE head's
    gradient at those coefficients, whose dL/dalpha the stage does not use.
    At the solved coefficients that is the gradient of the projected loss
    (Golub & Pereyra 1973; Newman et al., "Train Like a (Var)Pro", 2021). A
    restart whose loss or gradient turns non-finite leaves the stack, as
    does one whose Gram matrix passes float range. Returns the objectives
    (MSE + lam * L1) (R,), the coefficients solved at the final exponents
    (R, K) and those exponents, inf and NaN for a diverged restart.
    """
    r, k, _ = betas.shape
    # the rows carry no coefficients: every epoch solves them afresh
    stack = AdamStack(np.zeros((r, 0)), betas, lr, lam)

    def projected():
        b = stack.split(stack.params)[1]
        phi = monomials(b, log_x)
        a = _gram_coefficients(phi, y)
        losses, _, d_beta = _mse_head(phi, a, log_x, y)
        return losses, a, d_beta

    for _ in range(epochs):
        stack.run(lambda: stack.step(np.zeros((len(stack.live), 0)), projected()[2]))
    objectives, alphas = np.full(r, math.inf), np.full((r, k), np.nan)
    final = np.full(betas.shape, np.nan)
    last = stack.run(projected)
    if last is not None:
        objectives[stack.live] = last[0] + stack.penalty()
        alphas[stack.live] = last[1]
        final[stack.live] = stack.split(stack.params)[1]
    return objectives, alphas, final


def _polish(betas, log_x, y, ceiling=math.inf):
    """Levenberg-Marquardt over the nonzero exponents by variable projection.

    z is linear in the coefficients, so at any exponents the best ones solve a
    least-squares problem against the bare monomials Phi (N, K). LM searches
    only the exponents, zeroed ones stay frozen, on the residual Phi alpha - y
    with Kaufman's Jacobian: the columns of (I - Phi Phi^+) dPhi/dbeta, each
    scaled by its term's alpha (Golub & Pereyra 1973; Kaufman 1975). LM stops
    on any of `levenberg_marquardt`'s stops, the noise-floor one ("model")
    included, and abandons the race ("abandoned") if its sum of squares is
    still above ceiling at an accepted step after LM_RACE_EVALS evaluations.
    Returns the coefficients projected at the final exponents, the
    exponents, their MSE and LM's `LmResult`, None when every exponent is
    frozen. A point where a monomial overflows is a rejected step, and a
    start where one does raises NonFiniteObjectiveError. Each
    point's Phi comes from one `monomials` call, and its coefficients and
    projection from one C = 1 `_solve_coefficients` call: in closed form for
    one term, whose one column has condition number 1, scaled against
    overflow, and by SVD for K >= 2, whose minimum-norm solution stays
    finite when Phi is rank-deficient or nearly so. With one term the
    residual and Jacobian take elementwise products where K >= 2 takes
    matmuls, the same bits for one column. Every projection LM
    makes is kept by its exponents, and LM returns one of its points, so the
    result is that point's projection, not a new one; only a point LM never
    evaluated, as when every exponent is frozen, is projected afterwards.
    """
    k, m = betas.shape
    free = np.flatnonzero(betas.ravel())
    term, feature = np.divmod(free, m)
    log_x_free = log_x[:, feature]
    projected = {}  # theta's bytes -> (coefficients, exponents, sum of squares)

    def project(theta):
        b = np.zeros(k * m)
        b[free] = theta
        b = b.reshape(k, m)
        phi = monomials(b[None], log_x)
        d_phi = phi[:, 0, term] * log_x_free
        # for K >= 2 the SVD's last digits follow the right-hand side's
        # memory order, which column_stack chooses from its operands
        solved = _solve_coefficients(phi, np.column_stack([y, d_phi]))[0]
        phi, a = phi[:, 0], solved[:, 0]
        if k == 1:
            # one column: phi @ v is one multiply per entry, so elementwise
            # products give its bits at less cost; the outer product is laid
            # out column-major, as d_phi is, which numpy subtracts fastest
            col, coef = phi[:, 0], solved[0]
            r = col * coef[0] - y
            jac = (d_phi - (coef[1:, None] * col).T) * coef[0]
        else:
            r = phi @ a - y
            jac = (d_phi - phi @ solved[:, 1:]) * a[term]
        projected[theta.tobytes()] = a, b, float(r @ r)
        return r, jac

    theta, run = betas.ravel()[free], None
    if len(free):
        run = levenberg_marquardt(project, theta, ceiling=ceiling)
        theta = run.x
    key = theta.tobytes()
    if key not in projected:
        project(theta)
    a, b, sse = projected[key]
    return a, b, sse / len(y), run


def _log_start(log_x, y):
    """Exponents (1, m) of the least-squares fit of ln|y| on [1, ln x].

    ln|alpha * prod_j x_j^beta_j| = ln|alpha| + beta . ln x, so for a
    noiseless monomial this is the truth (Boyd et al., "A tutorial on
    geometric programming", 2007). Rows with y = 0 have no logarithm and are
    left out; with none left the start is beta = 0. The design matrix is
    solved as a C = 1 stack by `_solve_coefficients`. The intercept and the
    sign are not kept: the polish solves the coefficient.
    """
    rows = y != 0
    if not rows.any():
        return np.zeros((1, log_x.shape[1]))
    design = np.column_stack([np.ones(int(rows.sum())), log_x[rows]])
    solved = _solve_coefficients(design[:, None], np.log(np.abs(y[rows])))
    return solved[:, 1:]


def _prune_freeze_polish(alphas, betas, log_x, y, mse, ceiling=math.inf):
    """Alternate pruning and polishing until the sparsity pattern is stable.

    Returns (alphas, betas, mse, pruned_terms, zeroed_exponents, runs); terms
    with tiny coefficients are dropped, tiny exponents are pinned at exactly
    zero, and each change triggers a fresh unpenalized polish of the
    survivors, racing ceiling on the sum of squares; runs holds each polish's
    `LmResult`. A polish that LM abandons ends the loop, since the candidate
    cannot win. mse is the MSE of a candidate the caller has polished, or
    None; one with nothing to prune or freeze comes back without a second
    polish.
    """
    a, b = np.array(alphas, dtype=float), np.array(betas, dtype=float)
    small = np.abs(b) < DEFAULT_EXPONENT_ZERO_THRESHOLD
    pruned, zeroed, runs = 0, int(np.count_nonzero(b[small])), []
    if mse is not None and not zeroed and (np.abs(a) >= DEFAULT_COEF_PRUNE_THRESHOLD).all():
        return a, b, mse, pruned, zeroed, runs
    b[small] = 0.0
    while True:
        keep = np.abs(a) >= DEFAULT_COEF_PRUNE_THRESHOLD
        pruned += int(np.sum(~keep))
        a, b = a[keep], b[keep]
        if len(a) == 0:
            return a, b, float(y @ y) / len(y), pruned, zeroed, runs
        a, b, mse, run = _polish(b, log_x, y, ceiling)
        if run is not None:
            runs.append(run)
            if run.stop == "abandoned":
                return a, b, mse, pruned, zeroed, runs
        small_beta = (b != 0.0) & (np.abs(b) < DEFAULT_EXPONENT_ZERO_THRESHOLD)
        small_alpha = np.abs(a) < DEFAULT_COEF_PRUNE_THRESHOLD
        if not small_beta.any() and not small_alpha.any():
            return a, b, mse, pruned, zeroed, runs
        zeroed += int(small_beta.sum())
        b[small_beta] = 0.0


def fit_sr(X, y, cfg: SrConfig, seed: int = 0) -> tuple[Signomial, FitStats]:
    """Fit one signomial to (X, y) with the staged multi-start strategy.

    K=1 polishes the exponents of each start on the raw residuals and keeps
    the lowest loss: start 0 is the log-space least-squares monomial
    (`_log_start`), any further ones (cfg.restarts > 1) the seeded random
    draws. A start's coefficient is not used, since the polish solves it by
    least squares at every step; the winner is polished again only to prune
    a term or freeze an exponent. K>1 runs one stage of proximal Adam over
    the exponents of all restarts in one stacked loop under lambda_struct,
    solving the coefficients by least squares every epoch (`_adam_stage`),
    then prunes, freezes and polishes the best POLISHED of them, in order of
    their Adam objective, as a race: each candidate after the first is
    abandoned once LM has made LM_RACE_EVALS residual evaluations on it and
    its sum of squares is still above RACE_MARGIN times the lowest final sum
    of squares among the candidates before it. An abandoned candidate keeps
    the MSE of the point LM stopped at, more than RACE_MARGIN times the
    leader's, so it ranks behind the leader without a special case. Both
    polish by variable-projection Levenberg-Marquardt (`_polish`); the first
    candidate and every K=1 polish run with no ceiling. Candidates are
    always ranked by (loss, restart index), so ties break deterministically.
    """
    cfg.validate()
    check_seed(seed)
    X, y = _checked_inputs(X, y)
    k, m = cfg.num_terms, X.shape[1]
    log_x = log_inputs(X)
    restarts = cfg.resolved_restarts()
    rng = np.random.Generator(np.random.Philox(key=seed))
    # no fit uses the coefficient draws, since both kinds solve their
    # coefficients; they stay in the stream so that each seed keeps the
    # exponent starts it drew before the Adam stage stopped training them
    inits = [
        (rng.standard_normal(k), rng.standard_normal((k, m)))
        for _ in range(restarts)
    ]
    stats = FitStats(seed=seed, num_terms=k, restarts=restarts)

    # candidate pool entries: (sort_loss, order_index, alphas, betas)
    pool: list[tuple[float, int, np.ndarray, np.ndarray]] = []

    if k == 1:
        # the polish freezes an exponent that starts at exactly zero, as the
        # log start of an all-zero y does; the random draws never do
        starts = [_log_start(log_x, y)] + [b for _, b in inits[1:]]
        for r, b0 in enumerate(starts):
            try:
                a, b, loss, run = _polish(b0, log_x, y)
            except SignolearnError:
                stats.stage_a_losses.append(math.inf)
                continue
            stats.lm_evaluations += run.evaluations if run is not None else 0
            stats.stage_a_losses.append(loss)
            if math.isfinite(loss):
                pool.append((loss, r, a, b))
        if not pool:
            raise AllRestartsFailedError(f"all {restarts} restarts diverged (seed {seed})")
        pool.sort(key=lambda c: (c[0], c[1]))
        pool = pool[:1]
    else:
        # the Adam stage runs against variance-scaled targets so the L1
        # strength means the same thing whatever the raw target magnitude;
        # the final polish happens on raw targets with the penalty off
        scale = float(np.std(y)) or 1.0
        losses, alphas, betas = _adam_stage(
            np.array([b for _, b in inits]), log_x, y / scale, cfg.lambda_struct,
            cfg.adam_epochs_per_stage, cfg.learning_rate,
        )
        stats.stage_a_losses = losses.tolist()
        ranked = sorted((loss, r) for r, loss in enumerate(stats.stage_a_losses)
                        if math.isfinite(loss))
        if not ranked:
            raise AllRestartsFailedError(f"all {restarts} restarts diverged (seed {seed})")
        pool = [(loss, r, alphas[r] * scale, betas[r]) for loss, r in ranked[:POLISHED]]

    finals = []
    ceiling = math.inf  # on the sum of squares; the first candidate has none
    for order, (loss, _, a, b) in enumerate(pool):
        # a K=1 candidate comes polished, its loss the MSE of that polish
        a2, b2, mse, pruned, zeroed, polishes = _prune_freeze_polish(
            a, b, log_x, y, loss if k == 1 else None, ceiling)
        stats.lm_evaluations += sum(run.evaluations for run in polishes)
        stats.abandoned_candidates += any(run.stop == "abandoned" for run in polishes)
        stats.candidate_mses.append(mse)
        finals.append((mse, order, a2, b2, pruned, zeroed))
        ceiling = min(ceiling, RACE_MARGIN * mse * len(y))
    finals.sort(key=lambda c: (c[0], c[1]))
    mse, _, a_fin, b_fin, pruned, zeroed = finals[0]
    stats.final_mse = mse
    stats.stage_a_best_mse = stats.candidate_mses[0] if k > 1 else mse
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
    if not (math.isfinite(noise_sigma) and noise_sigma >= 0):
        raise BadConfigError(f"noise_sigma must be finite and >= 0, got {noise_sigma}")
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

    Constant targets leave nmse and r2 undefined, so they come back None.
    """
    X, y = _checked_inputs(X, y)
    z, _ = evaluate_batch(s, X)
    mse = float(np.mean((y - z) ** 2))
    ss_tot = float(np.mean((y - y.mean()) ** 2))
    if ss_tot == 0.0:
        return FitScore(mse=mse, nmse=None, r2=None)
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
    truth = canonicalize(spec.truth)
    seeds = []
    for seed in cfg.seed_list:
        n_rng = np.random.default_rng([seed, 7])
        n = int(n_rng.integers(spec.samples[0], spec.samples[1] + 1))
        data = generate_benchmark_data(spec, n, cfg.noise_sigma, seed)
        t0 = time.perf_counter()
        fitted, _ = fit_sr(data.X, data.y, cfg, seed)
        elapsed = time.perf_counter() - t0
        canon = canonicalize(fitted)
        recovered = equivalent(canon, truth)
        holdout = generate_benchmark_data(spec, spec.samples[1], 0.0, seed + 10_000)
        score = score_fit(fitted, holdout.X, holdout.y)
        seeds.append(
            SeedRecovery(
                seed=seed, canonical=canon, recovered=recovered, mse=score.mse,
                nmse=score.nmse, r2=score.r2, wall_time_seconds=elapsed, n_samples=n,
            )
        )
    rate = sum(s.recovered for s in seeds) / len(seeds)
    return RecoveryResult(spec_name=spec.name, seeds=seeds, recovery_rate=rate)
