"""Signomial expressions: weighted sums of power-law terms.

A signomial over m positive inputs is

    z(x) = sum_k alpha_k * prod_j x_j ** beta_kj

with real coefficients alpha_k and real exponents beta_kj. Evaluation runs in
the log domain, sign(alpha_k) * exp(ln|alpha_k| + sum_j beta_kj * ln x_j), so
large positive and negative exponents are handled symmetrically; a term whose
log-magnitude exceeds LOG_MAGNITUDE_LIMIT raises OverflowLimitError instead of
silently producing inf.

One kernel does this for the whole package: `log_inputs` checks and logs the
inputs, `forward` evaluates C stacked signomials at once; `monomials` gives
the bare monomials exp(beta . ln x) of such a stack, and `backward` the
parameter gradient of its scores Phi alpha, linear in the coefficients.
Evaluation, prediction and the explanations are thin heads over `forward`;
both trainers, the classifier's and the regressor's, train on `monomials`
and `backward`. Both entries share one beta . ln x matmul.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DataFormatError,
    DimensionMismatchError,
    NameCountMismatchError,
    NonPositiveInputError,
    OverflowLimitError,
)

# exp() overflows float64 a little above 709; stop short of it.
LOG_MAGNITUDE_LIMIT = 700.0

DEFAULT_SNAP_TOLERANCE = 0.02
DEFAULT_COEF_PRUNE_THRESHOLD = 1e-4
DEFAULT_EXPONENT_ZERO_THRESHOLD = 5e-3
DEFAULT_EXPONENT_TOLERANCE = 0.02
DEFAULT_COEF_RELATIVE_TOLERANCE = 0.05

# Preferred rational exponents p/q with q <= 6 and |p| <= 12, deduplicated.
_MAX_DENOMINATOR = 6
_MAX_NUMERATOR = 12


def _build_snap_table() -> list[tuple[float, int, int]]:
    best: dict[Fraction, tuple[int, int]] = {}
    for q in range(1, _MAX_DENOMINATOR + 1):
        for p in range(-_MAX_NUMERATOR, _MAX_NUMERATOR + 1):
            frac = Fraction(p, q)
            key = (q, abs(p))
            if frac not in best or key < (best[frac][1], abs(best[frac][0])):
                best[frac] = (p, q)
    table = [(float(f), p, q) for f, (p, q) in best.items()]
    table.sort()
    return table


_SNAP_TABLE = _build_snap_table()
_SNAP_VALUES = [v for v, _, _ in _SNAP_TABLE]


@dataclass(frozen=True)
class Term:
    """One power-law term: coefficient and one exponent per feature."""

    alpha: float
    beta: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "beta", tuple(float(b) for b in self.beta))


@dataclass(frozen=True)
class ScoreBreakdown:
    """Evaluation result: the total and the value of every term."""

    total: float
    per_term: tuple[float, ...]


class Signomial:
    """An ordered list of terms over a fixed number of features."""

    def __init__(self, terms: Iterable[Term | tuple], m: int | None = None):
        parsed: list[Term] = []
        for t in terms:
            if not isinstance(t, Term):
                alpha, beta = t
                t = Term(alpha, tuple(beta))
            parsed.append(t)
        if m is None:
            if not parsed:
                raise DimensionMismatchError(
                    "empty signomial needs an explicit feature count m"
                )
            m = len(parsed[0].beta)
        m = int(m)
        if m < 1:
            raise DimensionMismatchError(f"feature count must be >= 1, got {m}")
        for i, t in enumerate(parsed):
            if len(t.beta) != m:
                raise DimensionMismatchError(
                    f"term {i} has {len(t.beta)} exponents, expected {m}"
                )
        self._terms = tuple(parsed)
        self._m = m
        self._alphas = np.array([t.alpha for t in parsed], dtype=float)
        self._betas = (
            np.array([t.beta for t in parsed], dtype=float)
            if parsed
            else np.zeros((0, m))
        )

    @property
    def m(self) -> int:
        return self._m

    @property
    def num_terms(self) -> int:
        return len(self._terms)

    @property
    def terms(self) -> tuple[Term, ...]:
        return self._terms

    @property
    def alphas(self) -> np.ndarray:
        return self._alphas.copy()

    @property
    def betas(self) -> np.ndarray:
        return self._betas.copy()

    @classmethod
    def from_arrays(cls, alphas, betas) -> "Signomial":
        alphas = numeric_array(alphas)
        betas = numeric_array(betas)
        if betas.ndim != 2 or alphas.shape != (betas.shape[0],):
            raise DimensionMismatchError(
                f"need alphas (K,) and betas (K, m); got {alphas.shape} and {betas.shape}"
            )
        terms = [Term(a, tuple(b)) for a, b in zip(alphas, betas)]
        return cls(terms, m=betas.shape[1])

    def to_dict(self) -> dict:
        return {
            "m": self._m,
            "terms": [
                {"alpha": t.alpha, "beta": list(t.beta)} for t in self._terms
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Signomial":
        try:
            m = data["m"]
            # a JSON integer: 2.5 or "2" must not decode as 2
            if isinstance(m, bool) or not isinstance(m, int):
                raise TypeError(f"m must be an integer, got {m!r}")
            terms = [Term(t["alpha"], tuple(t["beta"])) for t in data["terms"]]
            # checked on decode, not in __init__, which the fitting code calls often
            if not all(math.isfinite(v) for t in terms for v in (t.alpha, *t.beta)):
                raise ValueError("coefficients and exponents must be finite")
        except (KeyError, TypeError, ValueError) as exc:
            raise DimensionMismatchError(f"malformed signomial payload: {exc}") from exc
        return cls(terms, m=m)

    def __repr__(self) -> str:
        return f"Signomial({self.num_terms} terms, m={self._m})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Signomial)
            and self._m == other._m
            and self._terms == other._terms
        )

    def __hash__(self):
        return hash((self._m, self._terms))


_FLOAT = np.dtype(float)


def numeric_array(values, dtype=float) -> np.ndarray:
    """np.asarray(values, dtype), raising DataFormatError where an entry is
    not a number (a non-numeric string, a dict, a Python or numpy complex)
    or the nesting is ragged, instead of numpy's ValueError or TypeError.
    numpy would take a complex array's real part with only a warning, so
    the kind is checked before the cast. A float64 array comes back as it
    is, as np.asarray returns it, on a check cheaper than that call: every
    explained row and counterfactual point makes it."""
    if type(values) is np.ndarray and values.dtype is _FLOAT and dtype is float:
        return values
    try:
        arr = np.asarray(values)
        if arr.dtype.kind == "c":
            raise DataFormatError(f"expected numbers, got complex ones ({arr.dtype})")
        return np.asarray(arr, dtype=dtype)
    except (TypeError, ValueError) as exc:
        raise DataFormatError(f"expected numbers: {exc}") from exc


def log_inputs(X, m: int | None = None) -> np.ndarray:
    """ln X for a batch of inputs of shape (N, m).

    This is the package's one positivity check: any other shape raises
    DimensionMismatchError, and an entry that is not finite and > 0 raises
    NonPositiveInputError.
    """
    arr = numeric_array(X)
    if arr.ndim != 2 or (m is not None and arr.shape[1] != m):
        raise DimensionMismatchError(
            f"inputs have shape {arr.shape}, expected (N, {'m' if m is None else m})"
        )
    # min and max propagate NaN, so two reductions catch every bad entry
    if arr.size and not (arr.min() > 0 and arr.max() < np.inf):
        i, j = map(int, np.argwhere(~(np.isfinite(arr) & (arr > 0)))[0])
        raise NonPositiveInputError(
            f"input row {i}, coordinate {j} is {arr[i, j]!r}; "
            "all inputs must be finite and > 0"
        )
    return np.log(arr)


def single_input(x, m: int) -> np.ndarray:
    """One input of shape (m,) as a batch of one row."""
    arr = numeric_array(x)
    if arr.shape != (m,):
        raise DimensionMismatchError(f"input has shape {arr.shape}, expected ({m},)")
    return arr[None, :]


# the kernel works on (C, K, N) blocks and returns (N, C, K) views of them,
# with or without a leading trial axis; the permutation is looked up, not
# built, since the kernel runs on every training step and explained row
_ROWS_FIRST = {3: (2, 0, 1), 4: (0, 3, 1, 2)}


def _check_log_magnitude(log_mag: np.ndarray, what: str) -> None:
    """Raise OverflowLimitError if any entry of a (..., C, K, N) array is too large.

    The message names the score, term and row of the largest entry, and
    stack_index its index on the leading axis: the trial of a (T, C, K, N)
    stack, the score of a (C, K, N) one. That entry is also the largest of
    its trial's own slice, so the message is the one the trial raises alone.
    """
    if log_mag.size and log_mag.max() > LOG_MAGNITUDE_LIMIT:
        at = np.unravel_index(np.argmax(log_mag), log_mag.shape)
        c, k, n = map(int, at[-3:])
        raise OverflowLimitError(
            f"{what} log-magnitude {log_mag[at]:.1f} of term {k} (score {c}, "
            f"row {n}) exceeds {LOG_MAGNITUDE_LIMIT:.0f}",
            term_index=k,
            stack_index=int(at[0]),
        )


def _mono_log(betas, log_x) -> np.ndarray:
    """The monomial logs beta . ln x, rows last: (..., C, K, N), one matmul."""
    lead = betas.shape[:-3]
    c, k, m = betas.shape[-3:]
    n = log_x.shape[-2]
    mono_log = betas.reshape(lead + (c * k, m)) @ log_x.swapaxes(-1, -2)
    return mono_log.reshape(lead + (c, k, n))


def forward(alphas, betas, log_x) -> np.ndarray:
    """Evaluate C stacked signomials of K terms each at N log-inputs.

    Takes alphas (C, K), betas (C, K, m) and ln x (N, m), and returns the
    per-term values sign(alpha) * exp(ln|alpha| + beta . ln x) (N, C, K); a
    term whose log-magnitude exceeds LOG_MAGNITUDE_LIMIT raises
    OverflowLimitError. A zero coefficient has ln 0 = -inf, so its term is
    exactly 0 and never overflows; that is also how a class with fewer terms
    is padded. The work runs with rows last, where numpy is fastest for a
    signomial's small C and K, and the result is an (N, C, K) view.

    Every argument may carry a leading trial axis T, as (T, C, K),
    (T, C, K, m) and (T, N, m), and the result is then (T, N, C, K); ln x
    of shape (N, m) is shared by every trial. Each trial is computed on its
    own slice, so its values do not depend on which trials share the stack.
    """
    with np.errstate(divide="ignore"):
        sign_alpha, log_abs_alpha = np.sign(alphas), np.log(np.abs(alphas))
    log_mag = _mono_log(betas, log_x)
    log_mag += log_abs_alpha[..., None]
    _check_log_magnitude(log_mag, "term")
    # in place, so a call allocates one (..., C, K, N) buffer, not three
    per_term = np.exp(log_mag, out=log_mag)
    per_term *= sign_alpha[..., None]
    return per_term.transpose(_ROWS_FIRST[per_term.ndim])


def monomials(betas, log_x) -> np.ndarray:
    """The bare monomials exp(beta . ln x) of C stacked signomials: forward's
    per-term values at unit coefficients, without the coefficients.

    Takes betas (C, K, m) and ln x (N, m), each with or without forward's
    leading trial axis T, and returns an (N, C, K) or (T, N, C, K) view, bit
    for bit forward(np.ones(...), betas, log_x). A monomial whose log
    exceeds LOG_MAGNITUDE_LIMIT raises OverflowLimitError, labelled
    "monomial" where forward says "term".
    """
    mono = _mono_log(betas, log_x)
    _check_log_magnitude(mono, "monomial")
    np.exp(mono, out=mono)
    return mono.transpose(_ROWS_FIRST[mono.ndim])


def backward(dz, phi, alphas, log_x, out=None) -> tuple[np.ndarray, np.ndarray]:
    """Parameter gradient of the scores z = Phi alpha from dL/dz (N, C).

    Takes the bare monomials phi (N, C, K) of `monomials` at ln x (N, m) and
    the coefficients alphas (C, K); returns dL/dalpha = Phi^T dz (C, K) and
    dL/dbeta = alpha * ((dz Phi) @ ln x) (C, K, m), with no exp and no
    overflow check. With forward's leading trial axis, dz is (T, N, C), phi
    (T, N, C, K), alphas (T, C, K) and ln x (T, N, m) or shared (N, m); each
    trial's gradients come from its own slice. out, a pair of arrays of
    those shapes (either may be None), receives the gradients in place of
    new arrays, as the views of an `optim.AdamStack`'s gradient buffer do.

    Both are products per score: (..., C, K, N) against dz (..., C, N, 1)
    and the weighted monomials against ln x (..., 1, N, m), so each score's
    gradients are bit for bit the ones it gets alone. One merged
    (C * K, N) @ (N, m) product gives a score slightly different last bits
    in a stack, and the Adam stage's normal equations amplify them.
    """
    d_alpha, d_beta = (None, None) if out is None else out
    phi = phi.swapaxes(-3, -1).swapaxes(-3, -2)  # (..., C, K, N), monomials' layout
    dz = dz.swapaxes(-1, -2)  # (..., C, N)
    d_alpha = np.matmul(phi, dz[..., None],
                        out=None if d_alpha is None else d_alpha[..., None])[..., 0]
    d_beta = np.multiply(alphas[..., None],
                         (dz[..., None, :] * phi) @ log_x[..., None, :, :], out=d_beta)
    return d_alpha, d_beta


def evaluate(s: Signomial, x) -> ScoreBreakdown:
    """Evaluate s at one positive input, returning total and per-term values."""
    totals, per_term = evaluate_batch(s, single_input(x, s.m))
    return ScoreBreakdown(total=float(totals[0]), per_term=tuple(per_term[0].tolist()))


def evaluate_batch(s: Signomial, X) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate s at every row of X. Returns (totals (N,), per-term (N, K))."""
    per_term = forward(s._alphas[None], s._betas[None], log_inputs(X, s.m))[:, 0, :]
    return per_term.sum(axis=1), per_term


def snap_exponent(value: float) -> float:
    """Snap an exponent to the nearest preferred rational p/q (q <= 6, |p| <= 12)
    when it lies within DEFAULT_SNAP_TOLERANCE; otherwise return it unchanged.

    Ties prefer the smaller denominator, then the smaller |numerator|.
    """
    idx = bisect_left(_SNAP_VALUES, value)
    best_key: tuple[float, int, int] | None = None
    snapped = float(value)
    for v, p, q in _SNAP_TABLE[max(0, idx - 1) : idx + 2]:
        d = abs(value - v)
        if d <= DEFAULT_SNAP_TOLERANCE:
            key = (d, q, abs(p))
            if best_key is None or key < best_key:
                best_key = key
                snapped = v
    return snapped


@dataclass(frozen=True)
class CanonicalForm:
    """A signomial in canonical shape: snapped, pruned, merged, sorted."""

    terms: tuple[Term, ...]
    m: int

    def to_signomial(self) -> Signomial:
        return Signomial(list(self.terms), m=self.m)

    @property
    def num_terms(self) -> int:
        return len(self.terms)


def canonicalize(s: Signomial) -> CanonicalForm:
    """Reduce a signomial to canonical form.

    Exponents below DEFAULT_EXPONENT_ZERO_THRESHOLD in magnitude become 0,
    remaining exponents snap to nearby preferred rationals, terms with |alpha|
    below DEFAULT_COEF_PRUNE_THRESHOLD are dropped, terms with identical
    exponent vectors merge, and the result is sorted by exponent vector then by
    descending coefficient.
    """
    merged: dict[tuple[float, ...], float] = {}
    for t in s.terms:
        if abs(t.alpha) < DEFAULT_COEF_PRUNE_THRESHOLD:
            continue
        beta = tuple(
            snap_exponent(0.0 if abs(b) < DEFAULT_EXPONENT_ZERO_THRESHOLD else b)
            for b in t.beta
        )
        merged[beta] = merged.get(beta, 0.0) + t.alpha
    kept = [
        Term(alpha, beta)
        for beta, alpha in merged.items()
        if abs(alpha) >= DEFAULT_COEF_PRUNE_THRESHOLD
    ]
    kept.sort(key=lambda t: (t.beta, -t.alpha))
    return CanonicalForm(terms=tuple(kept), m=s.m)


def _match_terms(a: Sequence[Term], b: Sequence[Term]) -> bool:
    """Backtracking search for a perfect 1:1 pairing of terms within tolerance."""

    def close(ta: Term, tb: Term) -> bool:
        if any(abs(x - y) > DEFAULT_EXPONENT_TOLERANCE for x, y in zip(ta.beta, tb.beta)):
            return False
        scale = max(abs(ta.alpha), abs(tb.alpha))
        return abs(ta.alpha - tb.alpha) <= DEFAULT_COEF_RELATIVE_TOLERANCE * scale

    used = [False] * len(b)

    def assign(i: int) -> bool:
        if i == len(a):
            return True
        for j in range(len(b)):
            if not used[j] and close(a[i], b[j]):
                used[j] = True
                if assign(i + 1):
                    return True
                used[j] = False
        return False

    return assign(0)


def equivalent(a: CanonicalForm, b: CanonicalForm) -> bool:
    """Decide whether two canonical forms describe the same expression.

    Requires identical term counts, every exponent within
    DEFAULT_EXPONENT_TOLERANCE, and coefficients within
    DEFAULT_COEF_RELATIVE_TOLERANCE of each other (relative to the larger)
    under some 1:1 pairing of terms.
    """
    if a.m != b.m:
        raise DimensionMismatchError(
            f"cannot compare canonical forms over {a.m} and {b.m} features"
        )
    if a.num_terms != b.num_terms:
        return False
    return _match_terms(a.terms, b.terms)


def _default_names(m: int) -> list[str]:
    return [f"x{j + 1}" for j in range(m)]


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _is_one(e: float) -> bool:
    return abs(e - 1.0) < 1e-12


def render(s: Signomial, names: Sequence[str] | None = None, style: str = "plain") -> str:
    """Render a signomial as text. style is 'plain' or 'latex'."""
    if names is None:
        names = _default_names(s.m)
    elif len(names) != s.m:
        raise NameCountMismatchError(
            f"got {len(names)} names for {s.m} features"
        )
    if style not in ("plain", "latex"):
        raise ValueError(f"unknown style {style!r}")
    if s.num_terms == 0:
        return "0.00"

    pieces: list[str] = []
    for idx, t in enumerate(s.terms):
        mag = abs(t.alpha)
        if style == "plain":
            factors = [
                f"{names[j]}" if _is_one(b) else f"{names[j]}^{_fmt(b)}"
                for j, b in enumerate(t.beta)
                if b != 0.0
            ]
            body = " * ".join([_fmt(mag)] + factors)
        else:
            num = [
                names[j] if _is_one(b) else f"{names[j]}^{{{_fmt(b)}}}"
                for j, b in enumerate(t.beta)
                if b > 0.0
            ]
            den = [
                names[j] if _is_one(-b) else f"{names[j]}^{{{_fmt(-b)}}}"
                for j, b in enumerate(t.beta)
                if b < 0.0
            ]
            coef = _fmt(mag)
            if den:
                top = " ".join(num) if num else "1"
                body = f"{coef} \\frac{{{top}}}{{{' '.join(den)}}}"
            elif num:
                body = f"{coef} \\, {' '.join(num)}"
            else:
                body = coef
        if idx == 0:
            pieces.append(body if t.alpha >= 0 else f"-{body}")
        else:
            pieces.append(("+ " if t.alpha >= 0 else "- ") + body)
    return " ".join(pieces)
