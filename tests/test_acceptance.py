"""Acceptance gate: every release criterion as one pass/fail test.

Each test is a full, self-contained check of one shipped guarantee, at the
stated tolerance, using only public entry points. Budgets are asserted, not
just hoped for. The wheat-seeds dataset cannot be bundled, so its criterion
fails with instructions until a local copy is supplied (honest red, see the
module docstring of test_criterion_4_seeds_accuracy).
"""

import csv
import json
import math
import os
import time

import numpy as np
import pytest

from signolearn import cli
from signolearn.classifier import (
    EcselModel,
    loss_and_grad,
    predict_proba,
    predict_proba_batch,
)
from signolearn.explain import (
    attribute_exact_log,
    counterfactual_scale,
    elasticity,
    margin_sensitivity,
    probability_sensitivity,
    sensitivity_first_order,
)
from signolearn.regressor import SrConfig, TargetSpec, evaluate_recovery, sr_loss_and_grad
from signolearn.signomial import Signomial, Term, evaluate

ASSETS = os.path.join(os.path.dirname(cli.__file__), "assets")
IRIS = os.path.join(ASSETS, "iris.csv")
SUITE = json.load(open(os.path.join(ASSETS, "feynman_subset.json")))


def get_spec(name: str) -> TargetSpec:
    entry = next(s for s in SUITE["specs"] if s["name"] == name)
    return TargetSpec.from_dict(entry)


def random_model(rng, C=3, K=2, m=3, positive=False, link="softmax"):
    sigs = []
    count = 1 if link == "sigmoid" else C
    for _ in range(count):
        terms = []
        for _ in range(K):
            a = float(rng.uniform(0.2, 2.0))
            if not positive and rng.random() < 0.5:
                a = -a
            beta = tuple(float(b) for b in rng.uniform(-2.0, 2.0, m))
            terms.append(Term(a, beta))
        sigs.append(Signomial(terms))
    return EcselModel(sigs, link=link)


# --- 1: single-term symbolic recovery ----------------------------------------------

SINGLE_TERM_TARGETS = [
    "I.12.1", "I.12.5", "I.14.3", "I.14.4", "Constant-6", "Livermore-13",
]


@pytest.mark.parametrize("name", SINGLE_TERM_TARGETS)
def test_criterion_1_single_term_recovery(name):
    spec = get_spec(name)
    cfg = SrConfig(num_terms=spec.num_terms, noise_sigma=0.01,
                   seed_list=(42, 43, 44, 45, 46))
    result = evaluate_recovery(spec, cfg)
    times = [s.wall_time_seconds for s in result.seeds]
    assert result.recovery_rate == 1.0, (
        f"{name}: rate {result.recovery_rate}, need 1.0"
    )
    assert max(times) < 5.0, f"{name}: slowest seed took {max(times):.2f}s"
    print(f"criterion 1 [{name}]: PASS (rate 1.0, max {max(times):.2f}s/seed)")


# --- 2: multi-term recovery ---------------------------------------------------------


def test_criterion_2_multi_term_recovery():
    spec = get_spec("Jin-2")
    cfg = SrConfig(num_terms=spec.num_terms, noise_sigma=0.01,
                   seed_list=(42, 43, 44, 45, 46))
    result = evaluate_recovery(spec, cfg)
    times = [s.wall_time_seconds for s in result.seeds]
    assert result.recovery_rate >= 0.6, f"rate {result.recovery_rate}, need >= 0.6"
    for s in result.seeds:
        assert s.r2 is not None and s.r2 > 0.999, (
            f"seed {s.seed}: held-out R^2 {s.r2}, need > 0.999"
        )
    assert max(times) <= 300.0, f"slowest seed took {max(times):.1f}s"
    print(
        f"criterion 2 [Jin-2]: PASS (rate {result.recovery_rate:.2f}, "
        f"min R^2 {min(s.r2 for s in result.seeds):.6f}, max {max(times):.1f}s/seed)"
    )


# --- 3 and 4: classification accuracy via hyperparameter search ---------------------


def _search_accuracy(data_path, target, tmp_path, tag):
    out = str(tmp_path / f"{tag}.json")
    t0 = time.perf_counter()
    code = cli.main([
        "search", "--data", data_path, "--target", target,
        "--trials", "10", "--seed", "42", "--out", out,
    ])
    elapsed = time.perf_counter() - t0
    assert code == 0
    log = json.load(open(tmp_path / f"{tag}.search.json"))
    return log["testMetrics"]["accuracy"], elapsed


def test_criterion_3_iris_accuracy(tmp_path):
    acc, elapsed = _search_accuracy(IRIS, "species", tmp_path, "iris")
    assert acc >= 0.93, f"iris test accuracy {acc:.4f}, need >= 0.93"
    assert elapsed < 60.0, f"search took {elapsed:.1f}s, budget 60s"
    print(f"criterion 3 [iris]: PASS (accuracy {acc:.4f}, {elapsed:.1f}s)")


def test_criterion_4_seeds_accuracy(tmp_path):
    """Wheat-seeds classification (210x7) >= 0.92 test accuracy.

    The dataset is not redistributable inside this package and the build
    environment has no network access, so this criterion stays red until a
    local copy is supplied: set SIGNOLEARN_SEEDS_CSV to a CSV with the seven
    numeric feature columns plus a label column named 'class' (210 rows), or
    drop that file at src/signolearn/assets/seeds.csv.
    """
    path = os.environ.get("SIGNOLEARN_SEEDS_CSV", os.path.join(ASSETS, "seeds.csv"))
    if not os.path.exists(path):
        pytest.fail(
            "criterion 4 [seeds]: FAIL - dataset not available. Supply the UCI "
            "wheat-seeds data as a CSV (7 numeric feature columns plus a "
            "'class' label column, 210 rows) via the SIGNOLEARN_SEEDS_CSV "
            f"environment variable or at {os.path.join(ASSETS, 'seeds.csv')}."
        )
    acc, elapsed = _search_accuracy(path, "class", tmp_path, "seeds")
    assert acc >= 0.92, f"seeds test accuracy {acc:.4f}, need >= 0.92"
    assert elapsed < 60.0, f"search took {elapsed:.1f}s, budget 60s"
    print(f"criterion 4 [seeds]: PASS (accuracy {acc:.4f}, {elapsed:.1f}s)")


# --- 5: exactness suite --------------------------------------------------------------


def test_criterion_5a_counterfactual_exactness():
    # 1000 random draws; scaling one feature through the per-term shortcut
    # must match literally editing the input, to 1e-12 relative. Draws that
    # land near sign cancellation are skipped (relative error is undefined
    # there), but at least 900 of 1000 must be kept.
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
        assert abs(got - direct) <= 1e-12 * abs(direct), (
            f"rel err {abs(got - direct) / abs(direct):.2e}"
        )
        kept += 1
    assert kept > 900
    print(f"criterion 5a: PASS ({kept}/1000 draws within 1e-12 relative)")


def _fd(fun, x, j, h=1e-6):
    xp, xm = x.copy(), x.copy()
    xp[j] *= math.exp(h)
    xm[j] *= math.exp(-h)
    return (fun(xp) - fun(xm)) / (2 * h)


def test_criterion_5b_sensitivities_match_finite_differences():
    # E, G, margin and probability derivatives against central differences
    # in log-space, 100 accepted draws each, rel err < 1e-6
    rng = np.random.default_rng(13)

    checked_g = 0
    while checked_g < 100:
        model = random_model(rng)
        x = rng.uniform(0.5, 3.0, model.m)
        c = int(rng.integers(model.C))
        ev = elasticity(model, c, x)
        gross = np.abs(evaluate(model.signomials[c], x).per_term).sum()
        if abs(ev.score) < 1e-3 * gross:
            continue
        j = int(rng.integers(model.m))
        fd = _fd(lambda v: model.scores(v)[c], x, j)
        assert ev.log_gradient[j] == pytest.approx(fd, rel=1e-6, abs=1e-9)
        checked_g += 1

    for _ in range(100):
        model = random_model(rng, positive=True)
        x = rng.uniform(0.5, 3.0, model.m)
        c = int(rng.integers(model.C))
        j = int(rng.integers(model.m))
        ev = elasticity(model, c, x)
        fd = _fd(lambda v: math.log(model.scores(v)[c]), x, j)
        assert ev.elasticity[j] == pytest.approx(fd, rel=1e-6, abs=1e-9)

    checked_m = 0
    while checked_m < 100:
        model = random_model(rng, C=3)
        x = rng.uniform(0.5, 3.0, model.m)
        a, b = 0, int(rng.integers(1, 3))
        ms = margin_sensitivity(model, a, b, x)
        j = int(rng.integers(model.m))
        fd = _fd(lambda v: model.scores(v)[a] - model.scores(v)[b], x, j)
        if abs(fd) < 1e-6:
            continue
        assert ms.per_feature[j] == pytest.approx(fd, rel=1e-6, abs=1e-9)
        checked_m += 1

    for trial in range(100):
        link = "sigmoid" if trial % 2 else "softmax"
        C = 2 if link == "sigmoid" else int(rng.integers(2, 5))
        model = random_model(rng, C=C, link=link)
        x = rng.uniform(0.5, 3.0, model.m)
        c = int(rng.integers(model.C))
        grad = probability_sensitivity(model, c, x)
        j = int(rng.integers(model.m))
        fd = _fd(lambda v: predict_proba(model, v)[c], x, j)
        assert grad[j] == pytest.approx(fd, rel=1e-6, abs=1e-9)
    print("criterion 5b: PASS (E, G, margin, probability FD checks, 100 draws each)")


def test_criterion_5c_exact_log_residual():
    # residual of the exact log-space attribution < 1e-10 over 100 draws on
    # positive components, whole-score single-term case included
    rng = np.random.default_rng(17)
    for trial in range(100):
        if trial % 4 == 0:
            model = random_model(rng, C=2, K=1, m=3, positive=True)
            term_idx = None  # single-term score, attribution covers all of it
        else:
            model = random_model(rng, C=2, K=3, m=3, positive=True)
            term_idx = int(rng.integers(3))
        x = rng.uniform(0.3, 4.0, 3)
        b = rng.uniform(0.3, 4.0, 3)
        rep = attribute_exact_log(model, 0, x, b, term_idx=term_idx)
        assert abs(rep.residual) < 1e-10
    print("criterion 5c: PASS (100 draws, residual < 1e-10)")


def test_criterion_5d_first_order_gap_quadratic_decay():
    # halving eps cuts the first-order gap by 4x within 20%; draws whose
    # second-order coefficient nearly cancels are redrawn since the ratio is
    # then governed by higher orders
    rng = np.random.default_rng(77)
    accepted = 0
    while accepted < 50:
        K, m = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        model = random_model(rng, C=2, K=K, m=m, positive=True)
        x = rng.uniform(0.7, 1.6, m)
        j = int(rng.integers(m))
        bd = evaluate(model.signomials[0], x)
        beta_j = model.signomials[0].betas[:, j]
        c2_terms = np.array(bd.per_term) * beta_j * (beta_j - 1.0) / 2.0
        gross = np.abs(c2_terms).sum()
        if gross < 1e-6 or abs(c2_terms.sum()) < 0.05 * gross:
            continue
        gaps = []
        for eps in (1e-3, 5e-4):
            x_new = x.copy()
            x_new[j] *= 1.0 + eps
            true = model.scores(x_new)[0]
            approx = sensitivity_first_order(model, 0, x, j, eps)
            gaps.append(abs(true - approx))
        ratio = gaps[0] / gaps[1]
        assert 3.2 < ratio < 4.8, f"gap ratio {ratio:.3f} outside 4x +-20%"
        accepted += 1
    print("criterion 5d: PASS (50 draws, halving eps cuts the gap ~4x)")


def test_criterion_5e_faithfulness_ordering():
    # on single-term models the feature with the larger |beta| always moves
    # the log-score more, for every tested scale factor
    rng = np.random.default_rng(101)
    models = 0
    while models < 100:
        beta = rng.uniform(-3.0, 3.0, 3)
        if np.any(np.diff(np.sort(np.abs(beta))) < 0.05):
            continue
        alpha = float(rng.uniform(0.2, 3.0)) * float(rng.choice([-1.0, 1.0]))
        model = EcselModel([
            Signomial([Term(alpha, tuple(beta))]),
            Signomial([Term(1.0, (0.0, 0.0, 0.0))]),
        ])
        x = rng.uniform(0.5, 4.0, 3)
        base = abs(model.scores(x)[0])
        for r in (0.5, 2.0, 10.0):
            deltas = [
                abs(math.log(abs(counterfactual_scale(model, 0, x, j, r)))
                    - math.log(base))
                for j in range(3)
            ]
            order_beta = np.argsort(np.abs(beta))
            order_delta = np.argsort(deltas)
            assert list(order_beta) == list(order_delta), (
                f"r={r}: |beta| order {list(order_beta)} vs "
                f"delta order {list(order_delta)}"
            )
        models += 1
    print("criterion 5e: PASS (100 single-term models, r in {0.5, 2, 10})")


def test_criterion_5f_probability_rows_sum_to_zero():
    rng = np.random.default_rng(19)
    for _ in range(100):
        model = random_model(rng, C=int(rng.integers(2, 5)))
        x = rng.uniform(0.5, 3.0, model.m)
        total = sum(probability_sensitivity(model, c, x) for c in range(model.C))
        assert np.max(np.abs(total)) <= 1e-12
    print("criterion 5f: PASS (100 draws, rows sum to zero at 1e-12)")


# --- 6: training-gradient oracle ------------------------------------------------------


def test_criterion_6_training_gradients_match_fd():
    rng = np.random.default_rng(29)

    for trial in range(20):
        link = "sigmoid" if trial % 2 else "softmax"
        C = 2 if link == "sigmoid" else int(rng.integers(2, 4))
        model = random_model(rng, C=C, K=2, m=3, link=link)
        X = rng.uniform(0.5, 2.0, size=(5, 3))
        y = rng.integers(0, C, size=5)
        _, grad = loss_and_grad(model, X, y, l1_penalty=0.0)
        n_sig = len(model.signomials)
        theta0 = np.concatenate([
            np.array([s.alphas for s in model.signomials]).ravel(),
            np.array([s.betas for s in model.signomials]).ravel(),
        ])

        def loss_at(theta):
            a = theta[: n_sig * 2].reshape(n_sig, 2)
            b = theta[n_sig * 2 :].reshape(n_sig, 2, 3)
            sigs = [Signomial.from_arrays(a[c], b[c]) for c in range(n_sig)]
            val, _ = loss_and_grad(EcselModel(sigs, link=link), X, y, l1_penalty=0.0)
            return val

        fd = np.zeros_like(theta0)
        for i in range(len(theta0)):
            up, dn = theta0.copy(), theta0.copy()
            up[i] += 1e-5
            dn[i] -= 1e-5
            fd[i] = (loss_at(up) - loss_at(dn)) / 2e-5
        assert np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-12) < 1e-5

    for _ in range(20):
        K, m = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        alphas = rng.uniform(-2.0, 2.0, K)
        betas = rng.uniform(-1.5, 1.5, (K, m))
        s = Signomial.from_arrays(alphas, betas)
        X = rng.uniform(0.5, 2.0, size=(8, m))
        y = rng.normal(0.0, 2.0, size=8)
        _, grad = sr_loss_and_grad(s, X, y)
        theta0 = np.concatenate([alphas, betas.ravel()])

        def sr_loss_at(theta):
            a, b = theta[:K], theta[K:].reshape(K, m)
            val, _ = sr_loss_and_grad(Signomial.from_arrays(a, b), X, y)
            return val

        fd = np.zeros_like(theta0)
        for i in range(len(theta0)):
            up, dn = theta0.copy(), theta0.copy()
            up[i] += 1e-5
            dn[i] -= 1e-5
            fd[i] = (sr_loss_at(up) - sr_loss_at(dn)) / 2e-5
        assert np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-12) < 1e-5
    print("criterion 6: PASS (both loss gradients match FD on 20 instances each)")


# --- 7: byte-level determinism --------------------------------------------------------


def test_criterion_7_byte_identical_reruns(tmp_path):
    out = str(tmp_path / "model.json")
    train_argv = [
        "train", "--data", IRIS, "--target", "species", "--k", "1",
        "--seed", "42", "--epochs", "200", "--out", out,
    ]
    assert cli.main(train_argv) == 0
    train_files = ["model.json", "model.metrics.json", "model.trace.csv"]
    snap = {n: (tmp_path / n).read_bytes() for n in train_files}
    assert cli.main(train_argv) == 0
    for n in train_files:
        assert (tmp_path / n).read_bytes() == snap[n], f"{n} changed between runs"

    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(
        next(s for s in SUITE["specs"] if s["name"] == "I.12.1")
    ))
    rec_out = str(tmp_path / "rec.json")
    rec_argv = ["recover", "--spec", str(spec_path), "--seeds", "42..46",
                "--out", rec_out]
    assert cli.main(rec_argv) == 0
    rec_snap = (tmp_path / "rec.json").read_bytes()
    assert cli.main(rec_argv) == 0
    assert (tmp_path / "rec.json").read_bytes() == rec_snap
    print("criterion 7: PASS (train and recover outputs byte-identical)")
