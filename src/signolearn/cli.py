"""Command-line entry point: train, predict, explain, recover, benchmark, search.

Every command validates its arguments before doing work, writes schema-versioned
JSON, and emits the fully-resolved configuration next to its results so a run
can be reproduced from the output alone. Wall-clock timings go to a separate
sidecar file so the result JSONs stay byte-identical across repeat runs.

Exit codes: 0 success, 2 usage error, 3 data error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time

import numpy as np

from . import data_io
from .classifier import (
    ClassifyConfig,
    EcselModel,
    compute_metrics,
    fit,
    predict,
    predict_batch,
    predict_proba_batch,
)
from .errors import (
    AllRestartsFailedError,
    BadConfigError,
    DataFormatError,
    NameCountMismatchError,
    NonFiniteGradientError,
    NonFiniteLossError,
    NonFiniteObjectiveError,
    OverflowLimitError,
    SameClassError,
    SignolearnError,
    ZeroVarianceError,
)
from .explain import build_report, compare_scenarios, counterfactual_scale, default_baseline
from .regressor import SrConfig, TargetSpec, evaluate_recovery, fit_sr, score_fit
from .signomial import Signomial, evaluate_batch, render

RESULT_SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

_USAGE_ERRORS = (BadConfigError, SameClassError, NameCountMismatchError)
_NUMERIC_ERRORS = (
    NonFiniteLossError,
    NonFiniteObjectiveError,
    NonFiniteGradientError,
    OverflowLimitError,
    AllRestartsFailedError,
    ZeroVarianceError,
)


def _error_line(exc: BaseException) -> str:
    msg = " ".join(str(exc).split())
    return f"error: {type(exc).__name__}: {msg}"


def _exit_code_for(exc: BaseException) -> int:
    if isinstance(exc, _USAGE_ERRORS):
        return EXIT_USAGE
    if isinstance(exc, _NUMERIC_ERRORS):
        return EXIT_NUMERIC
    return EXIT_DATA


def parse_seeds(text: str) -> list[int]:
    """'42..46' (inclusive), '42,43,44', or a single integer."""
    text = text.strip()
    try:
        if ".." in text:
            lo_s, hi_s = text.split("..")
            lo, hi = int(lo_s), int(hi_s)
            if hi < lo:
                raise BadConfigError(f"empty seed range {text!r}")
            return list(range(lo, hi + 1))
        if "," in text:
            return [int(p) for p in text.split(",")]
        return [int(text)]
    except ValueError:
        raise BadConfigError(f"cannot parse seeds {text!r}")


def _sibling(out: str, tag: str) -> str:
    root, _ = os.path.splitext(out)
    return f"{root}.{tag}"


def _write_json(payload: dict, path: str | None) -> None:
    if path is None:
        print(json.dumps(payload, indent=2))
    else:
        data_io.write_json_atomic(payload, path)


def _write_timing(seconds_by_label: dict, out: str | None) -> None:
    if out is not None:
        data_io.write_json_atomic(dict(seconds_by_label), _sibling(out, "timing.json"))


def _transform(scaler: data_io.Scaler | None, X: np.ndarray) -> np.ndarray:
    return X if scaler is None else scaler.transform(X)


def _load_feature_matrix(path: str, target: str | None, feature_names: list[str],
                         task: str = "classify"):
    """Feature rows for a trained model, matched to its feature order.

    With a target column the labels come back too (classification labels
    encoded by first appearance); without one every column must be numeric
    and either cover the model's feature names or match their count
    positionally.
    """
    if target is not None:
        ds = data_io.load_csv(path, target, task=task)
        X = _reorder(ds.X, ds.feature_names, feature_names)
        return X, ds.y, ds.class_names
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise DataFormatError(f"{path}: empty file")
    header, body = rows[0], rows[1:]
    if not body:
        raise DataFormatError(f"{path}: no data rows")
    if set(feature_names) <= set(header):
        cols = [header.index(name) for name in feature_names]
    elif len(header) == len(feature_names):
        cols = list(range(len(header)))
    else:
        raise DataFormatError(
            f"data has columns {header}, model expects {feature_names}"
        )
    try:
        X = np.array([[float(row[c]) for c in cols] for row in body])
    except (ValueError, IndexError) as exc:
        raise DataFormatError(f"{path}: bad feature cell ({exc})")
    return X, None, None


def _reorder(X: np.ndarray, have: list[str], want: list[str]) -> np.ndarray:
    if set(want) <= set(have):
        cols = [have.index(name) for name in want]
        return X[:, cols]
    if X.shape[1] != len(want):
        raise DataFormatError(
            f"data has columns {have}, model expects {want}"
        )
    return X


# --- train ------------------------------------------------------------------------


def _train_classifier(args, data: data_io.Dataset) -> tuple[dict, dict, list, float]:
    spec = data_io.SplitSpec(
        test_fraction=args.test_fraction, val_fraction=args.val_fraction, seed=args.seed
    )
    train, test, val = data_io.split(data, spec)
    scaler = data_io.Scaler().fit(train.X)
    cfg = ClassifyConfig(
        num_terms=args.k if args.k is not None else 2,
        l1_penalty=args.l1 if args.l1 is not None else 1e-3,
        learning_rate=args.lr if args.lr is not None else 1e-3,
        batch_size=args.batch,
        epochs=args.epochs if args.epochs is not None else 200,
        patience=args.patience,
        class_weight_multiplier=args.class_weight,
        seed=args.seed,
        link=args.link,
        threshold_grid_step=args.threshold_grid,
    )
    t0 = time.perf_counter()
    model, trace = fit(
        data_io.Dataset(_transform(scaler, train.X), train.y,
                        train.feature_names, train.class_names),
        data_io.Dataset(_transform(scaler, val.X), val.y,
                        val.feature_names, val.class_names),
        cfg,
        feature_names=data.feature_names,
        class_names=data.class_names,
        scaler=scaler,
    )
    elapsed = time.perf_counter() - t0
    y_pred = predict_batch(model, _transform(scaler, test.X))
    metrics = compute_metrics(test.y, y_pred, model.C)

    model.save(args.out)
    equations = {
        "plain": [render(s, model.feature_names) for s in model.signomials],
        "latex": [render(s, model.feature_names, style="latex") for s in model.signomials],
    }
    resolved = {
        "command": "train",
        "task": "classify",
        "data": args.data,
        "target": args.target,
        "testFraction": args.test_fraction,
        "valFraction": args.val_fraction,
        "scalerRange": [scaler.lo, scaler.hi],
        "k": cfg.num_terms,
        "l1": cfg.l1_penalty,
        "lr": cfg.learning_rate,
        "batch": cfg.batch_size,
        "epochs": cfg.epochs,
        "patience": cfg.patience,
        "classWeight": cfg.class_weight_multiplier,
        "link": cfg.link,
        "thresholdGrid": cfg.threshold_grid_step,
        "seed": args.seed,
        "out": args.out,
    }
    payload = {
        "version": RESULT_SCHEMA_VERSION,
        "task": "classify",
        "metrics": metrics.to_dict(),
        "equations": equations,
        "sizes": {"train": train.n, "val": val.n, "test": test.n},
        "bestEpoch": trace.best_epoch,
        "stoppedEarly": trace.stopped_early,
        "resolvedConfig": resolved,
    }
    if model.link == "sigmoid":
        payload["threshold"] = model.threshold
    trace_rows = [
        (e, tr, va)
        for e, tr, va in zip(trace.epochs, trace.train_loss, trace.val_loss)
    ]
    printed = [
        f"class {name}: z(x) = {eq}"
        for name, eq in zip(model.class_names, equations["plain"])
    ]
    printed.append(f"test accuracy: {metrics.accuracy:.4f}")
    return payload, {"fitSeconds": elapsed}, trace_rows, printed


def _train_regressor(args, data: data_io.Dataset) -> tuple[dict, dict, list, list]:
    spec = data_io.SplitSpec(test_fraction=args.test_fraction, val_fraction=0.0,
                             seed=args.seed)
    train, test = data_io.split(data, spec)
    l1 = args.l1 if args.l1 is not None else 1e-2
    cfg = SrConfig(
        num_terms=args.k if args.k is not None else 1,
        lambda_struct=l1,
        lambda_refine=min(1e-3, l1),
        learning_rate=args.lr if args.lr is not None else 0.05,
        adam_epochs_per_stage=args.epochs if args.epochs is not None else 500,
        seed_list=(args.seed,),
    )
    t0 = time.perf_counter()
    fitted, stats = fit_sr(train.X, train.y, cfg, seed=args.seed)
    elapsed = time.perf_counter() - t0
    try:
        sc = score_fit(fitted, test.X, test.y)
        test_metrics = {"mse": sc.mse, "nmse": sc.nmse, "r2": sc.r2}
    except ZeroVarianceError as exc:
        test_metrics = {"mse": exc.mse, "nmse": None, "r2": None}

    data_io.save_model(
        {
            "kind": "regressor",
            "signomial": fitted.to_dict(),
            "featureNames": list(data.feature_names),
        },
        args.out,
    )
    equations = {
        "plain": render(fitted, data.feature_names),
        "latex": render(fitted, data.feature_names, style="latex"),
    }
    resolved = {
        "command": "train",
        "task": "regress",
        "data": args.data,
        "target": args.target,
        "testFraction": args.test_fraction,
        "k": cfg.num_terms,
        "l1": cfg.lambda_struct,
        "lambdaRefine": cfg.lambda_refine,
        "lr": cfg.learning_rate,
        "epochs": cfg.adam_epochs_per_stage,
        "restarts": cfg.resolved_restarts(),
        "seed": args.seed,
        "out": args.out,
    }
    payload = {
        "version": RESULT_SCHEMA_VERSION,
        "task": "regress",
        "metrics": test_metrics,
        "equation": equations,
        "sizes": {"train": train.n, "test": test.n},
        "fitStats": stats.to_dict(),
        "resolvedConfig": resolved,
    }
    trace_rows = (
        [("stage-a", i, v) for i, v in enumerate(stats.stage_a_losses)]
        + [("refine", i, v) for i, v in enumerate(stats.refined_losses)]
        + [("polish", i, v) for i, v in enumerate(stats.candidate_mses)]
    )
    printed = [f"y = {equations['plain']}", f"test mse: {test_metrics['mse']:.6g}"]
    return payload, {"fitSeconds": elapsed}, trace_rows, printed


def cmd_train(args) -> int:
    data = data_io.load_csv(args.data, args.target, task=args.task)
    if args.task == "classify":
        payload, timing, trace_rows, printed = _train_classifier(args, data)
        header = ("epoch", "trainLoss", "valLoss")
    else:
        payload, timing, trace_rows, printed = _train_regressor(args, data)
        header = ("stage", "index", "loss")
    _write_json(payload, _sibling(args.out, "metrics.json"))
    with open(_sibling(args.out, "trace.csv"), "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(trace_rows)
    _write_timing(timing, args.out)
    for line in printed:
        print(line)
    return EXIT_OK


# --- predict ----------------------------------------------------------------------


def cmd_predict(args) -> int:
    head = data_io.load_model(args.model)
    kind = head.get("kind")
    if kind == "classifier":
        model = EcselModel.load(args.model)
        X, y, class_names = _load_feature_matrix(args.data, args.target, model.feature_names)
        Xs = _transform(model.scaler, X)
        y_pred = predict_batch(model, Xs)
        proba = predict_proba_batch(model, Xs)
        payload = {
            "version": RESULT_SCHEMA_VERSION,
            "kind": "classifier",
            "predictions": [int(v) for v in y_pred],
            "predictedNames": [model.class_names[int(v)] for v in y_pred],
            "probabilities": [[float(p) for p in row] for row in proba],
        }
        if y is not None:
            y = _remap_labels(y, class_names, model.class_names)
            payload["metrics"] = compute_metrics(y, y_pred, model.C).to_dict()
    elif kind == "regressor":
        s = Signomial.from_dict(head["signomial"])
        names = head.get("featureNames") or [f"x{j + 1}" for j in range(s.m)]
        X, y, _ = _load_feature_matrix(args.data, args.target, names, task="regress")
        preds, _ = evaluate_batch(s, X)
        payload = {
            "version": RESULT_SCHEMA_VERSION,
            "kind": "regressor",
            "predictions": [float(v) for v in preds],
        }
        if y is not None:
            try:
                sc = score_fit(s, X, y.astype(float))
                payload["metrics"] = {"mse": sc.mse, "nmse": sc.nmse, "r2": sc.r2}
            except ZeroVarianceError as exc:
                payload["metrics"] = {"mse": exc.mse, "nmse": None, "r2": None}
    else:
        raise DataFormatError(f"{args.model}: unknown model kind {kind!r}")
    payload["resolvedConfig"] = {
        "command": "predict",
        "model": args.model,
        "data": args.data,
        "target": args.target,
        "out": args.out,
    }
    _write_json(payload, args.out)
    return EXIT_OK


def _remap_labels(y, data_names, model_names):
    """Align CSV label encoding (first-appearance order) with the model's."""
    if data_names is None or set(data_names) != set(model_names):
        return y
    lut = np.array([model_names.index(name) for name in data_names])
    return lut[y]


# --- explain ----------------------------------------------------------------------


def _parse_counterfactual(text: str, feature_names: list[str]) -> tuple[int, float]:
    if "=" not in text:
        raise BadConfigError(f"counterfactual must look like x1=2.0, got {text!r}")
    name, _, raw = text.partition("=")
    name = name.strip()
    if name not in feature_names:
        raise BadConfigError(f"unknown feature {name!r}; have {feature_names}")
    try:
        q = float(raw)
    except ValueError:
        raise BadConfigError(f"bad scale factor {raw!r} in {text!r}")
    return feature_names.index(name), q


def cmd_explain(args) -> int:
    head = data_io.load_model(args.model)
    if head.get("kind") != "classifier":
        raise DataFormatError("explain works on classifier models")
    model = EcselModel.load(args.model)
    X, _, _ = _load_feature_matrix(args.data, args.target, model.feature_names)
    Xs = _transform(model.scaler, X)
    if not 0 <= args.row < len(Xs):
        raise BadConfigError(f"row {args.row} out of range for {len(Xs)} rows")
    x = Xs[args.row]
    class_idx = args.class_idx if args.class_idx is not None else int(predict(model, x))

    mode = args.mode
    if mode is None:
        k = model.signomials[class_idx].num_terms
        mode = "exact-log" if (k == 1 or args.term is not None) else "gradient"
    base_data = data_io.Dataset(
        Xs, np.zeros(len(Xs), dtype=int), model.feature_names, None
    )
    baseline = default_baseline(base_data, args.baseline, row=args.baseline_row)

    report = build_report(
        model, x, class_idx, mode, baseline,
        term_idx=args.term, target=args.gradient_target,
    )
    if args.counterfactual is not None:
        j, q = _parse_counterfactual(args.counterfactual, model.feature_names)
        per_class = [
            counterfactual_scale(model, c, x, j, q)
            for c in range(len(model.signomials))
        ]
        grid = np.geomspace(0.1, 10.0, 41)
        report["counterfactual"] = {
            "feature": model.feature_names[j],
            "q": q,
            "newScore": per_class[class_idx],
            "perClass": per_class,
            "curve": [
                {"q": float(qq), "score": counterfactual_scale(model, class_idx, x, j, float(qq))}
                for qq in grid
            ],
        }
    if args.scenarios is not None:
        with open(args.scenarios, encoding="utf-8") as fh:
            raw = json.load(fh)
        entries = raw["scenarios"] if isinstance(raw, dict) else raw
        named = []
        for entry in entries:
            vec = np.array([float(entry["input"][n]) for n in model.feature_names])
            named.append((entry["name"], _transform(model.scaler, vec[None, :])[0]))
        report["scenarios"] = compare_scenarios(model, named)["scenarios"]
    report["version"] = RESULT_SCHEMA_VERSION
    report["resolvedConfig"] = {
        "command": "explain",
        "model": args.model,
        "data": args.data,
        "row": args.row,
        "class": class_idx,
        "mode": mode,
        "term": args.term,
        "baseline": args.baseline,
        "baselineRow": args.baseline_row,
        "gradientTarget": args.gradient_target,
        "counterfactual": args.counterfactual,
        "scenarios": args.scenarios,
        "out": args.out,
    }
    _write_json(report, args.out)
    return EXIT_OK


# --- recover / benchmark ------------------------------------------------------------


def _load_spec(path: str) -> TargetSpec:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{path}: not valid JSON ({exc})")
    return TargetSpec.from_dict(raw)


def _recovery_config(spec: TargetSpec, seeds: list[int], noise: float,
                     restarts: int | None) -> SrConfig:
    return SrConfig(
        num_terms=spec.num_terms,
        seed_list=tuple(seeds),
        noise_sigma=noise,
        restarts=restarts,
    )


def _recovery_table(result) -> list[str]:
    lines = [f"{'seed':>6} {'recovered':>10} {'nmse':>12} {'r2':>10} {'time[s]':>9} {'n':>6}"]
    for s in result.seeds:
        nmse = "-" if s.nmse is None else f"{s.nmse:.3e}"
        r2 = "-" if s.r2 is None else f"{s.r2:.6f}"
        lines.append(
            f"{s.seed:>6} {('yes' if s.recovered else 'no'):>10} {nmse:>12} "
            f"{r2:>10} {s.wall_time_seconds:>9.2f} {s.n_samples:>6}"
        )
    lines.append(f"recovery rate: {result.recovery_rate:.2f}")
    return lines


def cmd_recover(args) -> int:
    spec = _load_spec(args.spec)
    seeds = parse_seeds(args.seeds)
    cfg = _recovery_config(spec, seeds, args.noise, args.restarts)
    result = evaluate_recovery(spec, cfg)
    payload = {
        "version": RESULT_SCHEMA_VERSION,
        **result.to_dict(),
        "resolvedConfig": {
            "command": "recover",
            "spec": args.spec,
            "seeds": seeds,
            "noise": args.noise,
            "k": cfg.num_terms,
            "restarts": cfg.resolved_restarts(),
            "out": args.out,
        },
    }
    _write_json(payload, args.out)
    _write_timing(
        {"seedSeconds": {str(s.seed): s.wall_time_seconds for s in result.seeds}},
        args.out,
    )
    if args.out is not None:
        for line in _recovery_table(result):
            print(line)
    return EXIT_OK


def cmd_benchmark(args) -> int:
    try:
        with open(args.suite, encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{args.suite}: not valid JSON ({exc})")
    entries = raw["specs"] if isinstance(raw, dict) else raw
    if not entries:
        raise DataFormatError(f"{args.suite}: empty suite")
    seeds = parse_seeds(args.seeds)

    def run_one(entry) -> dict:
        try:
            spec = TargetSpec.from_dict(entry)
            cfg = _recovery_config(spec, seeds, args.noise, args.restarts)
            result = evaluate_recovery(spec, cfg)
        except SignolearnError as exc:
            name = entry.get("name", "?") if isinstance(entry, dict) else "?"
            return {"name": name, "status": "error",
                    "message": " ".join(str(exc).split())}
        times = [s.wall_time_seconds for s in result.seeds]
        return {
            "name": spec.name,
            "status": "ok",
            "rate": result.recovery_rate,
            "seeds": len(result.seeds),
            "meanTimeSeconds": float(np.mean(times)),
            "stdTimeSeconds": float(np.std(times)),
            "message": "",
        }

    rows = [run_one(e) for e in entries]

    fields = ["name", "status", "rate", "seeds", "meanTimeSeconds",
              "stdTimeSeconds", "message"]
    if args.out is not None:
        with open(args.out, "w", newline="", encoding="utf-8") as fh:
            w = csv.DictWriter(fh, fieldnames=fields)
            w.writeheader()
            for row in rows:
                w.writerow({k: row.get(k, "") for k in fields})
    print(f"{'equation':<16} {'status':<7} {'rate':>6} {'mean[s]':>9} {'std[s]':>8}")
    for row in rows:
        if row["status"] == "ok":
            print(
                f"{row['name']:<16} {row['status']:<7} {row['rate']:>6.2f} "
                f"{row['meanTimeSeconds']:>9.2f} {row['stdTimeSeconds']:>8.2f}"
            )
        else:
            print(f"{row['name']:<16} {row['status']:<7} {row['message']}")
    return EXIT_OK


# --- search ------------------------------------------------------------------------

DEFAULT_SEARCH_SPACE = {
    "K": [1, 3],
    "l1": [1e-4, 1e-2],
    "lr": [1e-4, 1e-2],
    "batch": [32, 64, 128],
    "epochs": [800, 1000],
    "patience": [20, 50],
}


def _load_space(path: str | None) -> dict:
    space = {k: list(v) for k, v in DEFAULT_SEARCH_SPACE.items()}
    if path is None:
        return space
    with open(path, encoding="utf-8") as fh:
        try:
            user = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"{path}: not valid JSON ({exc})")
    if not isinstance(user, dict):
        raise BadConfigError(f"{path}: search space must be a JSON object")
    for key, value in user.items():
        if key not in space:
            raise BadConfigError(f"unknown search-space key {key!r}")
        if not isinstance(value, list) or len(value) < 2:
            raise BadConfigError(f"space entry {key!r} needs at least two values")
        space[key] = value
    for key in ("K", "l1", "lr", "epochs"):
        if len(space[key]) != 2 or not space[key][0] <= space[key][1]:
            raise BadConfigError(f"space entry {key!r} must be a [lo, hi] pair")
    if space["l1"][0] <= 0 or space["lr"][0] <= 0:
        raise BadConfigError("l1 and lr ranges must be positive (sampled log-uniformly)")
    return space


def _sample_trial(rng: np.random.Generator, space: dict) -> dict:
    return {
        "k": int(rng.integers(space["K"][0], space["K"][1] + 1)),
        "l1": float(10 ** rng.uniform(math.log10(space["l1"][0]),
                                      math.log10(space["l1"][1]))),
        "lr": float(10 ** rng.uniform(math.log10(space["lr"][0]),
                                      math.log10(space["lr"][1]))),
        "batch": int(rng.choice(space["batch"])),
        "epochs": int(rng.integers(space["epochs"][0], space["epochs"][1] + 1)),
        "patience": int(rng.choice(space["patience"])),
    }


def cmd_search(args) -> int:
    data = data_io.load_csv(args.data, args.target, task="classify")
    space = _load_space(args.space)
    split_spec = data_io.SplitSpec(
        test_fraction=args.test_fraction, val_fraction=args.val_fraction, seed=args.seed
    )
    train, test, val = data_io.split(data, split_spec)
    scaler = data_io.Scaler().fit(train.X)
    train_s = data_io.Dataset(_transform(scaler, train.X), train.y,
                              train.feature_names, train.class_names)
    val_s = data_io.Dataset(_transform(scaler, val.X), val.y,
                            val.feature_names, val.class_names)

    rng = np.random.default_rng(args.seed)
    trials = []
    best = None  # (f1, trial_index, model)
    t0 = time.perf_counter()
    for t in range(args.trials):
        params = _sample_trial(rng, space)
        fit_seed = args.seed + t
        cfg = ClassifyConfig(
            num_terms=params["k"],
            l1_penalty=params["l1"],
            learning_rate=params["lr"],
            batch_size=params["batch"],
            epochs=params["epochs"],
            patience=params["patience"],
            seed=fit_seed,
            link=args.link,
            threshold_grid_step=args.threshold_grid,
        )
        try:
            model, trace = fit(
                train_s, val_s, cfg,
                feature_names=data.feature_names,
                class_names=data.class_names,
                scaler=scaler,
            )
        except _NUMERIC_ERRORS as exc:
            trials.append({
                "trial": t, "params": {**params, "fitSeed": fit_seed},
                "status": "diverged", "message": " ".join(str(exc).split()),
            })
            continue
        val_f1 = compute_metrics(val.y, predict_batch(model, val_s.X), model.C).f1
        trials.append({
            "trial": t,
            "params": {**params, "fitSeed": fit_seed},
            "status": "ok",
            "valF1": val_f1,
            "bestEpoch": trace.best_epoch,
        })
        if best is None or val_f1 > best[0]:
            best = (val_f1, t, model)
        print(f"trial {t}: K={params['k']} l1={params['l1']:.2e} "
              f"lr={params['lr']:.2e} batch={params['batch']} -> val F1 {val_f1:.4f}")
    elapsed = time.perf_counter() - t0
    if best is None:
        raise AllRestartsFailedError("every search trial diverged")

    best_f1, best_idx, best_model = best
    best_model.save(args.out)
    test_metrics = compute_metrics(
        test.y, predict_batch(best_model, _transform(scaler, test.X)), best_model.C
    )
    payload = {
        "version": RESULT_SCHEMA_VERSION,
        "trials": trials,
        "bestTrial": best_idx,
        "bestValF1": best_f1,
        "testMetrics": test_metrics.to_dict(),
        "resolvedConfig": {
            "command": "search",
            "data": args.data,
            "target": args.target,
            "trials": args.trials,
            "seed": args.seed,
            "testFraction": args.test_fraction,
            "valFraction": args.val_fraction,
            "link": args.link,
            "thresholdGrid": args.threshold_grid,
            "space": space,
            "f1Average": "weighted",
            "out": args.out,
        },
    }
    _write_json(payload, _sibling(args.out, "search.json"))
    _write_timing({"searchSeconds": elapsed}, args.out)
    print(f"best trial {best_idx}: val F1 {best_f1:.4f}, "
          f"test accuracy {test_metrics.accuracy:.4f}")
    return EXIT_OK


# --- parser ------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="signolearn",
        description="Sparse signomial models: train, predict, explain, recover.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="fit a classifier or regressor on a CSV")
    p.add_argument("--data", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--task", choices=["classify", "regress"], default="classify")
    p.add_argument("--k", type=int, default=None, help="number of terms per score")
    p.add_argument("--l1", type=float, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--batch", type=int, default=32)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--patience", type=int, default=20)
    p.add_argument("--class-weight", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--link", choices=["softmax", "sigmoid"], default="softmax")
    p.add_argument("--threshold-grid", type=float, default=1e-3)
    p.add_argument("--test-fraction", type=float, default=0.2)
    p.add_argument("--val-fraction", type=float, default=0.2)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="run a saved model over a CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--target", default=None,
                   help="label column; enables metrics in the output")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("explain", help="closed-form attribution for one input row")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--target", default=None)
    p.add_argument("--row", type=int, default=0)
    p.add_argument("--class", dest="class_idx", type=int, default=None,
                   help="class score to explain (default: predicted class)")
    p.add_argument("--mode", choices=["exact-log", "gradient"], default=None)
    p.add_argument("--term", type=int, default=None)
    p.add_argument("--baseline", choices=["geometric-mean", "all-ones", "sample"],
                   default="geometric-mean")
    p.add_argument("--baseline-row", type=int, default=0)
    p.add_argument("--gradient-target", choices=["score", "probability"],
                   default="score")
    p.add_argument("--counterfactual", default=None, metavar="FEATURE=Q")
    p.add_argument("--scenarios", default=None, help="JSON file of named inputs")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("recover", help="benchmark recovery for one target spec")
    p.add_argument("--spec", required=True)
    p.add_argument("--seeds", default="42..46")
    p.add_argument("--noise", type=float, default=0.01)
    p.add_argument("--restarts", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_recover)

    p = sub.add_parser("benchmark", help="run a suite of target specs")
    p.add_argument("--suite", required=True)
    p.add_argument("--seeds", default="42..46")
    p.add_argument("--noise", type=float, default=0.01)
    p.add_argument("--restarts", type=int, default=None)
    p.add_argument("--out", default=None, help="CSV path for the aggregate table")
    p.set_defaults(func=cmd_benchmark)

    p = sub.add_parser("search", help="seeded random hyperparameter search")
    p.add_argument("--data", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--space", default=None, help="JSON overriding the search space")
    p.add_argument("--link", choices=["softmax", "sigmoid"], default="softmax")
    p.add_argument("--threshold-grid", type=float, default=1e-3)
    p.add_argument("--test-fraction", type=float, default=0.2)
    p.add_argument("--val-fraction", type=float, default=0.2)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_search)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SignolearnError as exc:
        print(_error_line(exc), file=sys.stderr)
        return _exit_code_for(exc)
    except OSError as exc:
        print(_error_line(exc), file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
