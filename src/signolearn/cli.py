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
import dataclasses
import json
import math
import os
import sys
import time

import numpy as np

from . import data_io
from .classifier import (
    LINKS,
    ClassifyConfig,
    EcselModel,
    _decide,
    _threshold_entry,
    compute_metrics,
    fit,
    fit_trials,
    predict,
    predict_batch,
    predict_proba_batch,
)
from .errors import (
    AllRestartsFailedError,
    BadConfigError,
    CorruptModelError,
    DataFormatError,
    NameCountMismatchError,
    NumericalError,
    OverflowLimitError,
    SameClassError,
    SignolearnError,
)
from .explain import build_report, compare_scenarios, counterfactual_scale, default_baseline
from .regressor import RegressorModel, SrConfig, TargetSpec, evaluate_recovery, fit_sr, score_fit
from .signomial import evaluate_batch, render

RESULT_SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

_USAGE_ERRORS = (BadConfigError, SameClassError, NameCountMismatchError)

MODEL_KINDS = {"classifier": EcselModel.from_dict, "regressor": RegressorModel.from_dict}


def _error_line(exc: BaseException) -> str:
    msg = " ".join(str(exc).split())
    return f"error: {type(exc).__name__}: {msg}"


def _exit_code_for(exc: BaseException) -> int:
    if isinstance(exc, _USAGE_ERRORS):
        return EXIT_USAGE
    if isinstance(exc, NumericalError):
        return EXIT_NUMERIC
    return EXIT_DATA


def parse_seeds(text: str) -> list[int]:
    """'42..46' (inclusive), '42,43,44', or a single integer; seeds are in [0, 2**128)."""
    text = text.strip()
    try:
        if ".." in text:
            lo_s, hi_s = text.split("..")
            lo, hi = int(lo_s), int(hi_s)
            if hi < lo:
                raise BadConfigError(f"empty seed range {text!r}")
            ends = [lo, hi]
        else:
            ends = [int(p) for p in text.split(",")]
    except ValueError:
        raise BadConfigError(f"cannot parse seeds {text!r}")
    # a range is checked at its ends, before it is built
    for seed in ends:
        data_io.check_seed(seed, "seeds")
    return list(range(lo, hi + 1)) if ".." in text else ends


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


def _given(**flags) -> dict:
    """The flags set on the command line; the rest take the config's defaults."""
    return {name: value for name, value in flags.items() if value is not None}


def _load_model(path: str) -> EcselModel | RegressorModel:
    head = data_io.load_model(path)
    kind = head.get("kind")
    if not isinstance(kind, str) or kind not in MODEL_KINDS:
        raise CorruptModelError(f"{path}: unknown model kind {kind!r}")
    try:
        return MODEL_KINDS[kind](head)
    except CorruptModelError as exc:
        raise CorruptModelError(f"{path}: {exc}") from exc


# --- train ------------------------------------------------------------------------


# train flags only a classifier reads, by argparse dest; --task regress refuses them
_CLASSIFIER_FLAGS = {
    "batch": "--batch",
    "patience": "--patience",
    "class_weight": "--class-weight",
    "link": "--link",
    "threshold_grid": "--threshold-grid",
    "val_fraction": "--val-fraction",
}
DEFAULT_VAL_FRACTION = 0.2


def _train_classifier(args, data: data_io.Dataset) -> tuple[dict, dict, list, float]:
    val_fraction = DEFAULT_VAL_FRACTION if args.val_fraction is None else args.val_fraction
    spec = data_io.SplitSpec(args.test_fraction, val_fraction, args.seed)
    train, val, test, scaler = data_io.split_and_scale(data, spec)
    cfg = ClassifyConfig(seed=args.seed, **_given(
        num_terms=args.k,
        l1_penalty=args.l1,
        learning_rate=args.lr,
        batch_size=args.batch,
        epochs=args.epochs,
        patience=args.patience,
        class_weight_multiplier=args.class_weight,
        link=args.link,
        threshold_grid_step=args.threshold_grid,
    ))
    t0 = time.perf_counter()
    model, trace = fit(
        train, val, cfg,
        feature_names=data.feature_names,
        class_names=data.class_names,
        scaler=scaler,
    )
    elapsed = time.perf_counter() - t0
    y_pred = predict_batch(model, test.X)
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
        "valFraction": val_fraction,
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
        **_threshold_entry(model),
    }
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
    train, test = data_io.split(data, data_io.SplitSpec(args.test_fraction, seed=args.seed))
    cfg = SrConfig(seed_list=(args.seed,), **_given(
        num_terms=args.k,
        lambda_struct=args.l1,
        learning_rate=args.lr,
        adam_epochs_per_stage=args.epochs,
    ))
    t0 = time.perf_counter()
    fitted, stats = fit_sr(train.X, train.y, cfg, seed=args.seed)
    elapsed = time.perf_counter() - t0
    test_metrics = score_fit(fitted, test.X, test.y).to_dict()

    RegressorModel(fitted, data.feature_names).save(args.out)
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
        + [("polish", i, v) for i, v in enumerate(stats.candidate_mses)]
    )
    printed = [f"y = {equations['plain']}", f"test mse: {test_metrics['mse']:.6g}"]
    return payload, {"fitSeconds": elapsed}, trace_rows, printed


def cmd_train(args) -> int:
    if args.task == "regress":
        for dest, flag in _CLASSIFIER_FLAGS.items():
            if getattr(args, dest) is not None:
                raise BadConfigError(f"{flag} applies only to --task classify")
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
    model = _load_model(args.model)
    classify = isinstance(model, EcselModel)
    data = data_io.load_csv(args.data, args.target, task="classify" if classify else "regress",
                            features=model.feature_names)
    if classify:
        proba = predict_proba_batch(model, _transform(model.scaler, data.X))
        y_pred = _decide(model, proba)
        payload = {
            "version": RESULT_SCHEMA_VERSION,
            "kind": "classifier",
            "predictions": [int(v) for v in y_pred],
            "predictedNames": [model.class_names[int(v)] for v in y_pred],
            "probabilities": [[float(p) for p in row] for row in proba],
        }
        if data.y is not None:
            y = _remap_labels(data.y, data.class_names, model.class_names)
            payload["metrics"] = compute_metrics(y, y_pred, model.C).to_dict()
    else:
        preds, _ = evaluate_batch(model.signomial, data.X)
        payload = {
            "version": RESULT_SCHEMA_VERSION,
            "kind": "regressor",
            "predictions": [float(v) for v in preds],
        }
        if data.y is not None:
            payload["metrics"] = score_fit(model.signomial, data.X, data.y).to_dict()
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
    """Re-encode CSV labels (first-appearance order) by the model's class names."""
    unknown = [name for name in data_names if name not in model_names]
    if unknown:
        raise DataFormatError(f"labels {unknown} are not classes of the model {model_names}")
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
    if not (math.isfinite(q) and q > 0):
        raise BadConfigError(f"scale factor must be finite and > 0, got {raw!r} in {text!r}")
    return feature_names.index(name), q


def cmd_explain(args) -> int:
    model = _load_model(args.model)
    if not isinstance(model, EcselModel):
        raise DataFormatError("explain works on classifier models")
    data = data_io.load_csv(args.data, args.target, features=model.feature_names)
    Xs = _transform(model.scaler, data.X)
    if not 0 <= args.row < len(Xs):
        raise BadConfigError(f"row {args.row} out of range for {len(Xs)} rows")
    x = Xs[args.row]
    # a sigmoid model explains class 1, whose score it learned, whatever the
    # prediction; a softmax model explains its predicted class by default
    class_idx = args.class_idx
    if class_idx is None:
        class_idx = 1 if model.link == "sigmoid" else int(predict(model, x))
    elif not 0 <= class_idx < model.C:
        raise BadConfigError(f"--class {class_idx} out of range for {model.C} classes")

    # a term index asks for exact-log mode and a probability target for
    # gradient mode; build_report refuses either in the other mode
    mode = args.mode
    if mode is None:
        if args.term is not None:
            mode = "exact-log"
        elif args.gradient_target == "probability":
            mode = "gradient"
        else:
            mode = "exact-log" if model.term_counts[class_idx] == 1 else "gradient"
    baseline_row = args.baseline_row
    if args.baseline != "sample" and baseline_row is not None:
        raise BadConfigError(
            f"--baseline-row needs --baseline sample, not --baseline {args.baseline}"
        )
    if args.baseline == "sample" and baseline_row is None:
        baseline_row = 0
    baseline = default_baseline(
        data_io.Dataset(Xs, None, model.feature_names), args.baseline, row=baseline_row or 0
    )

    report = build_report(
        model, x, class_idx, mode, baseline,
        term_idx=args.term, target=args.gradient_target,
    )
    if args.counterfactual is not None:
        j, q = _parse_counterfactual(args.counterfactual, model.feature_names)
        per_class = [counterfactual_scale(model, c, x, j, q) for c in range(model.C)]
        # a curve point past float range has a null score; the curve itself
        # goes on
        curve = []
        for qq in np.geomspace(0.1, 10.0, 41).tolist():
            try:
                score = counterfactual_scale(model, class_idx, x, j, qq)
            except OverflowLimitError:
                score = None
            curve.append({"q": qq, "score": score})
        report["counterfactual"] = {
            "feature": model.feature_names[j],
            "q": q,
            "newScore": per_class[class_idx],
            "perClass": per_class,
            "curve": curve,
        }
    if args.scenarios is not None:
        raw = data_io.read_json(args.scenarios)
        named = []
        try:
            for entry in raw["scenarios"] if isinstance(raw, dict) else raw:
                vec = np.array([float(entry["input"][n]) for n in model.feature_names])
                named.append((entry["name"], _transform(model.scaler, vec[None, :])[0]))
        except (KeyError, TypeError, ValueError) as exc:
            raise DataFormatError(
                f"{args.scenarios}: each scenario needs a name and an input value for "
                f"every feature ({type(exc).__name__}: {exc})"
            ) from exc
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
        "baselineRow": baseline_row,
        "gradientTarget": args.gradient_target,
        "counterfactual": args.counterfactual,
        "scenarios": args.scenarios,
        "out": args.out,
    }
    _write_json(report, args.out)
    return EXIT_OK


# --- recover / benchmark ------------------------------------------------------------


def _recovery_config(num_terms: int, seeds: list[int], noise: float | None,
                     restarts: int | None) -> SrConfig:
    return SrConfig(
        num_terms=num_terms,
        seed_list=tuple(seeds),
        restarts=restarts,
        **_given(noise_sigma=noise),
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
    spec = TargetSpec.from_dict(data_io.read_json(args.spec))
    seeds = parse_seeds(args.seeds)
    cfg = _recovery_config(spec.num_terms, seeds, args.noise, args.restarts)
    result = evaluate_recovery(spec, cfg)
    payload = {
        "version": RESULT_SCHEMA_VERSION,
        **result.to_dict(),
        "resolvedConfig": {
            "command": "recover",
            "spec": args.spec,
            "seeds": seeds,
            "noise": cfg.noise_sigma,
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
    raw = data_io.read_json(args.suite)
    entries = raw.get("specs") if isinstance(raw, dict) else raw
    if not isinstance(entries, list) or not entries:
        raise DataFormatError(
            f"{args.suite}: need a non-empty list of specs, bare or under 'specs'"
        )
    seeds = parse_seeds(args.seeds)
    # the run-wide flags are checked once, so a bad one is a usage error and
    # not an error row per spec; each spec's own faults still get a row
    _recovery_config(1, seeds, args.noise, args.restarts).validate()

    def run_one(entry) -> dict:
        try:
            spec = TargetSpec.from_dict(entry)
            cfg = _recovery_config(spec.num_terms, seeds, args.noise, args.restarts)
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
    user = data_io.read_json(path)
    if not isinstance(user, dict):
        raise BadConfigError(f"{path}: search space must be a JSON object")
    for key, value in user.items():
        if key not in space:
            raise BadConfigError(f"unknown search-space key {key!r}")
        if not isinstance(value, list) or len(value) < 2:
            raise BadConfigError(f"space entry {key!r} needs at least two values")
        # l1 and lr are sampled log-uniformly, the rest are whole counts
        kind, types = ("numbers", (int, float)) if key in ("l1", "lr") else ("integers", int)
        for v in value:
            if isinstance(v, bool) or not isinstance(v, types) or not math.isfinite(v):
                raise BadConfigError(f"space entry {key!r} must hold finite {kind}, got {v!r}")
            # checked before the first trial, so no finished trial is thrown away
            if kind == "integers" and v < 1:
                raise BadConfigError(f"space entry {key!r} must hold integers >= 1, got {v!r}")
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
    if args.trials < 1:
        raise BadConfigError(f"--trials must be >= 1, got {args.trials}")
    # trial t fits with seed + t, so the last trial's seed must be valid too
    data_io.check_seed(args.seed, "--seed")
    data_io.check_seed(args.seed + args.trials - 1, "the last trial's seed")
    data = data_io.load_csv(args.data, args.target, task="classify")
    space = _load_space(args.space)
    spec = data_io.SplitSpec(args.test_fraction, args.val_fraction, args.seed)
    train, val, test, scaler = data_io.split_and_scale(data, spec)
    base = ClassifyConfig(**_given(link=args.link, threshold_grid_step=args.threshold_grid))

    rng = np.random.default_rng(args.seed)
    sampled = [_sample_trial(rng, space) for _ in range(args.trials)]
    cfgs = [
        dataclasses.replace(
            base,
            num_terms=params["k"],
            l1_penalty=params["l1"],
            learning_rate=params["lr"],
            batch_size=params["batch"],
            epochs=params["epochs"],
            patience=params["patience"],
            seed=args.seed + t,
        )
        for t, params in enumerate(sampled)
    ]
    trials = []
    best = None  # (f1, trial_index, model)
    t0 = time.perf_counter()
    # trials sharing K, batch size and link train as one stack
    results = fit_trials(
        train, val, cfgs,
        feature_names=data.feature_names,
        class_names=data.class_names,
        scaler=scaler,
    )
    for t, (params, cfg, result) in enumerate(zip(sampled, cfgs, results)):
        logged = {**params, "fitSeed": cfg.seed}
        if isinstance(result, NumericalError):
            trials.append({
                "trial": t, "params": logged,
                "status": "diverged", "message": " ".join(str(result).split()),
            })
            continue
        model, trace = result
        val_f1 = compute_metrics(val.y, predict_batch(model, val.X), model.C).f1
        trials.append({
            "trial": t,
            "params": logged,
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
    test_metrics = compute_metrics(test.y, predict_batch(best_model, test.X), best_model.C)
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
            "link": base.link,
            "thresholdGrid": base.threshold_grid_step,
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
    p.add_argument("--batch", type=int, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--patience", type=int, default=None)
    p.add_argument("--class-weight", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--link", choices=LINKS, default=None)
    p.add_argument("--threshold-grid", type=float, default=None)
    p.add_argument("--test-fraction", type=float, default=0.2)
    p.add_argument("--val-fraction", type=float, default=None,
                   help=f"classifiers only (default: {DEFAULT_VAL_FRACTION})")
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
    p.add_argument("--baseline-row", type=int, default=None,
                   help="row used by --baseline sample (default: 0)")
    p.add_argument("--gradient-target", choices=["score", "probability"],
                   default="score")
    p.add_argument("--counterfactual", default=None, metavar="FEATURE=Q")
    p.add_argument("--scenarios", default=None, help="JSON file of named inputs")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("recover", help="benchmark recovery for one target spec")
    p.add_argument("--spec", required=True)
    p.add_argument("--seeds", default="42..46")
    p.add_argument("--noise", type=float, default=None)
    p.add_argument("--restarts", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_recover)

    p = sub.add_parser("benchmark", help="run a suite of target specs")
    p.add_argument("--suite", required=True)
    p.add_argument("--seeds", default="42..46")
    p.add_argument("--noise", type=float, default=None)
    p.add_argument("--restarts", type=int, default=None)
    p.add_argument("--out", default=None, help="CSV path for the aggregate table")
    p.set_defaults(func=cmd_benchmark)

    p = sub.add_parser("search", help="seeded random hyperparameter search")
    p.add_argument("--data", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--space", default=None, help="JSON overriding the search space")
    p.add_argument("--link", choices=LINKS, default=None)
    p.add_argument("--threshold-grid", type=float, default=None)
    p.add_argument("--test-fraction", type=float, default=0.2)
    p.add_argument("--val-fraction", type=float, default=DEFAULT_VAL_FRACTION)
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
