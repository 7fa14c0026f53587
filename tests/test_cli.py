import csv
import json
import math
import os
import warnings
from pathlib import Path

import numpy as np
import pytest

from signolearn import cli, data_io
from signolearn.classifier import (
    ClassifyConfig,
    EcselModel,
    compute_metrics,
    fit,
    fit_trials,
    predict_batch,
    predict_proba,
)
from signolearn.errors import BadConfigError, CorruptModelError, NonFiniteLossError
from signolearn.regressor import RegressorModel, TargetSpec, generate_benchmark_data
from signolearn.signomial import Signomial

ASSETS = os.path.join(os.path.dirname(cli.__file__), "assets")
IRIS = os.path.join(ASSETS, "iris.csv")
TOY = os.path.join(ASSETS, "toy_model.json")
SUITE = os.path.join(ASSETS, "feynman_subset.json")


def write_blobs_csv(path, n_per=30, seed=0):
    """Two well-separated lognormal clouds, string class labels."""
    rng = np.random.default_rng(seed)
    rows = []
    for label, center in (("neg", (1.0, 3.0)), ("pos", (3.0, 1.0))):
        pts = rng.lognormal(0.0, 0.15, (n_per, 2)) * center
        rows += [[f"{a:.6f}", f"{b:.6f}", label] for a, b in pts]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["a", "b", "cls"])
        w.writerows(rows)
    return str(path)


def single_spec_file(tmp_path, name="I.12.1"):
    suite = json.loads(Path(SUITE).read_text())
    spec = next(s for s in suite["specs"] if s["name"] == name)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return str(path)


# --- seeds parsing ---------------------------------------------------------------


def test_parse_seeds_forms():
    assert cli.parse_seeds("42..46") == [42, 43, 44, 45, 46]
    assert cli.parse_seeds("1,5,9") == [1, 5, 9]
    assert cli.parse_seeds("7") == [7]


@pytest.mark.parametrize("bad", ["4x..9", "9..2", "a,b", "", "-1", "-2..3", "4,-1"])
def test_parse_seeds_rejects_garbage(bad):
    with pytest.raises(BadConfigError):
        cli.parse_seeds(bad)


# --- train -----------------------------------------------------------------------


def test_train_writes_all_artifacts(tmp_path, capsys):
    data = write_blobs_csv(tmp_path / "blobs.csv")
    out = str(tmp_path / "model.json")
    code = cli.main([
        "train", "--data", data, "--target", "cls", "--k", "1",
        "--seed", "3", "--epochs", "60", "--out", out,
    ])
    assert code == 0
    metrics = json.loads((tmp_path / "model.metrics.json").read_text())
    assert metrics["version"] == 1
    assert metrics["metrics"]["accuracy"] >= 0.9
    # defaults are filled into the emitted config
    cfg = metrics["resolvedConfig"]
    assert cfg["l1"] == 1e-3 and cfg["lr"] == 1e-3 and cfg["testFraction"] == 0.2
    with open(tmp_path / "model.trace.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["epoch", "trainLoss", "valLoss"]
    assert len(rows) > 1
    assert json.loads((tmp_path / "model.timing.json").read_text())["fitSeconds"] > 0
    assert "z(x) =" in capsys.readouterr().out


def test_train_missing_target_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli.main(["train", "--data", "x.csv", "--out", "m.json"])
    assert exc.value.code == 2


def test_train_byte_identical_reruns(tmp_path):
    data = write_blobs_csv(tmp_path / "blobs.csv")
    out = str(tmp_path / "m.json")
    argv = ["train", "--data", data, "--target", "cls", "--k", "1",
            "--seed", "11", "--epochs", "40", "--out", out]
    assert cli.main(argv) == 0
    snap = {
        name: (tmp_path / name).read_bytes()
        for name in ("m.json", "m.metrics.json", "m.trace.csv")
    }
    assert cli.main(argv) == 0
    for name, before in snap.items():
        assert (tmp_path / name).read_bytes() == before, name


def test_train_huge_l1_zeroes_every_exponent(tmp_path):
    data = write_blobs_csv(tmp_path / "blobs.csv")
    out = str(tmp_path / "m.json")
    assert cli.main([
        "train", "--data", data, "--target", "cls", "--l1", "10",
        "--seed", "0", "--epochs", "40", "--out", out,
    ]) == 0
    payload = json.loads(Path(out).read_text())
    for sig in payload["signomials"]:
        for term in sig["terms"]:
            assert all(b == 0.0 for b in term["beta"])


def test_train_regress_task(tmp_path):
    rng = np.random.default_rng(5)
    X = rng.uniform(1, 5, (200, 2))
    y = 3.0 * X[:, 0] / X[:, 1]
    path = tmp_path / "d.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["u", "v", "t"])
        w.writerows([[a, b, t] for (a, b), t in zip(X, y)])
    out = str(tmp_path / "sr.json")
    assert cli.main([
        "train", "--data", str(path), "--target", "t", "--task", "regress",
        "--k", "1", "--seed", "2", "--out", out,
    ]) == 0
    metrics = json.loads((tmp_path / "sr.metrics.json").read_text())
    assert metrics["metrics"]["r2"] > 0.999
    with open(tmp_path / "sr.trace.csv") as fh:
        assert next(csv.reader(fh)) == ["stage", "index", "loss"]


def test_train_regress_reports_the_polish_race(tmp_path):
    # Jin-2 at seed 1: the first candidate polishes to the truth, and the
    # race abandons the other three, whose MSEs stay finite and rank last
    entry = next(e for e in json.loads(Path(SUITE).read_text())["specs"] if e["name"] == "Jin-2")
    data = generate_benchmark_data(TargetSpec.from_dict(entry), 300, 0.01, 1)
    path = tmp_path / "jin2.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x1", "x2", "t"])
        w.writerows([[a, b, t] for (a, b), t in zip(data.X, data.y)])
    assert cli.main(["train", "--data", str(path), "--target", "t", "--task", "regress",
                     "--k", "3", "--seed", "1", "--out", str(tmp_path / "m.json")]) == 0
    stats = json.loads((tmp_path / "m.metrics.json").read_text())["fitStats"]
    assert stats["abandonedCandidates"] == 3
    assert isinstance(stats["lmEvaluations"], int) and stats["lmEvaluations"] > 0
    first, *rest = stats["candidateMses"]
    assert len(rest) == 3 and all(math.isfinite(v) and v > 10 * first for v in rest)


def test_train_reads_a_csv_with_a_byte_order_mark(tmp_path):
    # spreadsheet programs write a BOM; the first column must keep its name
    with open(IRIS, newline="") as fh:
        rows = list(csv.reader(fh))
    path = tmp_path / "bom.csv"
    with open(path, "w", newline="", encoding="utf-8-sig") as fh:
        csv.writer(fh).writerows([row[-1:] + row[:-1] for row in rows if row])
    assert path.read_bytes().startswith(b"\xef\xbb\xbfspecies,")
    out = str(tmp_path / "m.json")
    assert cli.main(["train", "--data", str(path), "--target", "species", "--k", "1",
                     "--epochs", "20", "--out", out]) == 0
    assert json.loads(Path(out).read_text())["featureNames"] == rows[0][:-1]


@pytest.mark.parametrize("argv", [
    ["train", "--val-fraction", "0"],
    ["train", "--val-fraction", "-0.2"],
    ["train", "--val-fraction", "1"],
    ["train", "--test-fraction", "1.5"],
    ["train", "--task", "regress", "--test-fraction", "0"],
    ["search", "--val-fraction", "0"],
    ["search", "--val-fraction", "-0.2"],
    ["search", "--test-fraction", "1.5"],
], ids=" ".join)
def test_out_of_range_split_fraction_is_a_usage_error(tmp_path, capsys, argv):
    numeric = tmp_path / "numeric.csv"
    numeric.write_text("u,t\n1,2\n2,3\n3,5\n4,4\n")
    data, target = (str(numeric), "t") if "regress" in argv else (IRIS, "species")
    assert cli.main([*argv, "--data", data, "--target", target,
                     "--out", str(tmp_path / "m.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: BadConfigError") and f"got {float(argv[-1])}" in err


@pytest.mark.parametrize("flags", [
    ["--batch", "7"],
    ["--patience", "3"],
    ["--link", "sigmoid"],
    ["--class-weight", "9"],
    ["--val-fraction", "0.9"],
    ["--threshold-grid", "0.1"],
], ids=" ".join)
def test_train_regress_refuses_a_classifier_flag(tmp_path, capsys, flags):
    numeric = tmp_path / "numeric.csv"
    numeric.write_text("u,t\n1,2\n2,3\n3,5\n4,4\n5,7\n")
    assert cli.main(["train", "--data", str(numeric), "--target", "t", "--task", "regress",
                     *flags, "--out", str(tmp_path / "m.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: BadConfigError") and flags[0] in err
    assert [p.name for p in tmp_path.iterdir()] == ["numeric.csv"]


@pytest.mark.parametrize("argv", [
    ["train", "--lr", "nan"],
    ["train", "--lr", "inf"],
    ["train", "--l1", "nan"],
    ["train", "--task", "regress", "--lr", "nan"],
    ["train", "--task", "regress", "--l1", "inf"],
    ["train", "--class-weight", "nan"],
    ["train", "--class-weight", "inf"],
], ids=" ".join)
def test_non_finite_hyperparameter_is_a_usage_error(tmp_path, capsys, argv):
    numeric = tmp_path / "numeric.csv"
    numeric.write_text("u,t\n1,2\n2,3\n3,5\n4,4\n5,7\n")
    data, target = (str(numeric), "t") if "regress" in argv else (IRIS, "species")
    assert cli.main([*argv, "--data", data, "--target", target,
                     "--out", str(tmp_path / "m.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: BadConfigError") and f"got {argv[-1]}" in err


@pytest.mark.parametrize("l1", ["-1", "nan"])
def test_bad_regression_l1_names_only_lambda_struct(tmp_path, capsys, l1):
    numeric = tmp_path / "numeric.csv"
    numeric.write_text("u,t\n1,2\n2,3\n3,5\n4,4\n5,7\n")
    assert cli.main(["train", "--data", str(numeric), "--target", "t", "--task", "regress",
                     "--l1", l1, "--out", str(tmp_path / "m.json")]) == 2
    err = capsys.readouterr().err
    assert err == ("error: BadConfigError: lambda_struct must be finite and >= 0, "
                   f"got {float(l1)}\n")


@pytest.mark.parametrize("patience", ["0", "-3"])
def test_patience_below_one_is_a_usage_error(tmp_path, capsys, patience):
    assert cli.main(["train", "--data", IRIS, "--target", "species", "--patience", patience,
                     "--out", str(tmp_path / "m.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: BadConfigError") and f"got {patience}" in err
    assert not (tmp_path / "m.json").exists()


def test_class_weight_giving_a_negative_weight_is_a_usage_error(tmp_path, capsys):
    # "pos" is a fifth of the rows, so multiplier -2 gives it a weight near
    # 1 - 2 * (5 / 2 - 1) = -2, which would make the loss unbounded below
    data = write_blobs_csv(tmp_path / "blobs.csv", n_per=20)
    with open(data) as fh:
        lines = fh.read().splitlines()
    (tmp_path / "skewed.csv").write_text("\n".join(lines[:21] + lines[21:26]) + "\n")
    assert cli.main(["train", "--data", str(tmp_path / "skewed.csv"), "--target", "cls",
                     "--class-weight", "-2", "--out", str(tmp_path / "m.json")]) == 2
    assert "negative weight" in capsys.readouterr().err


def test_recover_rejects_non_finite_noise(tmp_path, capsys):
    assert cli.main(["recover", "--spec", single_spec_file(tmp_path), "--seeds", "42",
                     "--noise", "nan", "--out", str(tmp_path / "rec.json")]) == 2
    assert capsys.readouterr().err.startswith("error: BadConfigError")


def test_train_numeric_failure_exit_code(tmp_path, capsys):
    data = write_blobs_csv(tmp_path / "blobs.csv")
    code = cli.main([
        "train", "--data", data, "--target", "cls", "--lr", "1e9",
        "--epochs", "30", "--out", str(tmp_path / "m.json"),
    ])
    assert code == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")


# --- predict ---------------------------------------------------------------------


def test_predict_reports_metrics(tmp_path):
    data = write_blobs_csv(tmp_path / "blobs.csv")
    out = str(tmp_path / "m.json")
    cli.main(["train", "--data", data, "--target", "cls", "--k", "1",
              "--seed", "3", "--epochs", "60", "--out", out])
    pred_out = str(tmp_path / "p.json")
    assert cli.main(["predict", "--model", out, "--data", data,
                     "--target", "cls", "--out", pred_out]) == 0
    payload = json.loads(Path(pred_out).read_text())
    assert len(payload["predictions"]) == 60
    assert payload["metrics"]["accuracy"] >= 0.9
    assert set(payload["predictedNames"]) <= {"neg", "pos"}


def test_predict_remaps_shuffled_label_encoding(tmp_path):
    data = write_blobs_csv(tmp_path / "blobs.csv")
    out = str(tmp_path / "m.json")
    cli.main(["train", "--data", data, "--target", "cls", "--k", "1",
              "--seed", "3", "--epochs", "60", "--out", out])
    # same rows, but "pos" appears first so the CSV encoding is flipped
    with open(data) as fh:
        rows = list(csv.reader(fh))
    flipped = tmp_path / "flipped.csv"
    with open(flipped, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(rows[0])
        w.writerows(rows[31:] + rows[1:31])
    p1 = str(tmp_path / "p1.json")
    cli.main(["predict", "--model", out, "--data", str(flipped),
              "--target", "cls", "--out", p1])
    assert json.loads(Path(p1).read_text())["metrics"]["accuracy"] >= 0.9


def test_predict_without_target_column(tmp_path):
    data = write_blobs_csv(tmp_path / "blobs.csv")
    out = str(tmp_path / "m.json")
    cli.main(["train", "--data", data, "--target", "cls", "--k", "1",
              "--seed", "3", "--epochs", "60", "--out", out])
    bare = tmp_path / "bare.csv"
    with open(data) as fh:
        rows = list(csv.reader(fh))
    with open(bare, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerows([row[:2] for row in rows])
    p = str(tmp_path / "p.json")
    assert cli.main(["predict", "--model", out, "--data", str(bare),
                     "--out", p]) == 0
    payload = json.loads(Path(p).read_text())
    assert "metrics" not in payload
    assert len(payload["predictions"]) == 60


def test_predict_no_target_flag_skips_label_column(tmp_path):
    # the CSV still has its string label column; without --target the model's
    # feature names pick out the numeric columns and the labels are ignored
    data = write_blobs_csv(tmp_path / "blobs.csv")
    out = str(tmp_path / "m.json")
    cli.main(["train", "--data", data, "--target", "cls", "--k", "1",
              "--seed", "3", "--epochs", "60", "--out", out])
    p = str(tmp_path / "p.json")
    assert cli.main(["predict", "--model", out, "--data", data,
                     "--out", p]) == 0
    payload = json.loads(Path(p).read_text())
    assert "metrics" not in payload
    with_target = str(tmp_path / "pt.json")
    cli.main(["predict", "--model", out, "--data", data,
              "--target", "cls", "--out", with_target])
    assert payload["predictions"] == json.loads(Path(with_target).read_text())["predictions"]


def test_predict_skips_blank_lines_with_and_without_target(tmp_path):
    data = write_blobs_csv(tmp_path / "blobs.csv")
    out = str(tmp_path / "m.json")
    cli.main(["train", "--data", data, "--target", "cls", "--k", "1",
              "--seed", "3", "--epochs", "60", "--out", out])
    with open(data) as fh:
        lines = fh.read().splitlines()
    gappy = tmp_path / "gappy.csv"
    gappy.write_text("\n".join(lines[:10] + ["", " , , "] + lines[10:]) + "\n\n")
    predictions = []
    for extra in ([], ["--target", "cls"]):
        p = str(tmp_path / f"p{len(extra)}.json")
        assert cli.main(["predict", "--model", out, "--data", str(gappy),
                         "--out", p, *extra]) == 0
        predictions.append(json.loads(Path(p).read_text())["predictions"])
    assert len(predictions[0]) == 60
    assert predictions[0] == predictions[1]


def test_predict_scores_a_classifier_csv_once(tmp_path, monkeypatch):
    # the predictions are decided from the probabilities, not from a second pass
    data = tmp_path / "x.csv"
    data.write_text("x1,x2,x3\n1.0,1.0,1.0\n2.0,0.5,3.0\n")
    calls = []
    real = EcselModel.scores_batch

    def counting(self, X):
        calls.append(len(X))
        return real(self, X)

    monkeypatch.setattr(EcselModel, "scores_batch", counting)
    out = tmp_path / "p.json"
    assert cli.main(["predict", "--model", TOY, "--data", str(data), "--out", str(out)]) == 0
    assert calls == [2]
    payload = json.loads(out.read_text())
    model = EcselModel.load(TOY)
    X = data_io.load_csv(str(data), None, features=model.feature_names).X
    assert payload["predictions"] == predict_batch(model, X).tolist() == [0, 1]


def test_model_with_mis_sized_scaler_is_corrupt(tmp_path, capsys):
    data = write_blobs_csv(tmp_path / "blobs.csv")
    out = str(tmp_path / "m.json")
    cli.main(["train", "--data", data, "--target", "cls", "--k", "1",
              "--seed", "3", "--epochs", "60", "--out", out])
    payload = json.loads(Path(out).read_text())
    payload["scaler"]["mins"] = payload["scaler"]["mins"][:1]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    with pytest.raises(CorruptModelError):
        EcselModel.load(str(bad))
    for command in ("predict", "explain"):
        assert cli.main([command, "--model", str(bad), "--data", data]) == 3
        assert capsys.readouterr().err.startswith("error: CorruptModelError")


def scaled_model_file(tmp_path):
    """A two-class model with a fitted scaler, saved as JSON."""
    data = write_blobs_csv(tmp_path / "blobs.csv")
    X = data_io.load_csv(data, "cls").X
    model = EcselModel(
        [Signomial([(1.0, (1.0, -1.0))]), Signomial([(1.0, (-1.0, 1.0))])],
        feature_names=["a", "b"], class_names=["neg", "pos"],
        scaler=data_io.Scaler().fit(X),
    )
    out = str(tmp_path / "std.json")
    model.save(out)
    return out, data


@pytest.mark.parametrize("edit", [
    # a standardize step in the model-file format; a scaler may have no steps
    lambda p: p["scaler"].update(steps=["standardize"],
                                 stepParams=[{"mean": [0.0, 0.0], "std": [1.0, 1.0]}]),
    lambda p: p["scaler"].update(lo=0.5),
    lambda p: p["scaler"].pop("stepParams"),
    lambda p: p["scaler"].update(steps=["warp"]),
    lambda p: p["scaler"].update(mins=[1.0, "low"]),
    # JSON numbers only: "0.5" must not decode as 0.5, nor false and true as 0 and 1
    lambda p: p["scaler"].update(mins=[str(v) for v in p["scaler"]["mins"]]),
    lambda p: p["scaler"].update(mins=[False, False], maxs=[True, True]),
    lambda p: p["scaler"]["maxs"].__setitem__(1, math.inf),
    lambda p: p["signomials"][0]["terms"][0].update(alpha=math.nan),
    lambda p: p["signomials"][1]["terms"][0]["beta"].__setitem__(0, math.inf),
    lambda p: p["signomials"][0].update(m=2.5),
    lambda p: p["signomials"][1].update(m="2"),
    lambda p: p.update(featureNames=[["a"], ["b"]]),
    # a string would read as one name per character
    lambda p: p.update(featureNames="ab"),
    lambda p: p.update(kind="regressor", signomial=p["signomials"][0], featureNames="ab"),
    lambda p: p.update(classNames="np"),
    lambda p: p.update(classNames=[0, 1]),
    # the CSV has columns a and b; a duplicate name would read a twice
    lambda p: p.update(featureNames=["a", "a"]),
    lambda p: p.update(kind="regressor", signomial=p["signomials"][0], featureNames=["a", "a"]),
    lambda p: p.update(kind="regressor"),  # a regressor payload has no "signomial" then
    lambda p: p.update(kind="forest"),
    lambda p: p.update(kind=["classifier"]),
], ids=["scaler-with-steps", "scaler-other-range", "no-step-params", "unknown-step",
        "bad-bound", "string-bounds", "bool-bounds", "infinite-bound", "nan-alpha",
        "infinite-beta", "fractional-m", "string-m",
        "feature-names-not-strings", "string-feature-names", "regressor-string-feature-names",
        "string-class-names", "class-names-not-strings", "duplicate-feature-names",
        "regressor-duplicate-feature-names", "regressor-without-signomial", "unknown-kind",
        "kind-not-a-string"])
def test_malformed_model_file_is_corrupt(tmp_path, capsys, edit):
    path, data = scaled_model_file(tmp_path)
    assert cli.main(["predict", "--model", path, "--data", data]) == 0
    payload = json.loads(Path(path).read_text())
    edit(payload)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    commands = ["predict"] if payload["kind"] == "regressor" else ["predict", "explain"]
    for command in commands:
        assert cli.main([command, "--model", str(bad), "--data", data]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: CorruptModelError") and err.count("\n") == 1
        assert str(bad) in err


@pytest.mark.parametrize("version", [True, 1.0])
def test_model_file_version_must_be_the_json_integer_1(tmp_path, capsys, version):
    path, data = scaled_model_file(tmp_path)
    payload = json.loads(Path(path).read_text())
    payload["version"] = version
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    for command in ("predict", "explain"):
        assert cli.main([command, "--model", str(bad), "--data", data]) == 3
        assert capsys.readouterr().err.startswith("error: SchemaVersionError")


def test_predict_regressor_on_constant_target_reports_mse_only(tmp_path):
    model = str(tmp_path / "sr.json")
    RegressorModel(Signomial([(1.0, (1.0, 0.0))]), ["u", "v"]).save(model)
    data = tmp_path / "d.csv"
    data.write_text("u,v,t\n1,5,3\n5,2,3\n")
    out = str(tmp_path / "p.json")
    assert cli.main(["predict", "--model", model, "--data", str(data),
                     "--target", "t", "--out", out]) == 0
    payload = json.loads(Path(out).read_text())
    assert payload["predictions"] == pytest.approx([1.0, 5.0])
    assert payload["metrics"] == {"mse": pytest.approx(4.0), "nmse": None, "r2": None}


def test_predict_metrics_map_labels_by_name_on_a_subset_of_classes(tmp_path, capsys):
    out = str(tmp_path / "m.json")
    assert cli.main(["train", "--data", IRIS, "--target", "species", "--k", "1",
                     "--seed", "0", "--epochs", "60", "--out", out]) == 0
    model = EcselModel.load(out)
    with open(IRIS) as fh:
        lines = fh.read().splitlines()
    subset = tmp_path / "virginica.csv"
    subset.write_text("\n".join([lines[0]] + [ln for ln in lines if "virginica" in ln]) + "\n")
    p = str(tmp_path / "p.json")
    assert cli.main(["predict", "--model", out, "--data", str(subset),
                     "--target", "species", "--out", p]) == 0
    payload = json.loads(Path(p).read_text())
    truth = model.class_names.index("virginica")
    expected = float(np.mean(np.array(payload["predictions"]) == truth))
    assert expected > 0.5
    assert payload["metrics"]["accuracy"] == pytest.approx(expected)
    # a label the model has never seen cannot be scored
    subset.write_text(subset.read_text().replace("virginica", "iris-nova", 1))
    assert cli.main(["predict", "--model", out, "--data", str(subset),
                     "--target", "species"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: DataFormatError") and "iris-nova" in err


@pytest.mark.parametrize("command", ["predict", "explain"])
@pytest.mark.parametrize("text", [
    "a,b,cls\n1.0,2.0,neg\n1.5,2.5,neg,extra\n",
    "a,b,a\n1.0,2.0,3.0\n",
], ids=["ragged-row", "duplicate-header"])
def test_malformed_csv_without_target_is_a_data_error(tmp_path, capsys, command, text):
    path = tmp_path / "d.csv"
    path.write_text(text)
    model, _ = scaled_model_file(tmp_path)
    assert cli.main([command, "--model", model, "--data", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: DataFormatError") and str(path) in err


@pytest.mark.parametrize("argv", [
    ["predict"], ["predict", "--target", "cls"], ["explain"], ["explain", "--target", "cls"],
])
def test_each_run_reads_the_model_file_once(tmp_path, monkeypatch, argv):
    path, data = scaled_model_file(tmp_path)
    calls = []
    real = data_io.load_model

    def counting(p):
        calls.append(p)
        return real(p)

    monkeypatch.setattr(data_io, "load_model", counting)
    assert cli.main([argv[0], "--model", path, "--data", data, *argv[1:]]) == 0
    assert calls == [path]


# --- explain ---------------------------------------------------------------------


def make_ones_csv(tmp_path):
    path = tmp_path / "ones.csv"
    path.write_text("x1,x2,x3\n1.0,1.0,1.0\n")
    return str(path)


def test_explain_counterfactual_matches_oracle(tmp_path):
    # doubling x1 on the bundled demo model's class-1 score at all-ones:
    # 0.7*2**1.6 + 0.5, same number as the library-level example
    ones = make_ones_csv(tmp_path)
    out = str(tmp_path / "report.json")
    code = cli.main([
        "explain", "--model", TOY, "--data", ones, "--class", "1",
        "--term", "0", "--counterfactual", "x1=2.0", "--out", out,
    ])
    assert code == 0
    report = json.loads(Path(out).read_text())
    cf = report["counterfactual"]
    assert cf["newScore"] == pytest.approx(2.6220031931145575, rel=1e-12)
    assert cf["feature"] == "x1"
    assert len(cf["curve"]) == 41
    assert report["mode"] == "exact-log"
    assert set(report["phi"]) == {"x1", "x2", "x3"}


def test_explain_exact_log_needs_term_on_multiterm(tmp_path, capsys):
    ones = make_ones_csv(tmp_path)
    code = cli.main([
        "explain", "--model", TOY, "--data", ones, "--mode", "exact-log",
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "gradient" in err


def test_explain_defaults_to_gradient_for_multiterm(tmp_path, capsys):
    ones = make_ones_csv(tmp_path)
    out = str(tmp_path / "r.json")
    assert cli.main(["explain", "--model", TOY, "--data", ones, "--out", out]) == 0
    report = json.loads(Path(out).read_text())
    assert report["mode"] == "gradient"
    # predicted class at all-ones is 0 (scores 1.4 vs 1.2)
    assert report["class"] == 0
    assert len(report["margins"]) == 1


def test_explain_sigmoid_model_explains_its_single_score(tmp_path, capsys):
    model = EcselModel([Signomial([(1.0, (2.0,))])], link="sigmoid")
    path = str(tmp_path / "sig.json")
    model.save(path)
    data = tmp_path / "x.csv"
    data.write_text("x1\n3.0\n")
    out = str(tmp_path / "e.json")
    # x1 = 3 scores 9, so the row is predicted positive (class 1)
    assert cli.main(["explain", "--model", path, "--data", str(data), "--out", out]) == 0
    report = json.loads(Path(out).read_text())
    assert report["class"] == report["resolvedConfig"]["class"] == 1
    assert report["logGradients"]["x1"]["value"] == pytest.approx(18.0)  # 2 * 3**2
    # --class 0 names the constant class, whose score and gradients are 0
    assert cli.main(["explain", "--model", path, "--data", str(data), "--out", out,
                     "--class", "0"]) == 0
    report = json.loads(Path(out).read_text())
    assert report["class"] == 0 and report["logGradients"]["x1"]["value"] == 0.0
    for bad in ("2", "-1"):
        assert cli.main(["explain", "--model", path, "--data", str(data),
                         "--class", bad]) == 2
        assert capsys.readouterr().err.startswith("error: BadConfigError")


@pytest.mark.parametrize("flags", [
    ["--mode", "gradient", "--term", "0"],
    ["--mode", "exact-log", "--term", "0", "--gradient-target", "probability"],
    ["--term", "0", "--gradient-target", "probability"],
    ["--baseline-row", "5"],
    ["--baseline", "all-ones", "--baseline-row", "0"],
])
def test_explain_refuses_a_flag_it_would_ignore(tmp_path, capsys, flags):
    ones = make_ones_csv(tmp_path)
    assert cli.main(["explain", "--model", TOY, "--data", ones, *flags]) == 2
    assert capsys.readouterr().err.startswith("error: BadConfigError")


def test_explain_probability_target_chooses_gradient_mode(tmp_path):
    model = EcselModel([Signomial([(1.0, (2.0,))])], link="sigmoid")
    path = str(tmp_path / "sig.json")
    model.save(path)
    data = tmp_path / "x.csv"
    data.write_text("x1\n3.0\n")
    out = str(tmp_path / "e.json")
    argv = ["explain", "--model", path, "--data", str(data), "--out", out]
    # one term: exact-log unless the probability target asks for gradient mode
    assert cli.main(argv) == 0
    assert json.loads(Path(out).read_text())["mode"] == "exact-log"
    assert cli.main([*argv, "--gradient-target", "probability"]) == 0
    report = json.loads(Path(out).read_text())
    assert report["mode"] == report["resolvedConfig"]["mode"] == "gradient"
    assert report["resolvedConfig"]["gradientTarget"] == "probability"


def test_explain_sigmoid_probability_target_attributes_class_1(tmp_path):
    # z = 1.5 x1 x2^-0.5; the report's phi, logGradients and elasticities all
    # describe class 1, and phi plus the residual is the change in p1
    model = EcselModel([Signomial([(1.5, (1.0, -0.5))])], link="sigmoid")
    path = str(tmp_path / "sig.json")
    model.save(path)
    data = tmp_path / "x.csv"
    data.write_text("x1,x2\n2.0,3.0\n1.0,1.0\n")
    out = tmp_path / "e.json"
    assert cli.main(["explain", "--model", path, "--data", str(data), "--out", str(out),
                     "--gradient-target", "probability"]) == 0
    report = json.loads(out.read_text())
    assert report["class"] == 1
    x, baseline = [2.0, 3.0], [math.sqrt(2.0), math.sqrt(3.0)]  # the geometric mean
    assert [report["baseline"][n] for n in ("x1", "x2")] == pytest.approx(baseline, rel=1e-15)
    p1 = [predict_proba(model, v)[1] for v in (x, baseline)]
    phi = {name: entry["value"] for name, entry in report["phi"].items()}
    assert sum(phi.values()) + report["residual"] == pytest.approx(p1[0] - p1[1], abs=1e-15)
    # class 1's probability rises with x1 and falls with x2, as its score does
    assert phi["x1"] > 0 > phi["x2"]
    assert report["logGradients"]["x1"]["value"] > 0 > report["logGradients"]["x2"]["value"]
    assert report["elasticities"]["x1"]["value"] == pytest.approx(1.0)
    assert report["elasticities"]["x2"]["value"] == pytest.approx(-0.5)


def test_explain_records_the_baseline_row_it_used(tmp_path):
    ones = make_ones_csv(tmp_path)
    out = str(tmp_path / "r.json")
    argv = ["explain", "--model", TOY, "--data", ones, "--out", out]
    for flags, row in [([], None), (["--baseline", "sample"], 0),
                       (["--baseline", "sample", "--baseline-row", "0"], 0)]:
        assert cli.main([*argv, *flags]) == 0
        assert json.loads(Path(out).read_text())["resolvedConfig"]["baselineRow"] == row
    assert cli.main([*argv, "--baseline", "sample", "--baseline-row", "1"]) == 2


def test_explain_row_out_of_range(tmp_path):
    ones = make_ones_csv(tmp_path)
    assert cli.main(["explain", "--model", TOY, "--data", ones,
                     "--row", "9"]) == 2


def test_explain_bad_counterfactual_feature(tmp_path):
    ones = make_ones_csv(tmp_path)
    assert cli.main(["explain", "--model", TOY, "--data", ones,
                     "--counterfactual", "bogus=2.0"]) == 2


@pytest.mark.parametrize("scale", ["0", "-1", "nan", "inf"])
def test_explain_counterfactual_scale_must_be_positive(tmp_path, capsys, scale):
    ones = make_ones_csv(tmp_path)
    assert cli.main(["explain", "--model", TOY, "--data", ones,
                     "--counterfactual", f"x1={scale}"]) == 2
    assert capsys.readouterr().err.startswith("error: BadConfigError")


def test_explain_counterfactual_curve_marks_overflowing_points_null(tmp_path, capsys):
    # 1.0 * x1^400 at x1 = 1: q^400 passes float range for q above about
    # 5.9, so the 5 grid points from 10^0.8 = 6.31 up have no score
    model = EcselModel([Signomial([(1.0, (400.0,))])], link="sigmoid")
    path = str(tmp_path / "steep.json")
    model.save(path)
    data = tmp_path / "x.csv"
    data.write_text("x1\n1.0\n")
    out = tmp_path / "e.json"
    argv = ["explain", "--model", path, "--data", str(data)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main([*argv, "--counterfactual", "x1=1.1", "--out", str(out)]) == 0
    assert not caught and capsys.readouterr().err == ""

    def no_constants(name):
        raise ValueError(f"{name} is not JSON")

    curve = json.loads(out.read_text(), parse_constant=no_constants)["counterfactual"]["curve"]
    nulls = [point["q"] for point in curve if point["score"] is None]
    assert len(nulls) == 5 and min(nulls) == pytest.approx(10 ** 0.8)
    assert all(point["score"] is not None for point in curve if point["q"] < 6.3)
    # the requested q itself must score
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main([*argv, "--counterfactual", "x1=7"]) == 4
    err = capsys.readouterr().err
    assert not caught and err.startswith("error: OverflowLimitError") and err.count("\n") == 1


def test_explain_scenarios(tmp_path):
    ones = make_ones_csv(tmp_path)
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps({
        "scenarios": [
            {"name": "base", "input": {"x1": 1.0, "x2": 1.0, "x3": 1.0}},
            {"name": "double-x1", "input": {"x1": 2.0, "x2": 1.0, "x3": 1.0}},
        ]
    }))
    out = str(tmp_path / "r.json")
    assert cli.main(["explain", "--model", TOY, "--data", ones,
                     "--scenarios", str(scen), "--out", out]) == 0
    rows = json.loads(Path(out).read_text())["scenarios"]
    assert [r["name"] for r in rows] == ["base", "double-x1"]
    assert rows[0]["scores"] == pytest.approx([1.4, 1.2])
    assert rows[0]["predicted"] == 0


@pytest.mark.parametrize("command, text", [
    ("explain", '{"scenarios": [{"name": "base", "input": '),
    ("explain", json.dumps(
        {"scenarios": [{"name": "base", "input": {"x1": 1.0, "x3": 1.0}}]}
    )),
    ("benchmark", json.dumps({"version": 1, "spec": []})),
], ids=["bad-json", "missing-feature", "no-specs"])
def test_malformed_json_input_is_a_data_error_naming_the_file(tmp_path, capsys,
                                                              command, text):
    path = tmp_path / "input.json"
    path.write_text(text)
    if command == "explain":
        argv = ["explain", "--model", TOY, "--data", make_ones_csv(tmp_path),
                "--scenarios", str(path)]
    else:
        argv = ["benchmark", "--suite", str(path)]
    assert cli.main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: DataFormatError") and str(path) in err
    assert err.count("\n") == 1


# --- recover / benchmark -----------------------------------------------------------


def test_recover_single_term_spec(tmp_path, capsys):
    spec = single_spec_file(tmp_path)
    out = str(tmp_path / "rec.json")
    assert cli.main(["recover", "--spec", spec, "--seeds", "42..43",
                     "--out", out]) == 0
    payload = json.loads(Path(out).read_text())
    assert payload["recoveryRate"] == 1.0
    assert [s["seed"] for s in payload["seeds"]] == [42, 43]
    assert "wallTimeSeconds" not in payload["seeds"][0]
    timing = json.loads((tmp_path / "rec.timing.json").read_text())
    assert set(timing["seedSeconds"]) == {"42", "43"}
    assert "recovery rate: 1.00" in capsys.readouterr().out


def test_recover_byte_identical_reruns(tmp_path):
    spec = single_spec_file(tmp_path)
    out = str(tmp_path / "rec.json")
    argv = ["recover", "--spec", spec, "--seeds", "42..43", "--out", out]
    assert cli.main(argv) == 0
    snap = (tmp_path / "rec.json").read_bytes()
    assert cli.main(argv) == 0
    assert (tmp_path / "rec.json").read_bytes() == snap


def test_recover_noiseless_nmse_vanishes(tmp_path):
    spec = single_spec_file(tmp_path)
    out = str(tmp_path / "rec.json")
    assert cli.main(["recover", "--spec", spec, "--seeds", "42",
                     "--noise", "0", "--out", out]) == 0
    seed_row = json.loads(Path(out).read_text())["seeds"][0]
    assert seed_row["equivalent"]
    assert seed_row["nmse"] == pytest.approx(0.0, abs=1e-12)


def test_recover_reads_a_spec_with_a_byte_order_mark(tmp_path):
    # the JSON inputs drop a BOM as the CSV reader does; without it this was
    # a DataFormatError, "Unexpected UTF-8 BOM"
    spec = Path(single_spec_file(tmp_path))
    plain = json.loads(spec.read_text())
    spec.write_text(json.dumps(plain), encoding="utf-8-sig")
    assert spec.read_bytes().startswith(b"\xef\xbb\xbf{")
    out = tmp_path / "rec.json"
    assert cli.main(["recover", "--spec", str(spec), "--seeds", "42", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["spec"] == plain["name"] and payload["recoveryRate"] == 1.0


def test_recover_missing_spec_file(tmp_path, capsys):
    assert cli.main(["recover", "--spec", str(tmp_path / "nope.json")]) == 3
    assert capsys.readouterr().err.startswith("error: ")


MISTYPED_SPEC_FIELDS = {
    "string-bool": {"positiveDomainOnly": "false"},
    "fractional-K": {"K": 2.7},
    "bool-K": {"K": True},
    "fractional-samples": {"samples": [10.9, 20.5]},
    "number-name": {"name": 5},
    "string-range": {"ranges": [[1.0, 5.0], "15"]},
    "string-bound": {"ranges": [["1", "5"], [1.0, 5.0]]},
}


@pytest.mark.parametrize("edit", MISTYPED_SPEC_FIELDS.values(), ids=MISTYPED_SPEC_FIELDS)
def test_a_spec_field_of_the_wrong_json_type_is_refused(tmp_path, capsys, edit):
    # "false" once read as True, 2.7 as K = 2, true as K = 1, 10.9 as 10 and
    # the range "15" as [1, 5]
    path = Path(single_spec_file(tmp_path))
    spec = {**json.loads(path.read_text()), **edit}
    path.write_text(json.dumps(spec))
    assert cli.main(["recover", "--spec", str(path), "--seeds", "42"]) == 3
    assert capsys.readouterr().err.startswith("error: DataFormatError")
    suite_path = tmp_path / "suite.json"
    suite_path.write_text(json.dumps({"version": 1, "specs": [spec]}))
    out = tmp_path / "bench.csv"
    assert cli.main(["benchmark", "--suite", str(suite_path), "--seeds", "42",
                     "--out", str(out)]) == 0
    with open(out) as fh:
        (row,) = csv.DictReader(fh)
    assert row["status"] == "error" and "invalid target spec" in row["message"]


def test_benchmark_isolates_bad_specs(tmp_path):
    suite = json.loads(Path(SUITE).read_text())
    good = next(s for s in suite["specs"] if s["name"] == "Livermore-13")
    mini = {"version": 1, "specs": [
        good,
        {"name": "broken"},
        {**good, "name": "no-terms", "K": 0},
    ]}
    suite_path = tmp_path / "suite.json"
    suite_path.write_text(json.dumps(mini))
    out = str(tmp_path / "bench.csv")
    assert cli.main(["benchmark", "--suite", str(suite_path),
                     "--seeds", "42..43", "--out", out]) == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert [r["name"] for r in rows] == ["Livermore-13", "broken", "no-terms"]
    assert rows[0]["status"] == "ok" and float(rows[0]["rate"]) == 1.0
    assert rows[1]["status"] == "error" and rows[1]["message"]
    assert rows[2]["status"] == "error" and "num_terms" in rows[2]["message"]


@pytest.mark.parametrize("flags", [
    ["--noise", "nan"],
    ["--noise", "-0.1"],
    ["--restarts", "0"],
], ids=" ".join)
def test_benchmark_bad_run_wide_flag_is_a_usage_error(tmp_path, capsys, flags):
    out = tmp_path / "bench.csv"
    assert cli.main(["benchmark", "--suite", SUITE, "--seeds", "42", *flags,
                     "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: BadConfigError")
    assert not out.exists()


def test_benchmark_empty_suite(tmp_path):
    suite_path = tmp_path / "suite.json"
    suite_path.write_text(json.dumps({"version": 1, "specs": []}))
    assert cli.main(["benchmark", "--suite", str(suite_path)]) == 3


# --- search ------------------------------------------------------------------------


def test_search_logs_trials_and_replays_best(tmp_path, monkeypatch):
    # the default space at seed 1 draws mixed K, batch sizes, epochs and
    # patience, with two pairs of trials that share K and batch size
    data = write_blobs_csv(tmp_path / "blobs.csv", n_per=40)
    out = str(tmp_path / "best.json")
    trained = []

    def recording(*args, **kwargs):
        results = fit_trials(*args, **kwargs)
        trained.extend(results)
        return results

    monkeypatch.setattr(cli, "fit_trials", recording)
    assert cli.main(["search", "--data", data, "--target", "cls",
                     "--trials", "6", "--seed", "1", "--out", out]) == 0
    log = json.loads((tmp_path / "best.search.json").read_text())
    assert len(log["trials"]) == len(trained) == 6
    best = log["trials"][log["bestTrial"]]
    assert best["valF1"] == log["bestValF1"]
    shapes = {(t["params"]["k"], t["params"]["batch"]) for t in log["trials"]}
    assert len(shapes) < 6 and len({t["params"]["k"] for t in log["trials"]}) > 1

    # replay: a lone fit with each logged configuration reproduces that
    # trial's model, val F1 and best epoch exactly
    full = data_io.load_csv(data, "cls")
    train, val, _, scaler = data_io.split_and_scale(
        full, data_io.SplitSpec(test_fraction=0.2, val_fraction=0.2, seed=1)
    )
    for entry, (stacked_model, _) in zip(log["trials"], trained):
        assert entry["status"] == "ok"
        p = entry["params"]
        cfg = ClassifyConfig(
            num_terms=p["k"], l1_penalty=p["l1"], learning_rate=p["lr"],
            batch_size=p["batch"], epochs=p["epochs"], patience=p["patience"],
            seed=p["fitSeed"],
        )
        model, trace = fit(train, val, cfg, feature_names=full.feature_names,
                           class_names=full.class_names, scaler=scaler)
        assert json.dumps(stacked_model.to_dict()) == json.dumps(model.to_dict())
        f1 = compute_metrics(val.y, predict_batch(model, val.X), model.C).f1
        assert f1 == entry["valF1"]
        assert trace.best_epoch == entry["bestEpoch"]
        if entry is best:
            saved = EcselModel.load(out).to_dict()
            assert json.dumps(saved) == json.dumps(model.to_dict())


def test_search_single_trial(tmp_path):
    data = write_blobs_csv(tmp_path / "blobs.csv")
    out = str(tmp_path / "best.json")
    assert cli.main(["search", "--data", data, "--target", "cls",
                     "--trials", "1", "--seed", "5", "--out", out]) == 0
    log = json.loads((tmp_path / "best.search.json").read_text())
    assert log["bestTrial"] == 0 and len(log["trials"]) == 1


def test_search_same_seed_same_trial_sequence(tmp_path):
    data = write_blobs_csv(tmp_path / "blobs.csv")

    def params(tag):
        out = str(tmp_path / f"{tag}.json")
        cli.main(["search", "--data", data, "--target", "cls",
                  "--trials", "4", "--seed", "9", "--out", out])
        log = json.loads((tmp_path / f"{tag}.search.json").read_text())
        return [t["params"] for t in log["trials"]]

    assert params("a") == params("b")


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_search_needs_at_least_one_trial(tmp_path, capsys, trials):
    data = write_blobs_csv(tmp_path / "blobs.csv")
    assert cli.main(["search", "--data", data, "--target", "cls", "--trials", trials,
                     "--out", str(tmp_path / "m.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: BadConfigError") and trials in err


@pytest.mark.parametrize("space", [
    {"patience": [20, 0]},
    {"patience": [-3, 20]},
    {"batch": [32, 0]},
    {"K": [0, 2]},
    {"epochs": [0, 10]},
], ids=json.dumps)
def test_search_space_count_below_one_fails_before_any_trial(tmp_path, capsys, space):
    data = write_blobs_csv(tmp_path / "blobs.csv")
    path = tmp_path / "space.json"
    path.write_text(json.dumps(space))
    assert cli.main(["search", "--data", data, "--target", "cls", "--trials", "4",
                     "--space", str(path), "--out", str(tmp_path / "m.json")]) == 2
    out, err = capsys.readouterr()
    (key,) = space
    assert f"{key!r} must hold integers >= 1" in err
    assert out == "" and not (tmp_path / "m.json").exists()


def test_search_invalid_space(tmp_path):
    data = write_blobs_csv(tmp_path / "blobs.csv")
    space = tmp_path / "space.json"
    space.write_text(json.dumps({"momentum": [0.1, 0.9]}))
    assert cli.main(["search", "--data", data, "--target", "cls",
                     "--trials", "1", "--space", str(space),
                     "--out", str(tmp_path / "m.json")]) == 2


@pytest.mark.parametrize("space", [
    {"K": ["a", "b"]},
    {"batch": ["x", "y"]},
    {"K": [1.5, 3]},
    {"l1": ["1e-4", 1e-2]},
    {"patience": [True, 20]},
], ids=["K-strings", "batch-strings", "K-float", "l1-string", "patience-bool"])
def test_search_space_entries_must_be_numbers(tmp_path, capsys, space):
    data = write_blobs_csv(tmp_path / "blobs.csv")
    path = tmp_path / "space.json"
    path.write_text(json.dumps(space))
    assert cli.main(["search", "--data", data, "--target", "cls", "--trials", "1",
                     "--space", str(path), "--out", str(tmp_path / "m.json")]) == 2
    err = capsys.readouterr().err
    (key,) = space
    assert err.startswith("error: BadConfigError") and repr(key) in err


def test_search_space_override_is_used_and_recorded(tmp_path):
    data = write_blobs_csv(tmp_path / "blobs.csv")
    space = {"K": [1, 1], "batch": [64, 128], "epochs": [3, 4]}
    path = tmp_path / "space.json"
    path.write_text(json.dumps(space))
    out = str(tmp_path / "m.json")
    assert cli.main(["search", "--data", data, "--target", "cls", "--trials", "2",
                     "--space", str(path), "--out", out]) == 0
    log = json.loads((tmp_path / "m.search.json").read_text())
    assert log["resolvedConfig"]["space"] == {**cli.DEFAULT_SEARCH_SPACE, **space}
    for trial in log["trials"]:
        assert trial["params"]["k"] == 1 and trial["params"]["batch"] in (64, 128)
        assert 3 <= trial["params"]["epochs"] <= 4


@pytest.mark.parametrize("space", [
    {"K": [3, 1]},
    {"epochs": [5, 10, 20]},
    {"l1": [0, 1e-2]},
], ids=["reversed-K", "three-epochs", "zero-l1"])
def test_search_space_ranges_must_be_positive_pairs(tmp_path, capsys, space):
    data = write_blobs_csv(tmp_path / "blobs.csv")
    path = tmp_path / "space.json"
    path.write_text(json.dumps(space))
    assert cli.main(["search", "--data", data, "--target", "cls", "--trials", "1",
                     "--space", str(path), "--out", str(tmp_path / "m.json")]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: BadConfigError") and err.count("\n") == 1
    assert out == "" and not (tmp_path / "m.json").exists()


def test_search_whose_every_trial_diverges_exits_4(tmp_path, capsys, monkeypatch):
    data = write_blobs_csv(tmp_path / "blobs.csv")

    def diverging(train, val, cfgs, **kwargs):
        return [NonFiniteLossError(f"trial {i} diverged") for i in range(len(cfgs))]

    monkeypatch.setattr(cli, "fit_trials", diverging)
    out = tmp_path / "m.json"
    assert cli.main(["search", "--data", data, "--target", "cls", "--trials", "3",
                     "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: AllRestartsFailedError") and err.count("\n") == 1
    assert not out.exists() and not (tmp_path / "m.search.json").exists()
