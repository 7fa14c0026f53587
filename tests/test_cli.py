import csv
import json
import os

import numpy as np
import pytest

from signolearn import cli, data_io
from signolearn.classifier import ClassifyConfig, compute_metrics, fit, predict_batch
from signolearn.errors import BadConfigError

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
    suite = json.load(open(SUITE))
    spec = next(s for s in suite["specs"] if s["name"] == name)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return str(path)


# --- seeds parsing ---------------------------------------------------------------


def test_parse_seeds_forms():
    assert cli.parse_seeds("42..46") == [42, 43, 44, 45, 46]
    assert cli.parse_seeds("1,5,9") == [1, 5, 9]
    assert cli.parse_seeds("7") == [7]


@pytest.mark.parametrize("bad", ["4x..9", "9..2", "a,b", ""])
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
    metrics = json.load(open(tmp_path / "model.metrics.json"))
    assert metrics["version"] == 1
    assert metrics["metrics"]["accuracy"] >= 0.9
    # defaults are filled into the emitted config
    cfg = metrics["resolvedConfig"]
    assert cfg["l1"] == 1e-3 and cfg["lr"] == 1e-3 and cfg["testFraction"] == 0.2
    with open(tmp_path / "model.trace.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["epoch", "trainLoss", "valLoss"]
    assert len(rows) > 1
    assert json.load(open(tmp_path / "model.timing.json"))["fitSeconds"] > 0
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
    payload = json.load(open(out))
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
    metrics = json.load(open(tmp_path / "sr.metrics.json"))
    assert metrics["metrics"]["r2"] > 0.999
    with open(tmp_path / "sr.trace.csv") as fh:
        assert next(csv.reader(fh)) == ["stage", "index", "loss"]


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
    payload = json.load(open(pred_out))
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
    assert json.load(open(p1))["metrics"]["accuracy"] >= 0.9


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
    payload = json.load(open(p))
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
    payload = json.load(open(p))
    assert "metrics" not in payload
    with_target = str(tmp_path / "pt.json")
    cli.main(["predict", "--model", out, "--data", data,
              "--target", "cls", "--out", with_target])
    assert payload["predictions"] == json.load(open(with_target))["predictions"]


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
    report = json.load(open(out))
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
    report = json.load(open(out))
    assert report["mode"] == "gradient"
    # predicted class at all-ones is 0 (scores 1.4 vs 1.2)
    assert report["class"] == 0
    assert len(report["margins"]) == 1


def test_explain_row_out_of_range(tmp_path):
    ones = make_ones_csv(tmp_path)
    assert cli.main(["explain", "--model", TOY, "--data", ones,
                     "--row", "9"]) == 2


def test_explain_bad_counterfactual_feature(tmp_path):
    ones = make_ones_csv(tmp_path)
    assert cli.main(["explain", "--model", TOY, "--data", ones,
                     "--counterfactual", "bogus=2.0"]) == 2


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
    rows = json.load(open(out))["scenarios"]
    assert [r["name"] for r in rows] == ["base", "double-x1"]
    assert rows[0]["scores"] == pytest.approx([1.4, 1.2])
    assert rows[0]["predicted"] == 0


# --- recover / benchmark -----------------------------------------------------------


def test_recover_single_term_spec(tmp_path, capsys):
    spec = single_spec_file(tmp_path)
    out = str(tmp_path / "rec.json")
    assert cli.main(["recover", "--spec", spec, "--seeds", "42..43",
                     "--out", out]) == 0
    payload = json.load(open(out))
    assert payload["recoveryRate"] == 1.0
    assert [s["seed"] for s in payload["seeds"]] == [42, 43]
    assert "wallTimeSeconds" not in payload["seeds"][0]
    timing = json.load(open(tmp_path / "rec.timing.json"))
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
    seed_row = json.load(open(out))["seeds"][0]
    assert seed_row["equivalent"]
    assert seed_row["nmse"] == pytest.approx(0.0, abs=1e-12)


def test_recover_missing_spec_file(tmp_path, capsys):
    assert cli.main(["recover", "--spec", str(tmp_path / "nope.json")]) == 3
    assert capsys.readouterr().err.startswith("error: ")


def test_benchmark_isolates_bad_specs(tmp_path):
    suite = json.load(open(SUITE))
    mini = {"version": 1, "specs": [
        next(s for s in suite["specs"] if s["name"] == "Livermore-13"),
        {"name": "broken"},
    ]}
    suite_path = tmp_path / "suite.json"
    suite_path.write_text(json.dumps(mini))
    out = str(tmp_path / "bench.csv")
    assert cli.main(["benchmark", "--suite", str(suite_path),
                     "--seeds", "42..43", "--out", out]) == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert [r["name"] for r in rows] == ["Livermore-13", "broken"]
    assert rows[0]["status"] == "ok" and float(rows[0]["rate"]) == 1.0
    assert rows[1]["status"] == "error" and rows[1]["message"]


def test_benchmark_empty_suite(tmp_path):
    suite_path = tmp_path / "suite.json"
    suite_path.write_text(json.dumps({"version": 1, "specs": []}))
    assert cli.main(["benchmark", "--suite", str(suite_path)]) == 3


# --- search ------------------------------------------------------------------------


def test_search_logs_trials_and_replays_best(tmp_path):
    data = write_blobs_csv(tmp_path / "blobs.csv", n_per=40)
    out = str(tmp_path / "best.json")
    assert cli.main(["search", "--data", data, "--target", "cls",
                     "--trials", "3", "--seed", "1", "--out", out]) == 0
    log = json.load(open(tmp_path / "best.search.json"))
    assert len(log["trials"]) == 3
    best = log["trials"][log["bestTrial"]]
    assert best["valF1"] == log["bestValF1"]

    # replay: rebuilding the logged configuration reproduces the val F1 exactly
    full = data_io.load_csv(data, "cls")
    train, test, val = data_io.split(
        full, data_io.SplitSpec(test_fraction=0.2, val_fraction=0.2, seed=1)
    )
    scaler = data_io.Scaler().fit(train.X)
    p = best["params"]
    cfg = ClassifyConfig(
        num_terms=p["k"], l1_penalty=p["l1"], learning_rate=p["lr"],
        batch_size=p["batch"], epochs=p["epochs"], patience=p["patience"],
        seed=p["fitSeed"],
    )
    model, _ = fit(
        data_io.Dataset(scaler.transform(train.X), train.y,
                        train.feature_names, train.class_names),
        data_io.Dataset(scaler.transform(val.X), val.y,
                        val.feature_names, val.class_names),
        cfg,
    )
    f1 = compute_metrics(val.y, predict_batch(model, scaler.transform(val.X)),
                         model.C).f1
    assert f1 == log["bestValF1"]


def test_search_single_trial(tmp_path):
    data = write_blobs_csv(tmp_path / "blobs.csv")
    out = str(tmp_path / "best.json")
    assert cli.main(["search", "--data", data, "--target", "cls",
                     "--trials", "1", "--seed", "5", "--out", out]) == 0
    log = json.load(open(tmp_path / "best.search.json"))
    assert log["bestTrial"] == 0 and len(log["trials"]) == 1


def test_search_same_seed_same_trial_sequence(tmp_path):
    data = write_blobs_csv(tmp_path / "blobs.csv")

    def params(tag):
        out = str(tmp_path / f"{tag}.json")
        cli.main(["search", "--data", data, "--target", "cls",
                  "--trials", "4", "--seed", "9", "--out", out])
        log = json.load(open(tmp_path / f"{tag}.search.json"))
        return [t["params"] for t in log["trials"]]

    assert params("a") == params("b")


def test_search_invalid_space(tmp_path):
    data = write_blobs_csv(tmp_path / "blobs.csv")
    space = tmp_path / "space.json"
    space.write_text(json.dumps({"momentum": [0.1, 0.9]}))
    assert cli.main(["search", "--data", data, "--target", "cls",
                     "--trials", "1", "--space", str(space),
                     "--out", str(tmp_path / "m.json")]) == 2
