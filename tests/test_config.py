"""Properties every training config must keep: no value slips past validate()
unchecked, and every field reaches a command's resolvedConfig."""

import dataclasses
import json
import os
import typing
from pathlib import Path

import numpy as np
import pytest

from signolearn import cli, data_io, regressor
from signolearn.classifier import ClassifyConfig
from signolearn.errors import BadConfigError
from signolearn.regressor import SrConfig

ASSETS = os.path.join(os.path.dirname(cli.__file__), "assets")
IRIS = os.path.join(ASSETS, "iris.csv")
SUITE = os.path.join(ASSETS, "feynman_subset.json")

FLOAT_FIELDS = [
    (cls, name)
    for cls in (ClassifyConfig, SrConfig)
    for name, hint in typing.get_type_hints(cls).items()
    if hint is float
]


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")], ids=str)
@pytest.mark.parametrize("cls, name", FLOAT_FIELDS,
                         ids=[f"{cls.__name__}.{name}" for cls, name in FLOAT_FIELDS])
def test_validate_rejects_every_non_finite_float(cls, name, value):
    with pytest.raises(BadConfigError):
        cls(**{name: value}).validate()


# every config field and the resolvedConfig key that records it
CLASSIFY_KEYS = {
    "num_terms": "k",
    "l1_penalty": "l1",
    "learning_rate": "lr",
    "batch_size": "batch",
    "epochs": "epochs",
    "patience": "patience",
    "class_weight_multiplier": "classWeight",
    "seed": "seed",
    "link": "link",
    "threshold_grid_step": "thresholdGrid",
}
SR_KEYS = {  # (command, key): `train --task regress` or `recover`
    "num_terms": ("train", "k"),
    "lambda_struct": ("train", "l1"),
    "restarts": ("train", "restarts"),
    "adam_epochs_per_stage": ("train", "epochs"),
    "learning_rate": ("train", "lr"),
    "seed_list": ("recover", "seeds"),
    "noise_sigma": ("recover", "noise"),
}


def test_every_config_field_is_in_a_resolved_config(tmp_path):
    regress = tmp_path / "r.csv"
    regress.write_text("u,t\n1,2\n2,4.1\n3,5.9\n4,8.2\n5,9.9\n6,12.1\n")
    spec = next(s for s in json.loads(Path(SUITE).read_text())["specs"] if s["name"] == "I.12.1")
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    runs = {
        "classify": ["train", "--data", IRIS, "--target", "species", "--epochs", "2",
                     "--out", str(tmp_path / "c.json")],
        "train": ["train", "--data", str(regress), "--target", "t", "--task", "regress",
                  "--k", "1", "--out", str(tmp_path / "r.json")],
        "recover": ["recover", "--spec", str(tmp_path / "spec.json"), "--seeds", "42",
                    "--out", str(tmp_path / "rec.json")],
    }
    for argv in runs.values():
        assert cli.main(argv) == 0
    resolved = {
        "classify": json.loads((tmp_path / "c.metrics.json").read_text())["resolvedConfig"],
        "train": json.loads((tmp_path / "r.metrics.json").read_text())["resolvedConfig"],
        "recover": json.loads((tmp_path / "rec.json").read_text())["resolvedConfig"],
    }

    classify_fields = [f.name for f in dataclasses.fields(ClassifyConfig)]
    assert sorted(classify_fields) == sorted(CLASSIFY_KEYS), "a ClassifyConfig field has no key"
    defaults = ClassifyConfig(epochs=2)
    for name, key in CLASSIFY_KEYS.items():
        assert resolved["classify"][key] == getattr(defaults, name), name

    sr_fields = [f.name for f in dataclasses.fields(SrConfig)]
    assert sorted(sr_fields) == sorted(SR_KEYS), "an SrConfig field has no key"
    for name, (command, key) in SR_KEYS.items():
        assert key in resolved[command], name


# --- seeds --------------------------------------------------------------------


def test_negative_seeds_are_config_errors():
    with pytest.raises(BadConfigError):
        ClassifyConfig(seed=-1).validate()
    with pytest.raises(BadConfigError):
        SrConfig(seed_list=(42, -1)).validate()
    data = data_io.load_csv(IRIS, "species")
    with pytest.raises(BadConfigError):
        data_io.split(data, data_io.SplitSpec(seed=-1))
    X = np.array([[1.0], [2.0], [3.0]])
    with pytest.raises(BadConfigError):
        regressor.fit_sr(X, 2.0 * X[:, 0], SrConfig(), seed=-1)


def test_seeds_of_2_to_the_128_or_more_are_config_errors():
    # numpy's Philox takes keys below 2**128; the largest one still works
    ClassifyConfig(seed=2**128 - 1).validate()
    SrConfig(seed_list=(2**128 - 1,)).validate()
    with pytest.raises(BadConfigError):
        ClassifyConfig(seed=2**128).validate()
    with pytest.raises(BadConfigError):
        SrConfig(seed_list=(42, 2**128)).validate()
    data = data_io.load_csv(IRIS, "species")
    with pytest.raises(BadConfigError):
        data_io.split(data, data_io.SplitSpec(seed=2**128))
    X = np.array([[1.0], [2.0], [3.0]])
    with pytest.raises(BadConfigError):
        regressor.fit_sr(X, 2.0 * X[:, 0], SrConfig(), seed=2**128)


@pytest.mark.parametrize("argv", [
    ["train", "--data", IRIS, "--target", "species", "--seed", "-1"],
    ["train", "--data", "NUMERIC", "--target", "t", "--task", "regress", "--seed", "-1"],
    ["search", "--data", IRIS, "--target", "species", "--trials", "1", "--seed", "-2"],
    ["recover", "--spec", "SPEC", "--seeds", "-3"],
    ["benchmark", "--suite", SUITE, "--seeds", "-1"],
], ids=["train", "train-regress", "search", "recover", "benchmark"])
def test_negative_seed_flags_exit_2(tmp_path, capsys, argv):
    assert_seed_flags_exit_2(tmp_path, capsys, argv)


@pytest.mark.parametrize("argv", [
    ["train", "--data", IRIS, "--target", "species", "--seed", str(2**128)],
    ["train", "--data", "NUMERIC", "--target", "t", "--task", "regress", "--seed", str(2**128)],
    # the second trial would fit with seed 2**128
    ["search", "--data", IRIS, "--target", "species", "--trials", "2", "--seed", str(2**128 - 1)],
    ["recover", "--spec", "SPEC", "--seeds", f"0..{2**128}"],
    ["benchmark", "--suite", SUITE, "--seeds", f"42,{2**130}"],
], ids=["train", "train-regress", "search", "recover", "benchmark"])
def test_seed_flags_of_2_to_the_128_or_more_exit_2(tmp_path, capsys, argv):
    assert_seed_flags_exit_2(tmp_path, capsys, argv)


def assert_seed_flags_exit_2(tmp_path, capsys, argv):
    inputs = {"SPEC": tmp_path / "spec.json", "NUMERIC": tmp_path / "d.csv"}
    inputs["SPEC"].write_text(json.dumps(json.loads(Path(SUITE).read_text())["specs"][0]))
    inputs["NUMERIC"].write_text("a,t\n" + "".join(f"{i},{2 * i}\n" for i in range(1, 11)))
    argv = [str(inputs.get(a, a)) for a in argv]
    if argv[0] in ("train", "search"):
        argv += ["--out", str(tmp_path / "m.json")]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("error: BadConfigError")
    assert sorted(os.listdir(tmp_path)) == ["d.csv", "spec.json"]
