import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from signolearn.data_io import (
    Dataset,
    Scaler,
    SplitSpec,
    load_csv,
    load_model,
    save_model,
    split,
)
from signolearn.errors import (
    BadConfigError,
    ClassTooSmallError,
    CorruptModelError,
    DataFormatError,
    DimensionMismatchError,
    SchemaVersionError,
)


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


# --- scaler ------------------------------------------------------------------


def test_scaler_maps_to_target_interval():
    sc = Scaler()
    X = np.array([[0.0], [5.0], [10.0]])
    out = sc.fit(X).transform(X)
    # oracle: 1 + 9 * x/10 by hand -> 1, 5.5, 10
    assert (sc.lo, sc.hi) == (1.0, 10.0)
    assert out.ravel() == pytest.approx([1.0, 5.5, 10.0])


def test_scaler_constant_column_maps_to_lo():
    X = np.array([[3.0, 1.0], [3.0, 2.0]])
    out = Scaler().fit(X).transform(X)
    assert out[:, 0] == pytest.approx([1.0, 1.0])


def test_scaler_clamps_unseen_data():
    sc = Scaler().fit(np.array([[0.0], [10.0]]))
    out = sc.transform(np.array([[-5.0], [15.0]]))
    assert out.ravel() == pytest.approx([1.0, 10.0])


def test_scaler_round_trip_serialization():
    sc = Scaler().fit(np.array([[1.0, 2.0], [3.0, 8.0]]))
    sc2 = Scaler.from_dict(sc.to_dict())
    X = np.array([[2.0, 4.0], [0.5, 9.0]])
    assert np.allclose(sc.transform(X), sc2.transform(X))


def test_scaler_payload_with_empty_steps_round_trips():
    # the six keys a fitted scaler has always written, steps included
    payload = {"lo": 1.0, "hi": 10.0, "steps": [], "stepParams": [],
               "mins": [4.3, 2.0], "maxs": [7.9, 4.4]}
    assert Scaler.from_dict(payload).to_dict() == payload


@pytest.mark.parametrize("edit", [
    lambda d: d.update(steps=["standardize"],
                       stepParams=[{"mean": [0.0, 0.0], "std": [1.0, 1.0]}]),
    lambda d: d.update(steps=["log"], stepParams=[{}]),
    lambda d: d.pop("stepParams"),
    lambda d: d["stepParams"].append({}),
], ids=["standardize-step", "log-step", "no-step-params", "extra-step-params"])
def test_scaler_from_dict_checks_step_parameters(edit):
    X = np.array([[1.0, 5.0], [2.0, 7.0], [4.0, 6.0]])
    payload = Scaler().fit(X).to_dict()
    Scaler.from_dict(payload)  # the untouched payload loads
    edit(payload)
    with pytest.raises(DataFormatError, match="empty steps"):
        Scaler.from_dict(payload)


def test_scaler_rejects_bad_bounds():
    # a file may only hold the fixed range [1, 10] and finite feature bounds
    # that fit could give: both lists, equally long, no min above its max
    edits = [{"lo": 5.0, "hi": 1.0}, {"lo": 0.0, "hi": 1.0}, {"hi": 20.0},
             {"mins": [math.nan, 5.0]}, {"maxs": [2.0, math.inf]},
             {"mins": [2.0, 7.0], "maxs": [1.0, 5.0]}, {"maxs": [2.0]}, {"maxs": None},
             {"mins": None}, {"mins": ["a", 5.0]}, {"mins": 1.0, "maxs": 2.0}]
    for edit in edits:
        payload = Scaler().fit(np.array([[1.0, 5.0], [2.0, 7.0]])).to_dict()
        payload.update(edit)
        with pytest.raises(DataFormatError):
            Scaler.from_dict(payload)
    payload = Scaler().fit(np.array([[1.0, 5.0], [2.0, 7.0]])).to_dict()
    del payload["maxs"]
    with pytest.raises(DataFormatError):
        Scaler.from_dict(payload)
    # a min equal to its max is a constant feature
    payload = Scaler().fit(np.array([[1.0, 5.0], [1.0, 7.0]])).to_dict()
    assert Scaler.from_dict(payload).transform([1.0, 6.0]) == pytest.approx([1.0, 5.5])


def test_scaler_transform_checks_the_feature_count():
    sc = Scaler().fit(np.array([[1.0, 2.0], [3.0, 8.0]]))
    # one row (m,) scales like a batch of one
    assert sc.transform(np.array([2.0, 5.0])) == pytest.approx([5.5, 5.5])
    # numpy would broadcast an (N, 1) batch to (N, 2) and reject (N, 3) untyped
    for bad in (np.ones((4, 1)), np.ones((4, 3)), np.ones(3), np.float64(2.0),
                np.ones((1, 4, 2))):
        with pytest.raises(DimensionMismatchError, match="expected"):
            sc.transform(bad)


@pytest.mark.parametrize("empty", [np.empty((0, 2)), np.empty((3, 0)), [], [[]]])
def test_scaler_fit_of_no_data_raises_data_format_error(empty):
    with pytest.raises(DataFormatError, match="non-empty"):
        Scaler().fit(empty)


def test_scaler_output_strictly_positive():
    rng = np.random.default_rng(3)
    X = rng.normal(scale=100.0, size=(50, 4))
    out = Scaler().fit(X).transform(X)
    assert np.all(out >= 1.0) and np.all(out <= 10.0)


# --- split -------------------------------------------------------------------


def toy_classes(counts):
    y = np.concatenate([np.full(c, i) for i, c in enumerate(counts)])
    X = np.arange(len(y), dtype=float).reshape(-1, 1)
    return Dataset(X=X, y=y, feature_names=["f"], class_names=[str(i) for i in range(len(counts))])


def test_split_is_stratified_within_one_sample():
    data = toy_classes([50, 30, 20])
    train, test = split(data, SplitSpec(test_fraction=0.2, seed=0))
    for c, n_c in enumerate([50, 30, 20]):
        got = int(np.sum(test.y == c))
        assert abs(got - 0.2 * n_c) <= 1
        assert np.sum(train.y == c) + got == n_c


def test_split_five_sample_minority_gets_one_test_row():
    data = toy_classes([40, 5])
    _, test = split(data, SplitSpec(test_fraction=0.2, seed=1))
    assert int(np.sum(test.y == 1)) == 1


def test_split_deterministic_and_seed_sensitive():
    data = toy_classes([30, 30])
    t1, _ = split(data, SplitSpec(seed=7))
    t2, _ = split(data, SplitSpec(seed=7))
    t3, _ = split(data, SplitSpec(seed=8))
    assert np.array_equal(t1.X, t2.X)
    assert not np.array_equal(t1.X, t3.X)


def test_split_no_row_lost_or_duplicated():
    data = toy_classes([13, 9, 11])
    train, test, val = split(data, SplitSpec(test_fraction=0.25, val_fraction=0.2, seed=3))
    merged = np.concatenate([train.X, test.X, val.X]).ravel()
    assert sorted(merged.tolist()) == list(range(33))


@pytest.mark.parametrize("val_fraction", [-0.2, 1.0, 1.5, float("nan")])
def test_split_rejects_a_validation_fraction_outside_zero_to_one(val_fraction):
    with pytest.raises(BadConfigError, match=f"got {val_fraction}"):
        split(toy_classes([30, 30]), SplitSpec(0.2, val_fraction, 0))


def test_split_rejects_singleton_class():
    with pytest.raises(ClassTooSmallError):
        split(toy_classes([10, 1]), SplitSpec())


def test_split_regression_plain_shuffle():
    data = Dataset(
        X=np.arange(20, dtype=float).reshape(-1, 1),
        y=np.linspace(0, 1, 20),
        feature_names=["f"],
    )
    train, test = split(data, SplitSpec(test_fraction=0.25, seed=0))
    assert test.n == 5 and train.n == 15


# --- CSV ---------------------------------------------------------------------


def test_load_csv_classification_first_appearance_labels(tmp_path):
    path = write(
        tmp_path,
        "d.csv",
        "a,b,label\n1,2,versicolor\n3,4,setosa\n5,6,versicolor\n",
    )
    ds = load_csv(path, target="label")
    assert ds.class_names == ["versicolor", "setosa"]
    assert ds.y.tolist() == [0, 1, 0]
    assert ds.feature_names == ["a", "b"]
    assert ds.X.tolist() == [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]


def test_load_csv_regression_targets(tmp_path):
    path = write(tmp_path, "d.csv", "a,y\n1,0.5\n2,1.5\n")
    ds = load_csv(path, target="y", task="regress")
    assert ds.class_names is None
    assert ds.y.tolist() == [0.5, 1.5]


def test_load_csv_missing_target_column(tmp_path):
    path = write(tmp_path, "d.csv", "a,b\n1,2\n")
    with pytest.raises(DataFormatError, match="label"):
        load_csv(path, target="label")


def test_load_csv_non_numeric_feature_names_column(tmp_path):
    path = write(tmp_path, "d.csv", "a,b,label\n1,oops,x\n")
    with pytest.raises(DataFormatError, match="'b'"):
        load_csv(path, target="label")


def test_load_csv_ragged_row_reports_line(tmp_path):
    path = write(tmp_path, "d.csv", "a,b,label\n1,2,x\n3,4\n")
    with pytest.raises(DataFormatError, match="row 3"):
        load_csv(path, target="label")


def test_load_csv_empty_cell_rejected(tmp_path):
    path = write(tmp_path, "d.csv", "a,b,label\n1,,x\n")
    with pytest.raises(DataFormatError, match="empty"):
        load_csv(path, target="label")


def test_load_csv_non_finite_rejected(tmp_path):
    path = write(tmp_path, "d.csv", "a,label\ninf,x\n")
    with pytest.raises(DataFormatError, match="non-finite"):
        load_csv(path, target="label")


def test_load_csv_no_rows(tmp_path):
    path = write(tmp_path, "d.csv", "a,label\n")
    with pytest.raises(DataFormatError, match="no data rows"):
        load_csv(path, target="label")


def test_load_csv_without_target_has_no_labels(tmp_path):
    path = write(tmp_path, "d.csv", "a,b\n1,2\n\n3,4\n")
    ds = load_csv(path, target=None)
    assert ds.y is None and ds.class_names is None
    assert ds.feature_names == ["a", "b"]
    assert ds.X.tolist() == [[1.0, 2.0], [3.0, 4.0]]


def test_load_csv_features_pick_columns_by_name_in_model_order(tmp_path):
    path = write(tmp_path, "d.csv", "b, label ,a\n2,x,1\n4,y,3\n")
    for target in (None, "label"):
        ds = load_csv(path, target, features=["a", "b"])
        assert ds.feature_names == ["a", "b"]
        assert ds.X.tolist() == [[1.0, 2.0], [3.0, 4.0]]
    assert load_csv(path, "label", features=["a", "b"]).y.tolist() == [0, 1]


def test_load_csv_features_fall_back_to_position_on_equal_count(tmp_path):
    path = write(tmp_path, "d.csv", "p,q,label\n1,2,x\n")
    ds = load_csv(path, "label", features=["a", "b"])
    assert ds.feature_names == ["a", "b"]
    assert ds.X.tolist() == [[1.0, 2.0]]
    with pytest.raises(DataFormatError, match=r"\['p', 'q'\].*\['a', 'b', 'c'\]"):
        load_csv(path, "label", features=["a", "b", "c"])
    # without a target every column counts, the label column included
    with pytest.raises(DataFormatError, match="model expects"):
        load_csv(path, None, features=["a", "b"])


def test_load_csv_ignores_unused_columns_but_not_ragged_rows(tmp_path):
    path = write(tmp_path, "d.csv", "a,note,b\n1,hello,2\n3,,4\n")
    assert load_csv(path, None, features=["a", "b"]).X.tolist() == [[1.0, 2.0], [3.0, 4.0]]
    with pytest.raises(DataFormatError, match="'note' is not numeric"):
        load_csv(path, None)
    ragged = write(tmp_path, "r.csv", "a,note,b\n1,hello,2,extra\n")
    with pytest.raises(DataFormatError, match="row 2 has 4 fields"):
        load_csv(ragged, None, features=["a", "b"])


def test_load_csv_rejects_duplicate_headers_after_stripping(tmp_path):
    path = write(tmp_path, "d.csv", "a, a,b\n1,2,3\n")
    for target in (None, "b"):
        with pytest.raises(DataFormatError, match="duplicate"):
            load_csv(path, target, features=["a"])


def test_load_csv_undecodable_bytes_and_huge_fields_are_data_errors(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"a,label\n\xff\xfe,x\n")
    with pytest.raises(DataFormatError, match="UTF-8"):
        load_csv(str(bad), "label")
    huge = write(tmp_path, "huge.csv", "a,label\n" + "1" * (csv.field_size_limit() + 1) + ",x\n")
    with pytest.raises(DataFormatError, match=str(tmp_path)):
        load_csv(huge, "label")


def test_load_csv_regression_target_cells_are_checked_like_features(tmp_path):
    for cell, message in (("", "empty"), ("abc", "not numeric"), ("nan", "non-finite")):
        path = write(tmp_path, "d.csv", f"a,y\n1,2\n3,{cell}\n")
        with pytest.raises(DataFormatError, match=f"column 'y'.*{message}"):
            load_csv(path, "y", task="regress")


_CELLS = st.one_of(
    st.sampled_from(["1", "2.5", " 3 ", "-1", "0", "1e308", "1e999", "nan", "inf", "",
                     "a", "b", "label", '"', "\r", "1_0", "\x00"]),
    st.text(max_size=6),
)
_TABLES = st.lists(st.lists(_CELLS, min_size=0, max_size=4), min_size=0, max_size=5).map(
    lambda rows: "\n".join(",".join(row) for row in rows).encode("utf-8", "surrogatepass")
)


@settings(max_examples=300, deadline=None)
@given(
    blob=st.one_of(st.binary(max_size=64), _TABLES),
    target=st.sampled_from([None, "a", "label", "1"]),
    task=st.sampled_from(["classify", "regress"]),
    features=st.one_of(st.none(), st.lists(st.sampled_from(["a", "b", "label", "x1"]),
                                           max_size=3)),
)
@example(blob=b"a,label\n\xff,1\n", target="label", task="classify", features=None)
@example(blob=b"a,b\n1,2\n\xc3(,3\n", target=None, task="classify", features=["a", "b"])
def test_load_csv_only_fails_with_data_format_error(tmp_path_factory, blob, target, task,
                                                    features):
    path = tmp_path_factory.mktemp("csv") / "d.csv"
    path.write_bytes(blob)
    try:
        ds = load_csv(str(path), target, task=task, features=features)
    except DataFormatError:
        return
    assert ds.X.ndim == 2 and ds.X.shape[0] >= 1 and np.all(np.isfinite(ds.X))
    assert (ds.y is None) == (target is None)


# --- persistence -------------------------------------------------------------


def test_model_round_trip(tmp_path):
    path = str(tmp_path / "model.json")
    payload = {"kind": "classifier", "threshold": 0.5, "terms": [1, 2, 3]}
    save_model(payload, path)
    loaded = load_model(path)
    assert loaded["version"] == 1
    assert loaded["kind"] == "classifier"
    assert loaded["terms"] == [1, 2, 3]


def test_model_writes_are_byte_stable(tmp_path):
    p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    payload = {"b": 2.5, "a": [1.0, -0.125]}
    save_model(payload, p1)
    save_model(payload, p2)
    assert Path(p1).read_bytes() == Path(p2).read_bytes()


def test_load_model_rejects_wrong_version(tmp_path):
    path = str(tmp_path / "model.json")
    path2 = str(tmp_path / "m2.json")
    (tmp_path / "model.json").write_text(json.dumps({"version": 99}))
    with pytest.raises(SchemaVersionError):
        load_model(path)
    (tmp_path / "m2.json").write_text(json.dumps({"no_version": True}))
    with pytest.raises(CorruptModelError):
        load_model(path2)


def test_load_model_rejects_truncated_file(tmp_path):
    path = str(tmp_path / "model.json")
    save_model({"kind": "classifier"}, path)
    blob = Path(path).read_bytes()
    Path(path).write_bytes(blob[: len(blob) // 2])
    with pytest.raises(CorruptModelError):
        load_model(path)


def test_load_model_reads_a_file_with_a_byte_order_mark(tmp_path):
    path = tmp_path / "model.json"
    payload = {"kind": "classifier", "terms": [1.0, -0.125]}
    save_model(payload, str(path))
    plain = load_model(str(path))
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert load_model(str(path)) == plain == {"version": 1, **payload}
