import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

import rankadmm
from rankadmm.data_io import (
    RawDataset,
    SyntheticSpec,
    generate_synthetic,
    load_csv,
    load_libsvm,
    split,
    standardize,
)
from rankadmm.errors import DataFormatError, InvalidParameterError


def test_libsvm_parse_example(tmp_path):
    path = tmp_path / "data.txt"
    path.write_text("+1 1:2 3:-1\n-1 2:5\n")
    ds = load_libsvm(path)
    assert ds.X.shape == (2, 3)
    assert ds.X.toarray() == pytest.approx(np.array([[2.0, 0, -1], [0, 5, 0]]))
    assert ds.y == pytest.approx([1, -1])


def test_libsvm_zero_one_labels(tmp_path):
    path = tmp_path / "data.txt"
    path.write_text("1 1:1\n0 1:-1\n")
    assert load_libsvm(path).y == pytest.approx([1, -1])


def test_libsvm_empty_file_errors(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("")
    with pytest.raises(DataFormatError):
        load_libsvm(path)


def test_libsvm_malformed_reports_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("+1 1:2\n-1 oops\n")
    with pytest.raises(DataFormatError, match="line 2"):
        load_libsvm(path)
    path.write_text("+1 0:2\n")
    with pytest.raises(DataFormatError, match="line 1"):
        load_libsvm(path)
    # a repeated index would load as the sum of its values
    path.write_text("+1 1:2\n1 3:1 3:2\n")
    with pytest.raises(DataFormatError, match="line 2: feature index 3 repeated"):
        load_libsvm(path)


def test_libsvm_roundtrip(tmp_path):
    # the text a libsvm writer gives for X and y: 1-based indices, zeros left out
    X = np.array([
        [0.0, 0.5, 0.0, 0.0, 1.25],  # the last column pins the width
        [-1.5, 0.0, 0.0, 2.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 0.0],
        [0.1, 0.0, -2.718281828459045, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1e-300, 0.0],
        [3.0, 3.0, 3.0, 3.0, 0.0],
        [0.0, -0.0625, 0.0, 0.0, 7.0],
    ])
    y = np.array([1.0, -1.0, -1.0, 1.0, 1.0, -1.0, 1.0])
    path = tmp_path / "literal.txt"
    path.write_text(
        "+1 2:0.5 5:1.25\n"
        "-1 1:-1.5 4:2.0\n"
        "-1\n"
        "+1 1:0.1 3:-2.718281828459045\n"
        "+1 4:1e-300\n"
        "-1 1:3.0 2:3.0 3:3.0 4:3.0\n"
        "+1 2:-0.0625 5:7.0\n"
    )
    back = load_libsvm(path)
    assert back.X.shape == (7, 5)
    assert back.X.toarray() == pytest.approx(X, abs=0.0)
    assert np.array_equal(back.y, y)


@given(st.text(alphabet="01:+-. abc\n", max_size=200))
@settings(max_examples=120, deadline=None)
def test_libsvm_never_crashes_unstructured(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("fuzz") / "f.txt"
    path.write_text(text)
    try:
        ds = load_libsvm(path)
        assert set(np.unique(ds.y)) <= {-1.0, 1.0}
    except DataFormatError:
        pass


@pytest.mark.parametrize(
    "loader, content, line",
    [
        (load_csv, b"y,x1\n1,\xff\xfe\n", 2),
        (load_csv, b"y,x\xe9\n1,2\n", 1),
        (load_libsvm, b"1 1:\xff", 1),
        (load_libsvm, b"+1 1:2\r\n-1 2:\xc3\n", 2),
    ],
)
def test_undecodable_bytes_are_a_data_error(tmp_path, loader, content, line):
    path = tmp_path / "f.txt"
    path.write_bytes(content)
    with pytest.raises(DataFormatError, match=f"line {line}: .*UTF-8") as info:
        loader(path)
    assert info.value.line == line


@given(st.binary(max_size=120), st.sampled_from([load_csv, load_libsvm]))
@settings(max_examples=120, deadline=None)
def test_loaders_never_crash_on_arbitrary_bytes(tmp_path_factory, data, loader):
    path = tmp_path_factory.mktemp("bytes") / "f.txt"
    path.write_bytes(data)
    try:
        loader(path)
    except DataFormatError:
        pass


def test_csv_loader(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("y,f1,f2\n1,0.5,-1\n-1,2,3\n")
    ds = load_csv(path)
    assert ds.X == pytest.approx(np.array([[0.5, -1], [2, 3]]))
    assert ds.y == pytest.approx([1, -1])
    path.write_text("y,f1\n")
    with pytest.raises(DataFormatError):
        load_csv(path)


@pytest.mark.parametrize("content, line", [
    (b"y,a,b\n1,0.5,0.2\n0,0.1\n", 3),
    (b"y,a\n1,0.5\n\n0,0.1,0.2\n", 4),
    # the shortest case of the arbitrary-bytes property above
    (b"y\n1,2\n1\n", 3),
], ids=["short", "long", "one-field"])
def test_csv_row_of_another_width_is_a_data_error(tmp_path, content, line):
    path = tmp_path / "ragged.csv"
    path.write_bytes(content)
    with pytest.raises(DataFormatError, match=f"line {line}: row has") as info:
        load_csv(path)
    assert info.value.line == line


def test_csv_header_of_another_width_is_a_data_error(tmp_path):
    path = tmp_path / "header.csv"
    path.write_text("y,a,b\n1,0.5\n0,0.1\n")
    with pytest.raises(DataFormatError, match="line 1: header names 3 fields") as info:
        load_csv(path)
    assert info.value.line == 1


#: (loader, file content, the line the error names or None, what it says)
_DATA_ERRORS = [
    (load_libsvm, "1 1:1\n2 1:-1\n", None, r"labels must be in \{0,1\} or \{-1,\+1\}"),
    (load_csv, "y,a\n1,0.5\n-1,0.1\n0,0.2\n", None, r"saw \[-1.0, 0.0, 1.0\]"),
    (load_libsvm, "+1 1:2\n-1 2:x\n", 2, "bad feature '2:x'"),
    (load_libsvm, "+1 1:2\n-1 1:1\n+1 3:nan\n", 3, "non-finite value in '3:nan'"),
    (load_csv, "y,a\n1,0.5\n0,abc\n", 3, "bad row '0,abc'"),
    (load_csv, "y\n1\n0\n", None, "a label plus >= 1 feature"),
    (load_csv, "y,a\n1,0.5\n0,inf\n", None, "non-finite entries"),
]


@pytest.mark.parametrize("loader, content, line, says", _DATA_ERRORS,
                         ids=["labels", "mixed-labels", "token", "libsvm-nan", "csv-row",
                              "label-only", "csv-inf"])
def test_bad_content_is_a_data_error(tmp_path, loader, content, line, says):
    path = tmp_path / "data.txt"
    path.write_text(content)
    with pytest.raises(DataFormatError, match=says) as info:
        loader(path)
    assert info.value.line == line
    if line is not None:
        assert str(info.value).startswith(f"line {line}: ")


def test_synthetic_separable_when_clean():
    ds = generate_synthetic(SyntheticSpec(n=100, d=20, class_sep=10.0,
                                          flip_fraction=0.0, seed=0))
    # feasibility program: margins y x.w >= 1 has a solution
    A = -(ds.y[:, None] * ds.X)
    res = linprog(c=np.zeros(20), A_ub=A, b_ub=-np.ones(100),
                  bounds=[(None, None)] * 20, method="highs")
    assert res.success


def test_synthetic_deterministic():
    spec = SyntheticSpec(n=50, d=6, seed=123)
    a = generate_synthetic(spec)
    b = generate_synthetic(spec)
    assert np.array_equal(a.X, b.X)
    assert np.array_equal(a.y, b.y)


def test_synthetic_label_balance():
    ds = generate_synthetic(SyntheticSpec(n=2000, d=3, seed=7))
    positives = int(np.sum(ds.y > 0))
    half_width = 2.576 * np.sqrt(2000 * 0.25)  # 99% binomial interval
    assert abs(positives - 1000) <= half_width


def test_synthetic_validation():
    with pytest.raises(InvalidParameterError):
        SyntheticSpec(n=0, d=3)
    with pytest.raises(InvalidParameterError):
        SyntheticSpec(n=3, d=3, flip_fraction=0.5)


def test_split_all_train():
    ds = generate_synthetic(SyntheticSpec(n=10, d=2, seed=1))
    (train,) = split(ds, (1.0,), seed=0)
    assert train.sample_count == 10


def test_split_deterministic_partition():
    ds = generate_synthetic(SyntheticSpec(n=10, d=2, seed=1))
    train, test = split(ds, (0.6, 0.4), seed=5)
    train2, test2 = split(ds, (0.6, 0.4), seed=5)
    assert train.sample_count == 6 and test.sample_count == 4
    assert np.array_equal(train.X, train2.X)
    assert np.array_equal(test.X, test2.X)


def test_split_union_disjoint():
    ds = generate_synthetic(SyntheticSpec(n=37, d=2, seed=2))
    parts = split(ds, (0.5, 0.25, 0.25), seed=3)
    rows = np.vstack([p.X for p in parts])
    assert rows.shape[0] == 37
    # every original row appears exactly once
    original = {tuple(row) for row in ds.X}
    recovered = [tuple(row) for row in rows]
    assert len(recovered) == len(set(recovered))
    assert set(recovered) == original


def test_split_fraction_validation():
    ds = generate_synthetic(SyntheticSpec(n=10, d=2, seed=1))
    with pytest.raises(InvalidParameterError):
        split(ds, (0.6, 0.3), seed=0)


def test_standardize_constant_feature():
    X = np.array([[1.0, 2.0], [1.0, 4.0], [1.0, 6.0]])
    ds = RawDataset(X, np.array([1.0, -1.0, 1.0]))
    (out,) = standardize(ds)
    assert out.X[:, 0] == pytest.approx([0.0, 0.0, 0.0])
    assert out.X[:, 1].mean() == pytest.approx(0.0, abs=1e-12)
    assert out.X[:, 1].std() == pytest.approx(1.0)


def test_standardize_uses_train_statistics():
    train = RawDataset(np.array([[0.0], [2.0]]), np.array([1.0, -1.0]))
    test = RawDataset(np.array([[4.0]]), np.array([1.0]))
    tr, te = standardize(train, test)
    # train mean 1, std 1: test row maps to (4 - 1) / 1 = 3
    assert te.X == pytest.approx(np.array([[3.0]]))
    assert abs(tr.X.mean()) <= 1e-12


def test_standardize_sparse_equals_dense_bit_for_bit(tmp_path):
    # a libsvm file with a split: the plan path that standardizes CSR data
    rng = np.random.default_rng(5)
    lines = [f"{rng.choice(['+1', '-1'])} " + " ".join(
        f"{j + 1}:{rng.standard_normal():.17g}" for j in range(6) if rng.random() < 0.5)
        for _ in range(30)]
    path = tmp_path / "data.svm"
    path.write_text("\n".join(lines) + "\n")
    train, test = split(load_libsvm(path), (0.6, 0.4), seed=2)
    assert train.X.format == "csr"
    sparse = standardize(train, test)
    dense = standardize(RawDataset(train.X.toarray(), train.y), RawDataset(test.X.toarray(), test.y))
    for got, want in zip(sparse, dense):
        assert isinstance(got.X, np.ndarray)
        assert np.array_equal(got.X, want.X) and np.array_equal(got.y, want.y)


_COLD_START = textwrap.dedent("""
    import json, sys
    import numpy as np
    import rankadmm, rankadmm.cli, rankadmm.harness
    from rankadmm import (Extremile, Problem, SgdConfig, SolverConfig, Superquantile,
                          admm_solve, load_libsvm, mcp, sadmm_solve, sgd_solve)

    plan, svm, out = sys.argv[1:]
    rng = np.random.default_rng(0)
    X = rng.standard_normal((30, 4))
    y = np.where(X[:, 0] + 0.3 * rng.standard_normal(30) > 0, 1.0, -1.0)
    admm_solve(Problem(X, y, weights=Superquantile(0.5)), SolverConfig(max_iter=3))
    sadmm_solve(Problem(X, y, weights=Extremile(2.0), regularizer=mcp(0.01, 4.0)),
                SolverConfig(max_iter=3))
    sgd_solve(Problem(X, y), SgdConfig(epochs=2))
    code = rankadmm.cli.cli_main(["benchmark", plan, "--out", out])
    loaded = lambda: [m for m in ("scipy.sparse", "scipy.sparse.linalg") if m in sys.modules]
    dense = loaded()
    ds = load_libsvm(svm)
    p = Problem(ds.X, ds.y)
    result = admm_solve(p, SolverConfig(max_iter=3))
    print(json.dumps({"code": code, "dense": dense, "sparse": loaded(),
                      "format": getattr(p.X, "format", None),
                      "iters": len(result.trace), "finite": bool(np.isfinite(result.w).all())}))
""")


def test_only_sparse_data_loads_scipy_sparse(tmp_path):
    # A dense solve, plan or CLI command never touches a sparse matrix, so
    # the package leaves scipy.sparse (and its linalg) unimported until
    # load_libsvm builds one; the libsvm problem then stays CSR.
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"cells": [
        {"name": "cold", "dataset": {"synthetic": {"n": 20, "d": 3}}, "config": {"max_iter": 3}},
    ]}))
    svm = tmp_path / "data.svm"
    svm.write_text("+1 1:0.9 2:-0.3\n-1 1:-0.7 3:0.8\n+1 2:0.5 3:-0.2\n-1 1:-1.3 2:0.4\n")
    src = str(Path(rankadmm.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src, RANK_ADMM_THREADS="1")
    out = subprocess.run(
        [sys.executable, "-c", _COLD_START, str(plan), str(svm), str(tmp_path / "bench")],
        env=env, capture_output=True, text=True, check=True,
    )
    report = json.loads(out.stdout.splitlines()[-1])
    assert report["code"] == 0
    assert report["dense"] == []
    assert "scipy.sparse" in report["sparse"]
    assert report["format"] == "csr"
    assert report["iters"] == 3 and report["finite"]
