import json

import numpy as np

from nlfront.artifacts import plain, write_csv, write_json


def test_plain_numpy_and_tuples():
    value = plain({"a": np.float64(0.1), "n": np.int64(3), "ok": np.bool_(True),
                   "arr": np.array([[1.0, 2.0]]), "pair": (np.float32(0.5), 2),
                   "nested": {"t": (1, (2, 3))}})
    assert value == {"a": 0.1, "n": 3, "ok": True, "arr": [[1.0, 2.0]],
                     "pair": [0.5, 2], "nested": {"t": [1, [2, 3]]}}
    assert type(value["a"]) is float and type(value["n"]) is int
    assert type(value["ok"]) is bool and type(value["arr"][0][0]) is float
    assert plain(-np.inf) == -np.inf                 # only the writer drops non-finite
    assert plain([np.nan, np.inf, 1.0], strict=True) == [None, None, 1.0]


def test_write_json_layout(tmp_path):
    path = tmp_path / "x.json"
    write_json(path, {"b": np.float64(-np.inf), "a": [np.nan, 1]})
    assert path.read_text() == '{\n  "a": [\n    null,\n    1\n  ],\n  "b": null\n}\n'


def test_write_csv_header_inf_and_round_trip(tmp_path):
    path = tmp_path / "x.csv"
    xs = np.array([0.1, 1.0 / 3.0, -np.inf, 2.0 ** -1074])
    ys = [np.pi, -0.0, 1e308, 7.0]
    write_csv(path, ("x", "y"), (xs, ys))
    rows = path.read_text().splitlines()
    assert rows[0] == "x,y"
    assert rows[1] == "0.10000000000000001,3.1415926535897931"    # 17 digits
    assert rows[3] == "-inf,1e+308"
    assert len(rows) == 1 + len(xs)
    back = [[float(v) for v in row.split(",")] for row in rows[1:]]
    assert [r[0] for r in back] == xs.tolist()
    assert [r[1] for r in back] == ys
