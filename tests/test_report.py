"""report.to_json writes in one walk what json.dumps writes after normalize."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from spraydirac import report as rpt  # noqa: E402

TEXT = st.text(st.one_of(st.characters(), st.sampled_from("\"\\\n\t\x00\x7fé \U0001f600")),
               max_size=8)
FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1e16, 0.1]),
)
INTS = st.integers(-(2 ** 70), 2 ** 70)
NUMPY_SCALARS = st.one_of(FLOATS.map(np.float64), st.integers(-(2 ** 63), 2 ** 63 - 1).map(np.int64))
ARRAYS = st.one_of(
    st.lists(FLOATS, max_size=4).map(lambda v: np.array(v, dtype=float)),
    st.lists(st.integers(-100, 100), max_size=4).map(lambda v: np.array(v, dtype=np.int64)),
    st.tuples(st.integers(0, 3), st.integers(0, 3)).flatmap(
        lambda s: st.lists(FLOATS, min_size=s[0] * s[1], max_size=s[0] * s[1]).map(
            lambda v: np.array(v, dtype=float).reshape(s))),
)
FRACTIONS = st.fractions(max_denominator=10 ** 6)
SCALARS = st.one_of(TEXT, FLOATS, INTS, st.booleans(), st.none(), NUMPY_SCALARS,
                    FRACTIONS, ARRAYS)
VALUES = st.recursive(
    SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(TEXT, children, max_size=4),
    ),
    max_leaves=25,
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.dictionaries(TEXT, VALUES, max_size=6))
@example({})
@example({"": [], "a": {}, "b": (), "c": np.zeros((0, 3))})
@example({"ké\n": " \x00\"\\", "x": [math.nan, math.inf, -math.inf, -0.0, 5e-324]})
@example({"n": np.float64(1e16), "i": np.int64(-7), "f": Fraction(-1, 3), "b": [True, False]})
@example({"rows": np.array([[0.1, 2.0], [math.inf, -0.0]]), "t": ((1, 2), [3.5])})
def test_the_writer_writes_what_json_dumps_writes(rep):
    assert rpt.to_json(rep) == json.dumps(rpt.normalize(rep), indent=2) + "\n"


def test_the_writer_refuses_what_json_dumps_refuses():
    for value in (object(), {1, 2}, np.bool_(True)):
        with pytest.raises(TypeError) as new:
            rpt.to_json({"v": value})
        with pytest.raises(TypeError) as old:
            json.dumps(rpt.normalize({"v": value}), indent=2)
        assert str(new.value) == str(old.value)


def test_keys_are_written_as_normalize_names_them():
    rep = {1: "one", None: [1], 2.5: {(1, 2): "t"}}
    assert rpt.to_json(rep) == json.dumps(rpt.normalize(rep), indent=2) + "\n"
