"""The array route of serialize.dumps writes the bytes json writes for lists."""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from usdsep.serialize import dumps

EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 1.1e-308, 1.7e308, -1.7e308, 1.0, -3.0, 1e16, 0.5]

values = st.one_of(
    st.sampled_from(EDGE_VALUES),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True, max_value=1e-307, min_value=-1e-307),
    st.integers(-(2**60), 2**60).map(float),
)


@st.composite
def repeating_arrays(draw):
    """float64 arrays of length 0 to 60 drawn from a pool of at most 12 values.

    Half the pools hold each value's negation too, so 0.0 comes with -0.0.
    """
    pool = draw(st.lists(values, min_size=1, max_size=6))
    if draw(st.booleans()):
        pool += [-x for x in pool]
    picks = draw(st.lists(st.integers(0, len(pool) - 1), max_size=60))
    return np.array([pool[i] for i in picks], dtype=np.float64)


@settings(max_examples=300, deadline=None)
@given(repeating_arrays())
def test_array_route_matches_the_list_route(arr):
    expected = json.dumps({"a": arr.tolist(), "b": 1}, allow_nan=False) + "\n"
    assert dumps({"a": arr, "b": 1}) == expected
    assert dumps({"b": 1, "a": arr[::-1], "c": arr}) == (
        json.dumps({"b": 1, "a": arr[::-1].tolist(), "c": arr.tolist()}, allow_nan=False) + "\n"
    )


def test_lengths_zero_and_one_and_signed_zeros():
    assert dumps({"a": np.array([])}) == '{"a": []}\n'
    assert dumps({"a": np.array([2.0])}) == '{"a": [2.0]}\n'
    assert dumps({"a": np.array([-0.0, 0.0, -0.0])}) == '{"a": [-0.0, 0.0, -0.0]}\n'


def test_a_repeated_value_is_formatted_once(monkeypatch):
    json_dumps = json.dumps
    formatted = []

    def counting_dumps(obj, **kwargs):
        if not isinstance(obj, dict):  # dicts are the key texts and the other entries
            formatted.extend(obj if isinstance(obj, list) else [obj])
        return json_dumps(obj, **kwargs)

    arr = np.full(2000, 0.4)
    expected = json_dumps({"w": arr.tolist()}) + "\n"
    monkeypatch.setattr(json, "dumps", counting_dumps)
    assert dumps({"w": arr}) == expected
    assert formatted == [0.4]
