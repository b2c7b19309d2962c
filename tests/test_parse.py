"""The array route of the matrix and vector parsers against the entry walk.

``_parse_matrix`` and ``_parse_vector`` convert a regular nest of
[re, im] pairs with one ``np.array`` call and fall back to the walk over
single entries for everything else. On valid input both routes must give
bit-equal arrays; on invalid input both must raise the same error text.
The walk is reached by disabling the array route.
"""

import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nhdyn.scenario
from nhdyn.errors import ConfigError
from nhdyn.scenario import _as_pairs, _parse_matrix, _parse_vector, complex_to_json

properties = settings(derandomize=True, deadline=None, max_examples=120)

EDGE_NUMBERS = [
    0, -0.0, 1, -1, 2**53 + 1, -(2**53) - 3, 2**63 + 1, -(2**63) - 1, 2**64 + 7,
    5e-324, sys.float_info.max, -sys.float_info.max, int(sys.float_info.max),
]
numbers = st.one_of(
    st.sampled_from(EDGE_NUMBERS),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(min_value=-(2**80), max_value=2**80),
)
pairs = st.lists(numbers, min_size=2, max_size=2)
# bare reals, and tuple pairs, are accepted by the walk alone
entries = st.one_of(pairs, numbers, pairs.map(tuple))

BAD_LEAVES = [
    True, False, "1.5", "x", None, float("nan"), float("inf"), -float("inf"),
    10**400, -(10**400), int(sys.float_info.max) + 1, 1j, {"re": 1},
]
BAD_ENTRIES = [[1.0, 2.0, 3.0], [], [1.0], [[1.0, 2.0]], (1.0,), "12"]


def walked(parse, value, path):
    with mock.patch.object(nhdyn.scenario, "_as_pairs", lambda value, depth: None):
        return parse(value, path)


def outcome(parse, value, path):
    try:
        return parse(value, path)
    except ConfigError as exc:
        return str(exc)


def assert_bit_equal(a, b):
    assert a.dtype == b.dtype == np.complex128
    assert a.shape == b.shape
    assert a.tobytes() == b.tobytes()


@st.composite
def matrices(draw, entry=entries):
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    return [[draw(entry) for _ in range(cols)] for _ in range(rows)]


@properties
@given(value=matrices())
def test_matrix_routes_agree_on_valid_input(value):
    assert_bit_equal(_parse_matrix(value, "m"), walked(_parse_matrix, value, "m"))


@properties
@given(value=matrices(entry=pairs))
def test_pair_matrices_take_the_array_route_unless_at_the_float_bound(value):
    fast = _as_pairs(value, 2)
    extreme = any(abs(x) >= sys.float_info.max for row in value for e in row for x in e)
    assert (fast is None) == extreme
    if fast is not None:
        assert_bit_equal(fast, walked(_parse_matrix, value, "m"))


@properties
@given(value=st.lists(entries, min_size=1, max_size=6))
def test_vector_routes_agree_on_valid_input(value):
    assert_bit_equal(_parse_vector(value, "v"), walked(_parse_vector, value, "v"))


@st.composite
def broken_matrices(draw):
    value = draw(matrices(entry=pairs))
    i = draw(st.integers(0, len(value) - 1))
    j = draw(st.integers(0, len(value[i]) - 1))
    how = draw(st.sampled_from(["leaf", "entry", "ragged", "row"]))
    if how == "leaf":
        value[i][j][draw(st.integers(0, 1))] = draw(st.sampled_from(BAD_LEAVES))
    elif how == "entry":
        value[i][j] = draw(st.sampled_from(BAD_ENTRIES))
    elif how == "ragged":
        value[i] = value[i][:-1] if len(value[i]) > 1 else value[i] + [[0.0, 0.0]]
        if len(value) == 1:
            value.append([[0.0, 0.0]] * (len(value[0]) + 1))
    else:
        value[i] = draw(st.sampled_from([tuple(value[i]), [], None, 1.0]))
    return value


@properties
@given(value=broken_matrices())
def test_matrix_routes_raise_the_same_error_on_invalid_input(value):
    fast = outcome(_parse_matrix, value, "m")
    assert isinstance(fast, str)
    assert fast == outcome(lambda v, p: walked(_parse_matrix, v, p), value, "m")


bad_vector_entries = st.one_of(
    st.sampled_from(BAD_ENTRIES),
    st.sampled_from(BAD_LEAVES).flatmap(lambda x: st.sampled_from([[0.0, x], [x, 0.0]])),
)


@properties
@given(
    value=st.lists(pairs, min_size=1, max_size=6),
    index=st.integers(0, 5),
    bad=bad_vector_entries,
)
def test_vector_routes_raise_the_same_error_on_invalid_input(value, index, bad):
    value[index % len(value)] = bad
    fast = outcome(_parse_vector, value, "v")
    assert isinstance(fast, str)
    assert fast == outcome(lambda v, p: walked(_parse_vector, v, p), value, "v")


@pytest.mark.parametrize("value", [[], {}, "[[1, 2]]", None, [[]], [[[]]], [1.0]])
def test_malformed_containers_raise_the_walks_error(value):
    assert outcome(_parse_matrix, value, "m") == outcome(
        lambda v, p: walked(_parse_matrix, v, p), value, "m"
    )


def test_negative_zero_real_part_survives_the_array_route():
    value = [[[-0.0, 1.0], [-0.0, -0.0]]]
    a = _as_pairs(value, 2)
    assert a is not None
    assert np.signbit(a.real).all() and np.signbit(a.imag[0, 1])


def test_complex_to_json_output_takes_the_array_route_bit_equal():
    rng = np.random.default_rng(3)
    h = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    h.real[0] = -0.0
    h.imag[:, 1] = -0.0
    a = _as_pairs(complex_to_json(h), 2)
    assert a is not None
    assert_bit_equal(a, h)


def test_a_complex_to_json_list_holding_a_bool_is_not_taken_as_pairs():
    value = complex_to_json(np.eye(2))
    value[1][1][0] = True
    assert _as_pairs(value, 2) is None
