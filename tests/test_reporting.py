"""Canonical JSON: to_canonical_json against the stdlib's indented dump."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from msfam import Params, UNBOUNDED, search
from msfam.reporting import to_canonical_json


def oracle(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


def outcome(write, value):
    """The text a writer produces, or the type and message of its error."""
    try:
        return write(value)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


awkward_text = st.text(st.one_of(
    st.sampled_from('"\\/\n\r\t\b\f\x00\x1f\x7f\xe9\u2028\ufeff\U0001f600\U00010000'),
    st.characters(),
))
scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-2**100, 2**100),
    st.floats(allow_nan=True, allow_infinity=True), awkward_text,
)
keys = st.one_of(awkward_text, st.integers(), st.booleans(), st.none(), st.floats())
values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        # all-int lists take the member path; the small range repeats members
        st.lists(st.integers(-3, 2**70), max_size=5),
        st.lists(st.integers(1, 3), max_size=3).map(tuple),
        st.dictionaries(awkward_text, inner, max_size=5),
        st.dictionaries(keys, inner, max_size=4),
    ),
    max_leaves=40,
)


@settings(max_examples=400, deadline=None, database=None)
@given(values)
def test_writer_matches_the_stdlib_indented_dump(value):
    assert outcome(to_canonical_json, value) == outcome(oracle, value)


@pytest.mark.parametrize("value", [
    [1, True, None],
    [[1], [True], [1.0], [1], [False, 0]],
    {"a": [1, 2], "b": {"c": [1, 2], "d": [[1, 2]]}, "e": (1, 2)},
    {"z": [], "y": {}, "x": (), "w": [[], {}]},
    {"\xe9": "\U0001f600", "\"": "\\", "a\nb": "\x00"},
    [-1, 2**64, -2**80, 0],
    {"f": [0.5, float("inf"), float("-inf"), float("nan"), -0.0, 1e300]},
    {"nested": {3: [1, 2], 1: {"a": 1}}, "keys": {True: 1, False: [2]}},
])
def test_writer_matches_the_stdlib_on_fixed_values(value):
    assert to_canonical_json(value) == oracle(value)


@pytest.mark.parametrize("value", [
    {"a": {1, 2}},
    [frozenset()],
    {"a": 1, 2: "b"},
    {"a": [object()]},
])
def test_unserialisable_values_raise_as_the_stdlib_does(value):
    with pytest.raises(TypeError):
        to_canonical_json(value)
    assert outcome(to_canonical_json, value) == outcome(oracle, value)


def test_circular_reference_raises_as_the_stdlib_does():
    loop = {"a": []}
    loop["a"].append(loop)
    with pytest.raises(ValueError, match="Circular reference detected"):
        to_canonical_json(loop)
    assert outcome(to_canonical_json, loop) == outcome(oracle, loop)


def test_reports_serialise_as_the_stdlib_does():
    theorem = search.verify_hm_theorem(5, 4, UNBOUNDED)
    bundle = search.verify_lemma_bundle(5, 4, UNBOUNDED)
    assert theorem.params == Params(5, 4, UNBOUNDED) and theorem.achievers
    assert to_canonical_json(theorem) == oracle(theorem.to_json_dict())
    reports = [bundle[name] for name in search.LEMMA_CHECKS]
    assert to_canonical_json(reports) == oracle([r.to_json_dict() for r in reports])
