import enum
import json
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from fattree_design.report import to_json


class Level(enum.IntEnum):
    LOW = 1


# Characters that JSON escapes, or writes as \uXXXX under ensure_ascii: quote, backslash, controls, non-ASCII.
ODD_TEXT = st.text(st.sampled_from('"\\\x00\x1f\x7f\n/ aé✓\u2028\U0001f600'), max_size=4)
TEXT = ODD_TEXT | st.text(max_size=6)
NUMBERS = st.one_of(
    st.integers(),
    st.sampled_from((2**64, -(2**70), 10**30)),
    st.floats(),
    st.sampled_from((-0.0, 0.0, 1e16, 1e-7, 1.5e300, float("nan"), float("inf"), float("-inf"))),
)
LEAVES = st.one_of(st.none(), st.booleans(), NUMBERS, TEXT)
# what only json.dumps writes or rejects: a Fraction, subclasses of int and str, a dict with other keys
ODD_LEAVES = st.sampled_from((Fraction(1, 3), Level.LOW, {1: "a", 2: None}, {1: "a", "b": 2}, {None: 0.5}))


def documents(leaves):
    """Top-level dicts of nested lists, tuples and dicts, empty ones among them."""
    containers = lambda children: st.one_of(  # noqa: E731
        st.lists(children, max_size=3),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(TEXT, children, max_size=3),
    )
    tree = st.recursive(leaves, containers, max_leaves=24)
    return st.dictionaries(TEXT.filter(lambda key: key != "rejected_candidates"), tree, max_size=4)


def written(write, document):
    """The text a writer gives, or the type and message of what it raises."""
    try:
        return write(document)
    except (TypeError, ValueError) as error:
        return type(error), str(error)


def dumps(document):
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


@settings(max_examples=150, deadline=None)
@given(documents(LEAVES))
def test_to_json_writes_what_json_dumps_writes(document):
    assert to_json(document) == dumps(document)


@settings(max_examples=80, deadline=None)
@given(documents(LEAVES | ODD_LEAVES))
def test_to_json_hands_what_it_does_not_write_to_json_dumps(document):
    """Other leaves and keys are written, or refused with the same TypeError, as json.dumps does."""
    assert written(to_json, document) == written(dumps, document)


def test_to_json_refuses_a_fraction_as_json_dumps_does():
    document = {"a": [1, {"b": Fraction(1, 3)}]}
    assert written(to_json, document) == (TypeError, "Object of type Fraction is not JSON serializable")
