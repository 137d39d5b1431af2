"""Differential test: HomotopyCertificate.to_json and from_json_dict
against the former encoder (json.dumps with indent=2) and the former
decode-every-field reader, both kept in tests/certificate_reference.py.

to_json must give the reference's text byte for byte: on engine
certificates, on empty move and final lists, on string labels that need
escaping, and on positions of any JSON type read back by from_json_dict.
The one exception is a label or string position holding a high
surrogate and then a low one as two code points: the reference writes it
as an astral character is written, so json.loads reads back another
string, and to_json raises ValueError naming the label or position
instead.
from_json_dict must call decode once per distinct string and build the
same certificate as decoding every field separately.
"""

import enum
import json
import re
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import certificate_reference as ref
from goeritz import contract, farey
from goeritz.contract import HomotopyCertificate, Relabel, Subdivide
from test_contract import PENTAGON_LOOP
from test_slope_differential import (
    MIRROR_LOOP,
    OFF_STAR_R,
    PENTAGON,
    RAISED,
    off_star_adjacent,
    off_star_blocking,
)


def _strings(data: dict) -> list:
    """Every vertex field of a to_json_dict() payload, in order."""
    out = []
    for m in data["moves"]:
        out += [m["old"], m["new"]] if m["type"] == "relabel" else [m["insert"]]
    return out + data["final"]


def _round_trip(cert: HomotopyCertificate, decode=lambda s: s) -> HomotopyCertificate:
    """to_json against the reference, then from_json_dict with a counted
    decode against the reference reader; returns the certificate read back."""
    text = cert.to_json()
    assert text == ref.to_json(cert)
    data = json.loads(text)
    calls: Counter = Counter()

    def counted(s):
        calls[s] += 1
        return decode(s)

    back = HomotopyCertificate.from_json_dict(data, counted)
    assert calls == Counter(set(_strings(data)))
    assert back == ref.from_json_dict(data, decode)
    return back


def test_criterion_7_certificates_match_reference():
    repeats = 0
    for seed in range(100):
        loop = farey.random_based_loop(seed, max_denominator=50)
        cert = contract.contract_loop(farey.adjacent, farey.remoteness, farey.blocking,
                                      loop, farey.BASE)
        assert _round_trip(cert, farey.parse_slope) == cert, seed
        strings = _strings(cert.to_json_dict())
        repeats += len(strings) - len(set(strings))
    assert repeats > 0  # so "once per distinct string" was put to the test


@pytest.mark.parametrize(
    "oracles, loop",
    [
        (PENTAGON, PENTAGON_LOOP),
        (RAISED, PENTAGON_LOOP),
        (RAISED, MIRROR_LOOP),
        (RAISED, MIRROR_LOOP + PENTAGON_LOOP),
        ((off_star_adjacent, OFF_STAR_R.get, off_star_blocking), PENTAGON_LOOP),
    ],
)
def test_pentagon_subdivide_certificates_match_reference(oracles, loop):
    cert = contract.contract_loop(*oracles, loop, "0")
    assert any(isinstance(m, Subdivide) for m in cert.moves)
    assert _round_trip(cert) == cert


@pytest.mark.parametrize(
    "moves, final",
    [
        ([], ["inf", "1/2"]),
        ([Relabel(1, farey.Slope(1, 2), farey.Slope(1, 1)), Subdivide(2, farey.BASE)], []),
        ([], []),
    ],
)
def test_empty_moves_or_final_match_reference(moves, final):
    cert = HomotopyCertificate(moves, [farey.parse_slope(s) for s in final])
    assert _round_trip(cert, farey.parse_slope) == cert


# labels that json must escape: quotes, backslashes, control characters,
# DEL, non-ASCII, the JS line separator, a lone surrogate, astral planes;
# a small pool of repeats as well, so decode sees the same string again
SPECIAL = '"\\/\x00\x07\x1f\x7f\n\té \ud800\U0001f600\U0010ffff'
LABELS = st.one_of(
    st.sampled_from(["a", '"', "\\", "\U0001f600"]),
    st.text(st.one_of(st.sampled_from(SPECIAL), st.characters()), max_size=8),
)
SPLIT_PAIR = re.compile("[\ud800-\udbff][\udc00-\udfff]")
MOVES = st.one_of(
    st.builds(Relabel, st.integers(), LABELS, LABELS),
    st.builds(Subdivide, st.integers(), LABELS),
)


def _refusal(label: str) -> str:
    return f"label {json.dumps(label)} holds a split surrogate pair"


@given(st.lists(MOVES, max_size=8), st.lists(LABELS, max_size=8))
@example([], ["\ud800" + "\udc00"])
@settings(max_examples=300, deadline=None)
def test_escaped_labels_match_reference(moves, final):
    """A label holding a high surrogate and then a low one, which json
    escapes as it escapes an astral character and json.loads joins into
    one, is refused with the first such label named; every other
    certificate round-trips."""
    cert = HomotopyCertificate(moves, final)
    joined = [s for s in _strings(cert.to_json_dict()) if SPLIT_PAIR.search(s)]
    if joined:
        with pytest.raises(ValueError) as err:
            cert.to_json()
        assert str(err.value) == _refusal(joined[0])
    else:
        assert _round_trip(cert) == cert


@pytest.mark.parametrize("label", ["\ud800" + "\udc00", "a\udbff\udfffb", "\\\ud800\udc00"])
def test_split_surrogate_pairs_are_refused(label):
    """The first split label in field order (moves, then final) is named."""
    cert = HomotopyCertificate([Relabel(0, "a", label)], ["\ud800", "\udbff\udfff", label])
    with pytest.raises(ValueError) as err:
        cert.to_json()
    assert str(err.value) == _refusal(label)


SPLIT = "\ud800" + "\udc00"


@pytest.mark.parametrize(
    "moves, refusal",
    [
        ([Subdivide(SPLIT, "a")], f"position {json.dumps(SPLIT)}"),
        ([Relabel("x" + SPLIT, "a", SPLIT)], f"position {json.dumps('x' + SPLIT)}"),
        ([Relabel(0, "a", SPLIT), Subdivide("x" + SPLIT, "b")], f"label {json.dumps(SPLIT)}"),
    ],
)
def test_string_positions_holding_a_split_surrogate_pair_are_refused(moves, refusal):
    """A string position is checked as a label is, in field order."""
    with pytest.raises(ValueError) as err:
        HomotopyCertificate(moves, [SPLIT]).to_json()
    assert str(err.value) == f"{refusal} holds a split surrogate pair"


@pytest.mark.parametrize("label", ["\ud800", "\udc00\ud800", "\\ud800\udc00", '"\\ud800\udc00'])
def test_lone_or_reversed_surrogates_round_trip(label):
    """Strings whose text holds an escaped surrogate but no pair json joins."""
    cert = HomotopyCertificate([Subdivide(0, label)], [label])
    assert _round_trip(cert) == cert


class Position(enum.IntEnum):
    ONE = 1


@pytest.mark.parametrize(
    "pos",
    ["true", "false", "1.5", "-0.0", "1e300", "NaN", "-Infinity", '"3"', '"\\u00e9\\n"',
     "null", "[]", "{}", '[1, [2, {"a": []}]]', '{"k": [1, "x"], "j": {}}'],
)
def test_positions_read_back_from_json_match_reference(pos):
    text = ('{"moves": [{"type": "relabel", "pos": %s, "old": "a", "new": "b"},'
            ' {"type": "subdivide", "pos": %s, "insert": "a"}], "final": ["b"]}') % (pos, pos)
    _round_trip(HomotopyCertificate.from_json_dict(json.loads(text)))


def test_int_subclass_positions_match_reference():
    cert = HomotopyCertificate([Relabel(Position.ONE, "a", "b"), Subdivide(Position.ONE, "c")], [])
    assert cert.to_json() == ref.to_json(cert)
    assert '"pos": 1,' in cert.to_json()


def test_unencodable_positions_raise_like_reference():
    cert = HomotopyCertificate([Subdivide(object(), "a")], [])
    with pytest.raises(TypeError) as new:
        cert.to_json()
    with pytest.raises(TypeError) as old:
        ref.to_json(cert)
    assert str(new.value) == str(old.value)


def test_only_strings_share_a_decode_call():
    # 1, 1.0 and true are equal and hash alike; each must reach decode
    data = json.loads('{"moves": [], "final": [1, 1.0, true, "1", "1"]}')
    calls = []
    back = HomotopyCertificate.from_json_dict(data, lambda s: calls.append(s) or s)
    assert [type(v) for v in back.final] == [int, float, bool, str, str]
    assert [type(v) for v in calls] == [int, float, bool, str]


def test_unhashable_fields_reach_decode():
    data = {"moves": [{"type": "subdivide", "pos": 1, "insert": ["inf"]}], "final": []}
    with pytest.raises(ValueError, match="slope must be a string, not list"):
        HomotopyCertificate.from_json_dict(data, farey.parse_slope)
    assert HomotopyCertificate.from_json_dict(data).moves == (Subdivide(1, ["inf"]),)
