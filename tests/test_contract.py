"""The certified loop-contraction engine.

A toy line fixture (non-negative integers, adjacency |u-w| <= 1,
remoteness = value, base 0) exercises the relabel branch in isolation;
the slope fixture exercises both branches.  Lying oracles must raise
OracleContractViolation, and tampered certificates must fail validate.
"""

import json
from types import SimpleNamespace

import pytest

from goeritz import farey
from goeritz.contract import (
    DEFAULT_FUEL,
    FuelExhausted,
    HomotopyCertificate,
    OracleContractViolation,
    Relabel,
    Subdivide,
    check_blocking_answer,
    contract_loop,
    validate,
)


# --- toy line fixture -------------------------------------------------------


def line_adjacent(u, w):
    return abs(u - w) <= 1


def line_remoteness(v):
    return v


def line_blocking(x_members, v):
    # every neighbour of v on the line is adjacent to v - 1 except v + 1,
    # but a maximum position never has a deeper neighbour
    assert all(u <= v for u in x_members)
    return 0, v - 1


def test_line_loop_contracts_by_relabelling():
    loop = [0, 1, 2, 3, 2, 1]
    cert = contract_loop(line_adjacent, line_remoteness, line_blocking, loop, 0)
    assert all(isinstance(m, Relabel) for m in cert.moves)
    assert len(cert.final) == len(loop)
    assert all(v <= 1 for v in cert.final)
    assert validate(line_adjacent, cert, loop, 0).ok


def test_loop_already_in_star_needs_no_moves():
    cert = contract_loop(line_adjacent, line_remoteness, line_blocking, [0, 1, 1], 0)
    assert cert.moves == ()
    assert list(cert.final) == [0, 1, 1]


def test_single_vertex_loop():
    cert = contract_loop(line_adjacent, line_remoteness, line_blocking, [0], 0)
    assert cert.moves == ()


def test_loop_validation():
    with pytest.raises(ValueError):
        contract_loop(line_adjacent, line_remoteness, line_blocking, [], 0)
    with pytest.raises(ValueError):
        contract_loop(line_adjacent, line_remoteness, line_blocking, [1, 2], 0)
    with pytest.raises(ValueError):
        contract_loop(line_adjacent, line_remoteness, line_blocking, [0, 2], 0)
    with pytest.raises(ValueError):
        contract_loop(line_adjacent, line_remoteness, line_blocking, [0, 1, 3], 0)


# --- the reflexive-adjacency contract ---------------------------------------
#
# The engine takes adjacent(u, u) as the oracle states it: an oracle
# that is not reflexive breaks the contract and is refused, not repaired.


def strict_line_adjacent(u, w):
    return abs(u - w) == 1


@pytest.mark.parametrize(
    "loop, error, message",
    [
        ([0], ValueError, "loop images at 0, 0 are not adjacent"),
        ([0, 1, 2, 1], OracleContractViolation,
         "remoteness 0 at 0 which is not adjacent to the base"),
    ],
)
def test_non_reflexive_adjacency_is_refused(loop, error, message):
    with pytest.raises(error) as err:
        contract_loop(strict_line_adjacent, line_remoteness, line_blocking, loop, 0)
    assert str(err.value) == message


def test_non_reflexive_adjacency_fails_validate():
    loop = [0, 1, 2, 1]
    cert = contract_loop(line_adjacent, line_remoteness, line_blocking, loop, 0)
    assert validate(line_adjacent, cert, loop, 0).ok
    report = validate(strict_line_adjacent, cert, loop, 0)
    assert (report.ok, report.failed_move) == (False, 0)
    assert report.reason == "relabel image 1 not adjacent to 1"


# --- pentagon fixture -------------------------------------------------------
#
# A hand-built complex where honest blocking really does return a
# positive value once: the smaller-remoteness neighbours of "2" each
# miss one of its loop neighbours, so the engine must subdivide.

PENTAGON_VERTICES = ["0", "1a", "1b", "1c", "1d", "2", "2p"]
PENTAGON_R = {"0": 0, "1a": 1, "1b": 1, "1c": 1, "1d": 1, "2": 2, "2p": 2}
PENTAGON_EDGES = {
    frozenset(e)
    for e in [
        ("0", "1a"), ("0", "1b"), ("0", "1c"), ("0", "1d"),
        ("1a", "2"), ("2", "2p"), ("2p", "1b"),
        ("1c", "2"), ("1c", "2p"), ("1d", "2"),
        ("1d", "1a"), ("1d", "1c"), ("1b", "1c"),
    ]
}
PENTAGON_LOOP = ["0", "1a", "2", "2p", "1b"]


def pent_adjacent(u, w):
    return u == w or frozenset((u, w)) in PENTAGON_EDGES


def pent_remoteness(v):
    return PENTAGON_R[v]


def pent_blocking(x_members, v):
    members = tuple(x_members)
    for w in PENTAGON_VERTICES:
        if (
            pent_remoteness(w) < pent_remoteness(v)
            and pent_adjacent(w, v)
            and all(pent_adjacent(u, w) for u in members)
        ):
            return 0, w
    value = sum(pent_remoteness(u) for u in members)
    top = max(pent_remoteness(u) for u in members)
    for vp in members:
        if pent_remoteness(vp) != top:
            continue
        for wp in PENTAGON_VERTICES:
            if (
                pent_remoteness(wp) < pent_remoteness(vp)
                and pent_adjacent(wp, v)
                and all(pent_adjacent(u, wp) for u in members if pent_adjacent(u, vp))
            ):
                return value, (vp, wp)
    raise AssertionError("pentagon fixture has no witness")


def test_pentagon_fixture_exercises_both_branches():
    cert = contract_loop(
        pent_adjacent, pent_remoteness, pent_blocking, PENTAGON_LOOP, "0"
    )
    kinds = [type(m) for m in cert.moves]
    assert Subdivide in kinds
    assert Relabel in kinds
    assert len(cert.final) == len(PENTAGON_LOOP) + kinds.count(Subdivide)
    assert validate(pent_adjacent, cert, PENTAGON_LOOP, "0").ok
    for v in cert.final:
        assert pent_adjacent(v, "0")


# --- slope fixture ----------------------------------------------------------


def slope_loop(seed):
    return farey.random_based_loop(seed, max_denominator=30)


def test_slope_loops_contract_and_validate():
    for seed in range(20):
        loop = slope_loop(seed)
        cert = contract_loop(
            farey.adjacent, farey.remoteness, farey.blocking, loop, farey.BASE
        )
        report = validate(farey.adjacent, cert, loop, farey.BASE)
        assert report.ok, (seed, report.reason)
        for v in cert.final:
            assert farey.adjacent(v, farey.BASE)


def test_slope_loops_contract_by_relabelling_alone():
    # a maximal position's neighbours never have larger denominators, and
    # then a Stern-Brocot parent always works as a b = 0 witness, so the
    # slope fixture never blocks on engine-generated adjacency pairs
    for seed in range(20):
        cert = contract_loop(
            farey.adjacent, farey.remoteness, farey.blocking, slope_loop(seed),
            farey.BASE,
        )
        assert all(isinstance(m, Relabel) for m in cert.moves)


def test_fuel_exhaustion():
    loop = slope_loop(0)
    needed = len(
        contract_loop(
            farey.adjacent, farey.remoteness, farey.blocking, loop, farey.BASE
        ).moves
    )
    assert needed > 1
    with pytest.raises(FuelExhausted):
        contract_loop(
            farey.adjacent, farey.remoteness, farey.blocking, loop, farey.BASE,
            fuel=needed - 1,
        )
    assert DEFAULT_FUEL >= 10**6


# --- lying oracles ----------------------------------------------------------


def test_negative_remoteness_is_caught():
    lying = lambda v: -1 if v == 2 else v
    with pytest.raises(OracleContractViolation):
        contract_loop(line_adjacent, lying, line_blocking, [0, 1, 2, 1], 0)


def test_zero_remoteness_off_the_base_star_is_caught():
    lying = lambda v: 0 if v == 2 else v
    with pytest.raises(OracleContractViolation):
        contract_loop(line_adjacent, lying, line_blocking, [0, 1, 2, 1], 0)


def test_relabel_witness_with_equal_remoteness_is_caught():
    lying = lambda xs, v: (0, v)
    with pytest.raises(OracleContractViolation):
        contract_loop(line_adjacent, line_remoteness, lying, [0, 1, 2, 1], 0)


def test_relabel_witness_not_adjacent_is_caught():
    loop = [farey.INFINITY, farey.Slope(0, 1), farey.Slope(1, 2), farey.Slope(1, 1)]
    lying = lambda xs, v: (0, farey.Slope(5, 1))  # far from 1/2
    with pytest.raises(OracleContractViolation):
        contract_loop(farey.adjacent, farey.remoteness, lying, loop, farey.BASE)


def test_subdivide_member_outside_pair_is_caught():
    loop = [farey.INFINITY, farey.Slope(0, 1), farey.Slope(1, 2), farey.Slope(1, 1)]
    lying = lambda xs, v: (7, (farey.Slope(9, 2), farey.Slope(4, 1)))
    with pytest.raises(OracleContractViolation):
        contract_loop(farey.adjacent, farey.remoteness, lying, loop, farey.BASE)


def test_non_decreasing_blocking_value_is_caught():
    # ("2p", "1c") is a legal subdivide witness at "2" the first time, but
    # returning it with a constant positive value freezes the progress
    # measure, which the engine must notice
    def stuck(x_members, v):
        if v == "2":
            return 999, ("2p", "1c")
        return pent_blocking(x_members, v)

    with pytest.raises(OracleContractViolation):
        contract_loop(pent_adjacent, pent_remoteness, stuck, PENTAGON_LOOP, "0")


# --- the blocking-contract checker ------------------------------------------

# On the line fixture X = (1, 3) around v = 2: the b = 0 witness 1 is
# adjacent to v and lower, but not adjacent to the member 3.
def check_line(x, v, value, witness):
    return check_blocking_answer(line_adjacent, line_remoteness, x, v, value, witness)


def test_checker_accepts_good_answers():
    assert check_line((1, 2), 2, 0, 1) == []
    assert check_line((3,), 2, 3, (3, 2)) == []
    half, one = farey.Slope(1, 2), farey.Slope(1, 1)
    for x, v in (((one,), half), ((half, one), farey.Slope(2, 3))):
        value, witness = farey.blocking(x, v)
        assert check_blocking_answer(
            farey.adjacent, farey.remoteness, x, v, value, witness
        ) == []


@pytest.mark.parametrize(
    "x, v, value, witness, clause",
    [
        ((1,), 2, -1, 1, "negative blocking value"),
        ((1,), 3, 0, 1, "b=0 witness 1 not adjacent to 3"),
        ((1, 3), 2, 0, 2, "b=0 witness 2 does not lower remoteness"),
        ((1, 3), 2, 0, 1, "b=0 witness 1 not adjacent to neighbour image 3"),
        ((3,), 2, 3, 4, "is not a pair"),
        ((3,), 2, 3, (1, 2), "b>0 witness member 1 is not a neighbour image"),
        ((3,), 2, 3, (3, 3), "b>0 replacement 3 does not lower remoteness"),
        ((3, 4), 3, 7, (3, 2), "b>0 replacement 2 misses neighbour 4 of 3"),
        ((5,), 6, 5, (5, 4), "b>0 replacement 4 not adjacent to active image 6"),
    ],
)
def test_checker_reports_each_broken_clause(x, v, value, witness, clause):
    problems = check_line(x, v, value, witness)
    assert len(problems) == 1, problems
    assert clause in problems[0]


def test_engine_raises_the_first_checker_message():
    lying = lambda xs, v: (0, v)
    expected = check_line((1, 1), 2, 0, 2)[0]
    with pytest.raises(OracleContractViolation, match=expected):
        contract_loop(line_adjacent, line_remoteness, lying, [0, 1, 2, 1], 0)


# --- certificates -----------------------------------------------------------


def test_certificate_json_roundtrip():
    loop = slope_loop(3)
    cert = contract_loop(
        farey.adjacent, farey.remoteness, farey.blocking, loop, farey.BASE
    )
    data = json.loads(cert.to_json())
    back = HomotopyCertificate.from_json_dict(data, decode=farey.parse_slope)
    assert back.moves == cert.moves
    assert back.final == cert.final
    assert validate(farey.adjacent, back, loop, farey.BASE).ok


def test_validate_rejects_tampering():
    loop = slope_loop(4)
    cert = contract_loop(
        farey.adjacent, farey.remoteness, farey.blocking, loop, farey.BASE
    )
    assert len(cert.moves) >= 2

    dropped = HomotopyCertificate(cert.moves[:-1], cert.final)
    assert not validate(farey.adjacent, dropped, loop, farey.BASE).ok

    wrong_final = HomotopyCertificate(cert.moves, tuple(loop))
    assert not validate(farey.adjacent, wrong_final, loop, farey.BASE).ok

    first = cert.moves[0]
    if isinstance(first, Relabel):
        bad = Relabel(first.pos, first.old, farey.Slope(999, 1))
    else:
        bad = Subdivide(first.pos, farey.Slope(999, 1))
    mangled = HomotopyCertificate((bad,) + cert.moves[1:], cert.final)
    assert not validate(farey.adjacent, mangled, loop, farey.BASE).ok


def test_validate_reports_reason():
    loop = slope_loop(5)
    cert = contract_loop(
        farey.adjacent, farey.remoteness, farey.blocking, loop, farey.BASE
    )
    report = validate(farey.adjacent, cert, [farey.INFINITY], farey.BASE)
    assert not report.ok
    assert report.reason


def test_validate_reports_non_integer_positions():
    loop = slope_loop(3)
    for move in (Relabel("0", loop[0], loop[0]), Subdivide(None, loop[0])):
        report = validate(farey.adjacent, HomotopyCertificate([move], loop), loop, farey.BASE)
        assert not report.ok
        assert report.failed_move == 0
        assert "not an integer" in report.reason


def test_validate_rejects_a_boolean_position_read_from_json():
    # true == 1, and the same move at position 1 is valid, so a replay
    # that let the bool through would accept this certificate
    loop = [farey.BASE, farey.Slope(0, 1), farey.Slope(1, 1)]
    text = '{"moves": [{"type": "subdivide", "pos": %s, "insert": "-1"}], "final": ["inf", "-1", "0", "1"]}'
    as_int = HomotopyCertificate.from_json_dict(json.loads(text % "1"), decode=farey.parse_slope)
    assert validate(farey.adjacent, as_int, loop, farey.BASE).ok
    cert = HomotopyCertificate.from_json_dict(json.loads(text % "true"), decode=farey.parse_slope)
    assert cert.moves[0].pos is True
    report = validate(farey.adjacent, cert, loop, farey.BASE)
    assert (report.ok, report.failed_move) == (False, 0)
    assert report.reason == "move position True is not an integer"
    assert '"pos": true,' in cert.to_json()


def test_validate_reports_images_the_oracle_rejects():
    # farey.adjacent raises AttributeError on a non-slope; validate must not
    loop = slope_loop(3)
    for move in (Subdivide(1, "junk"), Relabel(0, farey.BASE, None)):
        report = validate(farey.adjacent, HomotopyCertificate([move], loop), loop, farey.BASE)
        assert not report.ok
        assert report.failed_move == 0
        assert "AttributeError" in report.reason and repr(move) in report.reason


def test_validate_reports_input_images_the_oracle_rejects():
    # no move touches "junk", so only the final base-star check sees it
    report = validate(farey.adjacent, HomotopyCertificate([], ["junk"]), ["junk"], farey.BASE)
    assert not report.ok
    assert report.failed_move is None
    assert report.reason == "adjacency oracle raised AttributeError on final image 'junk'"


def test_validate_refuses_an_input_that_is_not_a_loop():
    # infinity and 5/2 are not adjacent; the relabel alone is a valid move
    inf, half5, two = farey.INFINITY, farey.Slope(5, 2), farey.Slope(2, 1)
    cert = HomotopyCertificate([Relabel(1, half5, two)], [inf, two])
    report = validate(farey.adjacent, cert, [inf, half5], farey.BASE)
    assert (report.ok, report.failed_move) == (False, None)
    assert report.reason == "loop images at 0, 1 are not adjacent"
    with pytest.raises(ValueError, match="loop images at 0, 1 are not adjacent"):
        contract_loop(farey.adjacent, farey.remoteness, farey.blocking, [inf, half5], farey.BASE)


def test_validate_reports_input_pairs_the_oracle_rejects():
    loop = [farey.BASE, "junk"]
    report = validate(farey.adjacent, HomotopyCertificate([], loop), loop, farey.BASE)
    assert (report.ok, report.failed_move) == (False, None)
    assert report.reason == "adjacency oracle raised AttributeError on loop images at 0, 1"


@pytest.mark.parametrize("bad", [None, 5, object()], ids=["None", "int", "object"])
@pytest.mark.parametrize("field, reason", [
    ("loop", "cannot read the loop: TypeError"),
    ("certificate", "cannot read the moves: AttributeError"),
], ids=["loop", "certificate"])
def test_validate_reports_a_loop_or_certificate_it_cannot_read(field, reason, bad):
    # validate is total: an input that is no loop or no certificate gets a
    # report, never an exception
    args = {"loop": [farey.BASE], "certificate": HomotopyCertificate([], [farey.BASE]), field: bad}
    report = validate(farey.adjacent, args["certificate"], args["loop"], farey.BASE)
    assert (report.ok, report.failed_move, report.reason) == (False, None, reason)


def _moves_that_raise():
    yield Relabel(0, farey.BASE, farey.BASE)
    raise KeyError("stop")


@pytest.mark.parametrize("make, reason", [
    (lambda: SimpleNamespace(moves=()), "cannot read the final loop: AttributeError"),
    (lambda: SimpleNamespace(moves=_moves_that_raise(), final=(farey.BASE,)),
     "cannot read the moves: KeyError"),
], ids=["no final loop", "moves that raise"])
def test_validate_reports_a_certificate_it_cannot_read_in_full(make, reason):
    report = validate(farey.adjacent, make(), [farey.BASE], farey.BASE)
    assert (report.ok, report.failed_move, report.reason) == (False, None, reason)


class Uncomparable:
    """An image whose == raises, as an image from outside may."""

    def __eq__(self, other):
        raise RuntimeError("no comparison")


UNCOMPARABLE = Uncomparable()
UNCOMPARABLE_RELABEL = Relabel(0, UNCOMPARABLE, farey.BASE)


# each case trips one comparison: the old image of a relabel, the replayed
# against the recorded final loop, the first image against the base
@pytest.mark.parametrize("cert, loop, failed_move, reason", [
    pytest.param(HomotopyCertificate([UNCOMPARABLE_RELABEL], [farey.BASE]), [farey.BASE], 0,
                 f"comparing images raised RuntimeError on {UNCOMPARABLE_RELABEL!r}",
                 id="relabel old image"),
    pytest.param(HomotopyCertificate([], [UNCOMPARABLE]), [farey.BASE], None,
                 "comparing images raised RuntimeError on the replayed and final loops",
                 id="final loop"),
    pytest.param(HomotopyCertificate([], [UNCOMPARABLE]), [UNCOMPARABLE], None,
                 "comparing images raised RuntimeError on the first image and the base",
                 id="first image"),
])
def test_validate_reports_images_whose_comparison_raises(cert, loop, failed_move, reason):
    report = validate(lambda u, v: True, cert, loop, farey.BASE)
    assert (report.ok, report.failed_move, report.reason) == (False, failed_move, reason)


class Unshowable:
    """An image whose repr raises, as an image from outside may."""

    def __repr__(self):
        raise RuntimeError("no repr")


class Opaque(Uncomparable, Unshowable):
    """An image whose == and repr both raise."""


class Truthless:
    """An oracle answer whose truth value raises."""

    def __bool__(self):
        raise RuntimeError("no truth value")


UNSHOWABLE = Unshowable()
SHOWN = "<Unshowable: repr raised RuntimeError>"


def identical(u, v):
    return u is v


# each case puts an image whose repr raises, or an answer whose truth value
# raises, into one reason; the last reads a move whose fields were never set
@pytest.mark.parametrize("adjacent, cert, loop, failed_move, reason", [
    pytest.param(farey.adjacent, HomotopyCertificate([Relabel(0, UNSHOWABLE, farey.BASE)],
                                                     [farey.BASE]), [farey.BASE], 0,
                 f"relabel expected {SHOWN} at 0, found {farey.BASE!r}", id="relabel old image"),
    pytest.param(farey.adjacent, HomotopyCertificate([UNSHOWABLE], [farey.BASE]), [farey.BASE], 0,
                 f"unknown move {SHOWN}", id="unknown move"),
    pytest.param(identical, HomotopyCertificate([Subdivide(1, UNSHOWABLE)], [farey.BASE]),
                 [farey.BASE], 0, f"inserted image {SHOWN} not adjacent to {farey.BASE!r}",
                 id="image not adjacent"),
    pytest.param(identical, HomotopyCertificate([Subdivide(1, farey.BASE)], [UNSHOWABLE]),
                 [UNSHOWABLE], 0, f"inserted image {farey.BASE!r} not adjacent to {SHOWN}",
                 id="not adjacent to image"),
    pytest.param(identical, HomotopyCertificate([], [UNSHOWABLE]), [UNSHOWABLE], None,
                 f"final image {SHOWN} outside the base star", id="final image"),
    pytest.param(farey.adjacent, HomotopyCertificate([Subdivide(1, UNSHOWABLE)], [farey.BASE]),
                 [farey.BASE], 0,
                 "adjacency oracle raised AttributeError on <Subdivide: repr raised RuntimeError>",
                 id="oracle on move"),
    pytest.param(lambda u, v: True, HomotopyCertificate([Relabel(0, Opaque(), farey.BASE)],
                                                        [farey.BASE]), [farey.BASE], 0,
                 "comparing images raised RuntimeError on <Relabel: repr raised RuntimeError>",
                 id="comparison on move"),
    pytest.param(lambda u, v: Truthless(), HomotopyCertificate([], [farey.BASE]), [farey.BASE],
                 None, "adjacency oracle raised RuntimeError on loop images at 0, 0",
                 id="oracle answer"),
    pytest.param(farey.adjacent, HomotopyCertificate([Relabel.__new__(Relabel)], [farey.BASE]),
                 [farey.BASE], 0, "cannot read the move: AttributeError", id="unreadable move"),
])
def test_validate_reports_values_whose_repr_or_truth_raises(adjacent, cert, loop, failed_move,
                                                           reason):
    report = validate(adjacent, cert, loop, farey.BASE)
    assert (report.ok, report.failed_move, report.reason) == (False, failed_move, reason)


class UnshowableInt(int):
    """A remoteness whose repr, and so str, raises."""

    def __repr__(self):
        raise RuntimeError("no repr")


def test_lying_answers_whose_repr_raises_are_still_reported():
    def line(u, w):  # refuses every non-integer
        return type(u) is int and type(w) is int and abs(u - w) <= 1

    def remoteness(v):
        return v if type(v) is int else 99

    witness = UNSHOWABLE
    problems = check_blocking_answer(line, remoteness, (1, 1), 2, 0, witness)
    assert problems[0] == f"b=0 witness {SHOWN} not adjacent to 2"
    with pytest.raises(OracleContractViolation) as err:
        contract_loop(line, remoteness, lambda x, v: (0, witness), [0, 1, 2, 1], 0)
    assert str(err.value) == problems[0]
    negative = lambda v: UnshowableInt(-1) if v == 2 else v
    with pytest.raises(OracleContractViolation) as err:
        contract_loop(line_adjacent, negative, line_blocking, [0, 1, 2, 1], 0)
    assert str(err.value) == "negative remoteness <UnshowableInt: repr raised RuntimeError> at 2"


STAR_LOOP = [farey.BASE, farey.Slope(0, 1), farey.Slope(1, 1)]


@pytest.mark.parametrize(
    "move, reason",
    [
        ("relabel", "unknown move 'relabel'"),
        (Relabel(3, farey.BASE, farey.BASE), "relabel position 3 out of range"),
        (Relabel(-1, farey.BASE, farey.BASE), "relabel position -1 out of range"),
        (Subdivide(0, farey.Slope(1, 2)), "subdivide position 0 out of range"),
        (Subdivide(4, farey.Slope(1, 2)), "subdivide position 4 out of range"),
    ],
)
def test_validate_reports_each_refused_move(move, reason):
    cert = HomotopyCertificate([move], STAR_LOOP)
    report = validate(farey.adjacent, cert, STAR_LOOP, farey.BASE)
    assert not report
    assert (report.ok, report.failed_move, report.reason) == (False, 0, reason)


def test_validate_reports_a_final_image_outside_the_base_star():
    loop = [farey.INFINITY, farey.Slope(0, 1), farey.Slope(1, 2), farey.Slope(1, 1)]
    report = validate(farey.adjacent, HomotopyCertificate([], loop), loop, farey.BASE)
    assert (report.ok, report.failed_move) == (False, None)
    assert report.reason == f"final image {farey.Slope(1, 2)!r} outside the base star"


@pytest.mark.parametrize(
    "data",
    [
        {"final": []},
        {"moves": []},
        {"moves": [{"pos": 0, "insert": "inf"}], "final": []},
        {"moves": [{"type": "subdivide", "insert": "inf"}], "final": []},
        {"moves": [{"type": "relabel", "old": "inf", "new": "inf"}], "final": []},
        {"moves": [7], "final": []},
        {"moves": [], "final": [5]},
        {"moves": [], "final": [["inf"]]},
        {"moves": [{"type": "subdivide", "pos": 1, "insert": None}], "final": []},
    ],
)
def test_certificate_json_with_missing_fields_raises_value_error(data):
    with pytest.raises(ValueError):
        HomotopyCertificate.from_json_dict(data, decode=farey.parse_slope)


def test_certificate_json_with_an_unknown_move_type_raises_value_error():
    data = {"moves": [{"type": "rotate", "pos": 0}], "final": []}
    with pytest.raises(ValueError) as err:
        HomotopyCertificate.from_json_dict(data, decode=farey.parse_slope)
    assert str(err.value) == "unknown move type 'rotate'"


def test_validate_refuses_the_empty_loop_like_contract_loop():
    report = validate(farey.adjacent, HomotopyCertificate([], []), [], farey.BASE)
    assert (report.ok, report.failed_move) == (False, None)
    assert report.reason == "loop must be nonempty"
    with pytest.raises(ValueError, match="^loop must be nonempty$"):
        contract_loop(farey.adjacent, farey.remoteness, farey.blocking, [], farey.BASE)


def test_validate_refuses_a_loop_away_from_the_base_like_contract_loop():
    # 0/1 and infinity are adjacent and both lie in the base star
    loop = [farey.Slope(0, 1), farey.INFINITY]
    report = validate(farey.adjacent, HomotopyCertificate([], loop), loop, farey.BASE)
    assert (report.ok, report.failed_move) == (False, None)
    assert report.reason == "loop must start at the base vertex"
    with pytest.raises(ValueError, match="^loop must start at the base vertex$"):
        contract_loop(farey.adjacent, farey.remoteness, farey.blocking, loop, farey.BASE)
    # the same loop read from the base is certified
    assert validate(farey.adjacent, HomotopyCertificate([], loop[::-1]), loop[::-1], farey.BASE)
