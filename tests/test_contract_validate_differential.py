"""Differential test: goeritz.contract.validate, which replays under one
guard, against the former validate with one guard per call, kept in
tests/contract_validate_reference.py.

Certificates of seeded slope loops are mutated: moves dropped,
duplicated or swapped, or a subdivision inserted; a position shifted by
one or made True, "0" or 1.0; an image of a move, of the final loop or
of the input loop swapped for a neighbouring slope, for junk, or for an
object whose ==, repr or truth value raises; the final loop truncated or
extended; the loop emptied or rotated off the base.  Each is replayed
with farey.adjacent; with an oracle that answers u == v, as it is,
unless both are slopes, so that a non-slope is refused or its truth
value is asked for; and with one that calls every pair adjacent, so
that the replay gets past the oracle to the comparisons.  Wherever the
reference returns, the package must return the same (ok, failed_move,
reason); wherever the reference raises, the package must return a
failing report.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

import contract_validate_reference as ref
from goeritz import farey
from goeritz.contract import (
    HomotopyCertificate,
    Relabel,
    Subdivide,
    ValidationReport,
    contract_loop,
    validate,
)
from test_contract import Truthless, Uncomparable, Unshowable

CERTIFIED = [
    (loop, contract_loop(farey.adjacent, farey.remoteness, farey.blocking, loop, farey.BASE))
    for loop in (farey.random_based_loop(seed, max_denominator=20) for seed in range(8))
]


def _lenient(u, v):
    """farey.adjacent on two slopes; else the answer of u == v as it is."""
    if isinstance(u, farey.Slope) and isinstance(v, farey.Slope):
        return farey.adjacent(u, v)
    return u == v


ORACLES = [farey.adjacent, _lenient, lambda u, v: True]


class TruthlessImage(Truthless):
    """An image whose truth value raises, and so does that of its == and !=."""

    def __eq__(self, other):
        return Truthless()

    __hash__ = object.__hash__


def _neighbour(v, k):
    return farey.neighbours(v, 2)[k] if isinstance(v, farey.Slope) else farey.BASE


BAD = st.sampled_from([Uncomparable(), Unshowable(), TruthlessImage()])
# a function of the image it replaces; an image that raises half the time
IMAGES = st.one_of(
    st.integers(0, 4).map(lambda k: lambda v: _neighbour(v, k)),
    st.sampled_from(["junk", None, 5, (1, 0)]).map(lambda junk: lambda v: junk),
    BAD.map(lambda bad: lambda v: bad),
    BAD.map(lambda bad: lambda v: bad),
)
# image swaps are a third of all mutations: they are the ones that reach the
# guards
KINDS = ["drop", "dup", "swap", "insert", "shift", "pos", "truncate", "extend", "empty",
         "rotate", "no moves"] + ["image"] * 5


@st.composite
def mutated(draw):
    """(adjacent, certificate, loop) after zero to three mutations."""
    loop, cert = draw(st.sampled_from(CERTIFIED))
    loop, moves, final = list(loop), list(cert.moves), list(cert.final)
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(KINDS))
        i = draw(st.integers(0, max(len(moves) - 1, 0)))
        if kind in ("drop", "dup", "swap", "shift", "pos") and not moves:
            continue
        if kind == "drop":
            del moves[i]
        elif kind == "dup":
            moves.insert(i, moves[i])
        elif kind == "swap":
            j = draw(st.integers(0, len(moves) - 1))
            moves[i], moves[j] = moves[j], moves[i]
        elif kind == "shift" and not isinstance(moves[i].pos, str):
            shift = draw(st.sampled_from([-1, 1]))
            moves[i] = dataclasses.replace(moves[i], pos=moves[i].pos + shift)
        elif kind == "pos":
            moves[i] = dataclasses.replace(moves[i], pos=draw(st.sampled_from([True, "0", 1.0])))
        elif kind == "image":
            where = draw(st.sampled_from(["move", "final", "loop"]))
            swap = draw(IMAGES)
            if where == "move" and moves:
                fields = ["old", "new"] if isinstance(moves[i], Relabel) else ["insert"]
                field = draw(st.sampled_from(fields))
                moves[i] = dataclasses.replace(moves[i], **{field: swap(getattr(moves[i], field))})
            seq = final if where == "final" else loop if where == "loop" else []
            if seq:
                k = draw(st.integers(0, len(seq) - 1))
                seq[k] = swap(seq[k])
        elif kind == "truncate":
            final = final[:-1]
        elif kind == "extend":
            final.append(draw(IMAGES)(final[-1] if final else farey.BASE))
        elif kind == "insert":
            pos = draw(st.integers(0, len(loop) + 1))
            moves.insert(i, Subdivide(pos, draw(IMAGES)(farey.BASE)))
        elif kind == "empty":
            loop = []
        elif kind == "rotate":
            loop = loop[1:] + loop[:1]
        elif kind == "no moves":  # the loop is its own final loop: only loop checks are left
            moves, final = [], list(loop)
    return draw(st.sampled_from(ORACLES)), HomotopyCertificate(moves, final), loop


@given(mutated())
@settings(max_examples=1000, deadline=None)
def test_validate_matches_the_reference_or_reports_where_it_raised(case):
    adjacent, cert, loop = case
    report = validate(adjacent, cert, loop, farey.BASE)
    assert isinstance(report, ValidationReport)
    try:
        expected = ref.validate(adjacent, cert, loop, farey.BASE)
    except Exception:
        assert not report.ok and report.reason, report
    else:
        assert (report.ok, report.failed_move, report.reason) == (
            expected.ok, expected.failed_move, expected.reason)
