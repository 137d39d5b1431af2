"""Certified contraction of simplicial loops in a flag complex.

The engine sees a complex only through three oracles:

  adjacent(u, v)   reflexive adjacency: equal vertices or an edge
  remoteness(v)    a non-negative integer with r^-1(0) inside the star
                   of the base vertex
  blocking(X, v)   for a multiset X of at most two neighbours of v,
                   either (0, w) with w adjacent to v and to all of X
                   and r(w) < r(v), or (value > 0, (v', w')) where
                   v' in X, r(w') < r(v'), every member of X adjacent
                   to v' is adjacent to w', w' is adjacent to v, and
                   replacing v' by w' strictly lowers the value

A based loop is a cyclic vertex list whose consecutive entries are
adjacent.  The engine repeatedly looks at a position of maximal
remoteness n > 0 (ties: lowest index), queries blocking with the two
neighbouring images, and either relabels the position to the b = 0
witness or subdivides towards the offending neighbour v' with the new
image w'.  Relabels shrink the set of positions at remoteness n;
subdivisions strictly lower the blocking value at the active position;
so the triple

    (n, number of positions at remoteness n, blocking value)

drops lexicographically at every move, which both proves termination
and is asserted at runtime.  The engine stops as soon as every image is
adjacent to the base vertex, i.e. the loop lies in the base star; a
loop in the star of a vertex of a flag complex is null-homotopic.

Oracles are pure, so the engine keeps each position's remoteness and the
number of positions off the base star, plus a level queue (Dial, CACM
1969, Algorithm 360): n, the count of positions at remoteness n, and
front, the lowest of them.  Positions only leave level n, so the loop
is rescanned once per level, not per move; if all m remotenesses
differ, that is still O(m^2) list work, in C.

Every run returns a replayable certificate.  Oracle answers are checked
against the contract above; a bad answer raises
OracleContractViolation rather than producing a bogus certificate.
The blocking clauses are stated once, in check_blocking_answer, which
the engine and the slope fixture's verify_axioms both call.

A certificate's to_json writes the text of json.dumps(..., indent=2)
itself, each string through json's C string encoder, since indent would
put json on its pure-Python encoder; from_json_dict calls decode once
per distinct string.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Callable, Hashable, Sequence

__all__ = [
    "OracleContractViolation",
    "FuelExhausted",
    "Relabel",
    "Subdivide",
    "HomotopyCertificate",
    "ValidationReport",
    "check_blocking_answer",
    "contract_loop",
    "validate",
    "DEFAULT_FUEL",
]

Vertex = Hashable
Adjacency = Callable[[Vertex, Vertex], bool]
Remoteness = Callable[[Vertex], int]
Blocking = Callable[[tuple, Vertex], tuple]

DEFAULT_FUEL = 1_000_000


class OracleContractViolation(RuntimeError):
    """An oracle answer broke its stated contract."""


class FuelExhausted(RuntimeError):
    """The move budget ran out before the loop reached the base star."""


@dataclass(frozen=True, slots=True)
class Relabel:
    """Replace the image at `pos` (old -> new)."""

    pos: int
    old: Vertex
    new: Vertex


@dataclass(frozen=True, slots=True)
class Subdivide:
    """Insert a new position with image `insert` at index `pos`,
    between the old positions pos-1 and pos (mod length)."""

    pos: int
    insert: Vertex


@dataclass(frozen=True, slots=True)
class HomotopyCertificate:
    """A replayable move list taking the input loop into the base star."""

    moves: tuple
    final: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "moves", tuple(self.moves))
        object.__setattr__(self, "final", tuple(self.final))

    def to_json_dict(self) -> dict:
        moves = []
        for m in self.moves:
            if isinstance(m, Relabel):
                moves.append(
                    {"type": "relabel", "pos": m.pos, "old": str(m.old), "new": str(m.new)}
                )
            else:
                moves.append({"type": "subdivide", "pos": m.pos, "insert": str(m.insert)})
        return {"moves": moves, "final": [str(v) for v in self.final]}

    def to_json(self) -> str:
        """The text of json.dumps(self.to_json_dict(), indent=2), laid out here:
        strings via json's C encoder, int positions via int.__repr__, others via
        json.dumps.  ValueError for a label or string position that would read
        back as another."""
        quote = encode_basestring_ascii
        moves = []
        for m in self.moves:
            pos = m.pos
            if type(pos) is int:
                pos = int.__repr__(pos)
            else:  # a bool, float or string read back from JSON, say
                pos = json.dumps(pos, indent=2).replace("\n", "\n      ")
            if isinstance(m, Relabel):
                moves.append(
                    f'{{\n      "type": "relabel",\n      "pos": {pos},\n      "old": '
                    f'{quote(str(m.old))},\n      "new": {quote(str(m.new))}\n    }}'
                )
            else:
                moves.append(
                    f'{{\n      "type": "subdivide",\n      "pos": {pos},\n      "insert": '
                    f'{quote(str(m.insert))}\n    }}'
                )
        final = [quote(str(v)) for v in self.final]
        text = f'{{\n  "moves": {_json_array(moves)},\n  "final": {_json_array(final)}\n}}'
        if "\\ud" in text:  # a surrogate or an astral character: look closer
            fields = []  # (what, string) in field order
            for m in self.moves:
                if isinstance(m.pos, str):  # not others: a NaN position never equals itself
                    fields.append(("position", m.pos))
                labels = (m.old, m.new) if isinstance(m, Relabel) else (m.insert,)
                fields += [("label", str(v)) for v in labels]
            for what, s in fields + [("label", str(v)) for v in self.final]:
                if json.loads(quote(s)) != s:  # a split surrogate pair, joined
                    raise ValueError(f"{what} {quote(s)} holds a split surrogate pair")
        return text

    @classmethod
    def from_json_dict(
        cls, data: dict, decode: Callable[[str], Vertex] = lambda s: s
    ) -> "HomotopyCertificate":
        """Read back a to_json_dict() payload; ValueError when it is malformed.

        decode turns a vertex string into a vertex.  It must be pure, as
        the oracles must: it is called once per distinct string, and any
        other value goes to it as it is, so it reports its own error.
        """
        seen: dict = {}

        def vertex(s):
            if type(s) is not str:  # 1, 1.0 and true hash alike; a list does not hash
                return decode(s)
            if s not in seen:
                seen[s] = decode(s)
            return seen[s]

        moves: list = []
        try:
            for m in data["moves"]:
                if m["type"] == "relabel":
                    moves.append(Relabel(m["pos"], vertex(m["old"]), vertex(m["new"])))
                elif m["type"] == "subdivide":
                    moves.append(Subdivide(m["pos"], vertex(m["insert"])))
                else:
                    raise ValueError(f"unknown move type {m['type']!r}")
            return cls(moves, [vertex(v) for v in data["final"]])
        except KeyError as exc:
            raise ValueError(f"certificate is missing the field {exc}") from None
        except TypeError as exc:
            raise ValueError(f"malformed certificate: {exc}") from None


def _json_array(items: list[str]) -> str:
    """Encoded items laid out as json.dumps(..., indent=2) lays out an
    array that is a value of the top-level object."""
    return "[\n    " + ",\n    ".join(items) + "\n  ]" if items else "[]"


def _shown(x) -> str:
    """repr(x), or a stand-in naming the error when that repr raises.

    >>> class R:
    ...     def __repr__(self):
    ...         raise RuntimeError("no repr")
    >>> _shown(R())
    '<R: repr raised RuntimeError>'
    """
    try:
        return repr(x)
    except Exception as exc:
        return f"<{type(x).__name__}: repr raised {type(exc).__name__}>"


def check_blocking_answer(
    adjacent: Adjacency,
    remoteness: Remoteness,
    x: Sequence[Vertex],
    v: Vertex,
    value: int,
    witness,
) -> list[str]:
    """Every clause of the blocking contract (module docstring) that the
    answer (value, witness) to blocking(x, v) breaks; [] when it keeps
    them all.  `adjacent` must be reflexive.

    >>> line = lambda u, w: abs(u - w) <= 1
    >>> check_blocking_answer(line, abs, (1, 3), 2, 0, 1)
    ['b=0 witness 1 not adjacent to neighbour image 3']
    """
    if value < 0:
        return [f"negative blocking value {_shown(value)}"]
    if value == 0:
        w = witness
        problems = []
        if not adjacent(w, v):
            problems.append(f"b=0 witness {_shown(w)} not adjacent to {_shown(v)}")
        if remoteness(w) >= remoteness(v):
            problems.append(f"b=0 witness {_shown(w)} does not lower remoteness below {_shown(v)}")
        for u in x:
            if not adjacent(u, w):
                problems.append(f"b=0 witness {_shown(w)} not adjacent to neighbour image {_shown(u)}")
        return problems
    try:
        vp, wp = witness
    except (TypeError, ValueError):
        return [f"b>0 witness {_shown(witness)} is not a pair (v', w')"]
    if vp not in x:
        # every other clause is about v', so they say nothing here
        return [f"b>0 witness member {_shown(vp)} is not a neighbour image"]
    problems = []
    if remoteness(wp) >= remoteness(vp):
        problems.append(f"b>0 replacement {_shown(wp)} does not lower remoteness below {_shown(vp)}")
    for u in x:
        if adjacent(u, vp) and not adjacent(u, wp):
            problems.append(f"b>0 replacement {_shown(wp)} misses neighbour {_shown(u)} of {_shown(vp)}")
    if not adjacent(wp, v):
        problems.append(f"b>0 replacement {_shown(wp)} not adjacent to active image {_shown(v)}")
    return problems


def contract_loop(
    adjacent: Adjacency,
    remoteness: Remoteness,
    blocking: Blocking,
    loop: Sequence[Vertex],
    base: Vertex,
    fuel: int = DEFAULT_FUEL,
) -> HomotopyCertificate:
    """Contract a based loop into the star of the base vertex.

    Raises ValueError for an invalid input loop, FuelExhausted when the
    move budget runs out, OracleContractViolation when an oracle answer
    contradicts its contract.
    """
    cur = list(loop)
    if not cur:
        raise ValueError("loop must be nonempty")
    if cur[0] != base:
        raise ValueError("loop must start at the base vertex")
    m = len(cur)
    for idx, v in enumerate(cur):
        if not adjacent(v, cur[(idx + 1) % m]):
            raise ValueError(f"loop images at {idx}, {(idx + 1) % m} are not adjacent")

    def remote_checked(v: Vertex) -> int:
        r = remoteness(v)
        if r < 0:
            raise OracleContractViolation(f"negative remoteness {_shown(r)} at {_shown(v)}")
        if r == 0 and not adjacent(v, base):
            raise OracleContractViolation(
                f"remoteness 0 at {_shown(v)} which is not adjacent to the base"
            )
        return r

    def remote_known(u: Vertex) -> int:
        # oracles are pure, so the active image v still has remoteness n
        return n if u == v else remote_checked(u)

    def level() -> tuple[int, int, int]:
        top = max(rs)
        return top, rs.count(top), rs.index(top)

    # kept per position: oracles are pure, so only an image that enters
    # the loop needs an oracle call
    rs = [remote_checked(v) for v in cur]
    off_star = sum(not adjacent(v, base) for v in cur)
    n, count, front = level()
    moves: list = []
    prev_measure: tuple[int, int, int] | None = None
    while off_star:
        m = len(cur)
        v = cur[front]
        left_i, right_i = (front - 1) % m, (front + 1) % m
        x_pair = (cur[left_i], cur[right_i])
        value, witness = blocking(x_pair, v)
        measure = (n, count, value)
        if prev_measure is not None and not measure < prev_measure:
            raise OracleContractViolation(
                f"progress measure did not decrease: {_shown(prev_measure)} -> {_shown(measure)}"
            )
        prev_measure = measure
        if fuel <= 0:
            raise FuelExhausted(
                f"fuel exhausted with {m} positions at max remoteness {_shown(n)}"
            )
        fuel -= 1
        problems = check_blocking_answer(adjacent, remote_known, x_pair, v, value, witness)
        if problems:
            raise OracleContractViolation(problems[0])
        if value == 0:
            moves.append(Relabel(front, v, witness))
            cur[front] = witness
            rs[front] = r = remote_checked(witness)
            off_star += (not adjacent(witness, base)) - (not adjacent(v, base))
            count -= 1
        else:
            vp, wp = witness
            if min(j for j in (left_i, right_i) if cur[j] == vp) == right_i:
                insert_at = front + 1  # slot between front and its right neighbour
            else:
                insert_at = front if front > 0 else m  # slot between the left neighbour and front
            moves.append(Subdivide(insert_at, wp))
            cur.insert(insert_at, wp)
            rs.insert(insert_at, r := remote_checked(wp))
            off_star += not adjacent(wp, base)
            front += insert_at <= front
        if r >= n or not count:  # level used up, or an impure oracle's repeat answer
            n, count, front = level()
        elif value == 0:
            front = rs.index(n, front + 1)
    return HomotopyCertificate(moves, cur)


@dataclass
class ValidationReport:
    """Replay outcome; truthy exactly when the certificate is valid."""

    ok: bool
    failed_move: int | None = None
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


def validate(
    adjacent: Adjacency,
    certificate: HomotopyCertificate,
    loop: Sequence[Vertex],
    base: Vertex,
) -> ValidationReport:
    """Replay a certificate against the initial loop.

    Consecutive images of the initial loop must be adjacent; each
    relabel must stay adjacent to the old image and to both neighbouring
    images; each subdivision must be adjacent to both flanking images;
    the replayed loop must equal the recorded final loop, which must lie
    in the star of the base vertex.  Last, the initial loop must be
    nonempty and start at the base vertex, the inputs contract_loop
    accepts.  validate is total: whatever raises on the way fails the
    move or the check at hand, with a reason that names the error.
    """
    failed = move = v = idx = j = None  # what the handler reports
    raised = "cannot read the loop: {e}"  # the reason if the next step raises
    try:
        cur = list(loop)
        start, m = cur[:1], len(cur)
        raised = "adjacency oracle raised {e} on loop images at {idx}, {j}"
        for idx, v in enumerate(cur):
            j = (idx + 1) % m
            if not adjacent(v, cur[j]):
                return ValidationReport(False, None, f"loop images at {idx}, {j} are not adjacent")
        raised = "cannot read the moves: {e}"
        for failed, move in enumerate(list(certificate.moves)):
            raised = "cannot read the move: {e}"
            if not isinstance(move, (Relabel, Subdivide)):
                return ValidationReport(False, failed, f"unknown move {_shown(move)}")
            m, pos = len(cur), move.pos
            if type(pos) is not int:  # a bool is an int, and True == 1
                reason = f"move position {_shown(pos)} is not an integer"
                return ValidationReport(False, failed, reason)
            if isinstance(move, Relabel):
                if not 0 <= pos < m:
                    return ValidationReport(False, failed, f"relabel position {pos} out of range")
                raised = "comparing images raised {e} on {move}"
                if cur[pos] != move.old:
                    reason = f"relabel expected {_shown(move.old)} at {pos}, found {_shown(cur[pos])}"
                    return ValidationReport(False, failed, reason)
                what, image = "relabel image", move.new
                others = (move.old, cur[(pos - 1) % m], cur[(pos + 1) % m])
            else:
                if not 1 <= pos <= m:
                    return ValidationReport(False, failed, f"subdivide position {pos} out of range")
                what, image = "inserted image", move.insert
                others = (cur[pos - 1], cur[pos % m])
            raised = "adjacency oracle raised {e} on {move}"
            for u in others:
                if not adjacent(image, u):
                    reason = f"{what} {_shown(image)} not adjacent to {_shown(u)}"
                    return ValidationReport(False, failed, reason)
            if isinstance(move, Relabel):
                cur[pos] = image
            else:
                cur.insert(pos, image)
        failed, raised = None, "cannot read the final loop: {e}"
        final = list(certificate.final)
        raised = "comparing images raised {e} on the replayed and final loops"
        if cur != final:
            return ValidationReport(False, None, "replayed loop differs from recorded final loop")
        raised = "adjacency oracle raised {e} on final image {v}"
        for v in cur:
            if not adjacent(v, base):
                return ValidationReport(False, None, f"final image {_shown(v)} outside the base star")
        if not start:
            return ValidationReport(False, None, "loop must be nonempty")
        raised = "comparing images raised {e} on the first image and the base"
        if start[0] != base:
            return ValidationReport(False, None, "loop must start at the base vertex")
    except Exception as exc:
        shown = {"move": _shown(move), "v": _shown(v), "idx": idx, "j": j}
        return ValidationReport(False, failed, raised.format(e=type(exc).__name__, **shown))
    return ValidationReport(True)
