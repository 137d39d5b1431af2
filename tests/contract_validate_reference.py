# The contract.validate that goeritz.contract shipped before the replay
# ran under one guard, with one try/except per call that can raise, kept
# unchanged as a differential oracle for
# tests/test_contract_validate_differential.py.
"""Reference replay of contraction certificates.

validate is the former goeritz.contract.validate, verbatim.  It returns
the same reports as the package on every input where it returns, and
raises where an image's repr or truth value raises outside its guards;
the package returns a failing report there instead.
"""

from __future__ import annotations

from typing import Sequence

from goeritz.contract import (
    Adjacency,
    HomotopyCertificate,
    Relabel,
    Subdivide,
    ValidationReport,
    Vertex,
)


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
    in the star of the base vertex.  An image that makes the adjacency
    oracle raise, or whose comparison with another image raises, fails
    its move (or the loop, final or start check).  Last, the initial loop
    must be nonempty and start at the base vertex, the inputs
    contract_loop accepts.  A loop that does not iterate, or a
    certificate without moves or final loop, fails with its reason.
    """
    try:
        cur = list(loop)
    except Exception as exc:  # not a sequence of vertices at all
        return ValidationReport(False, None, f"cannot read the loop: {type(exc).__name__}")
    start = cur[:1]
    m = len(cur)
    for idx, v in enumerate(cur):
        j = (idx + 1) % m
        try:
            ok = adjacent(v, cur[j])
        except Exception as exc:  # the input loop may hold a non-vertex
            reason = f"adjacency oracle raised {type(exc).__name__} on loop images at {idx}, {j}"
            return ValidationReport(False, None, reason)
        if not ok:
            return ValidationReport(False, None, f"loop images at {idx}, {j} are not adjacent")
    try:
        moves = list(certificate.moves)
    except Exception as exc:  # not a certificate, or moves that do not iterate
        return ValidationReport(False, None, f"cannot read the moves: {type(exc).__name__}")
    for idx, move in enumerate(moves):
        m = len(cur)
        if not isinstance(move, (Relabel, Subdivide)):
            return ValidationReport(False, idx, f"unknown move {move!r}")
        if type(move.pos) is not int:  # a bool is an int, and True == 1
            return ValidationReport(False, idx, f"move position {move.pos!r} is not an integer")
        if isinstance(move, Relabel):
            if not 0 <= move.pos < m:
                return ValidationReport(False, idx, f"relabel position {move.pos} out of range")
            try:
                moved = bool(cur[move.pos] != move.old)
            except Exception as exc:  # the old image comes from the certificate
                reason = f"comparing images raised {type(exc).__name__} on {move!r}"
                return ValidationReport(False, idx, reason)
            if moved:
                return ValidationReport(
                    False, idx, f"relabel expected {move.old!r} at {move.pos}, found {cur[move.pos]!r}"
                )
            what, image = "relabel image", move.new
            others = (move.old, cur[(move.pos - 1) % m], cur[(move.pos + 1) % m])
        else:
            if not 1 <= move.pos <= m:
                return ValidationReport(
                    False, idx, f"subdivide position {move.pos} out of range"
                )
            what, image = "inserted image", move.insert
            others = (cur[move.pos - 1], cur[move.pos % m])
        for u in others:
            try:
                ok = adjacent(image, u)
            except Exception as exc:  # the image comes from the certificate, maybe not a vertex
                reason = f"adjacency oracle raised {type(exc).__name__} on {move!r}"
                return ValidationReport(False, idx, reason)
            if not ok:
                return ValidationReport(False, idx, f"{what} {image!r} not adjacent to {u!r}")
        if isinstance(move, Relabel):
            cur[move.pos] = image
        else:
            cur.insert(move.pos, image)
    try:
        final = list(certificate.final)
    except Exception as exc:  # not a certificate
        return ValidationReport(False, None, f"cannot read the final loop: {type(exc).__name__}")
    try:
        differs = bool(cur != final)
    except Exception as exc:  # either loop may hold an image that cannot compare
        reason = f"comparing images raised {type(exc).__name__} on the replayed and final loops"
        return ValidationReport(False, None, reason)
    if differs:
        return ValidationReport(False, None, "replayed loop differs from recorded final loop")
    for v in cur:
        try:
            ok = adjacent(v, base)
        except Exception as exc:  # the input loop may hold a non-vertex
            reason = f"adjacency oracle raised {type(exc).__name__} on final image {v!r}"
            return ValidationReport(False, None, reason)
        if not ok:
            return ValidationReport(False, None, f"final image {v!r} outside the base star")
    if not start:
        return ValidationReport(False, None, "loop must be nonempty")
    try:
        off_base = bool(start[0] != base)
    except Exception as exc:  # the input loop may hold a non-vertex
        reason = f"comparing images raised {type(exc).__name__} on the first image and the base"
        return ValidationReport(False, None, reason)
    if off_base:
        return ValidationReport(False, None, "loop must start at the base vertex")
    return ValidationReport(True)
