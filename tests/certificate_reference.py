# The certificate JSON code that goeritz.contract.HomotopyCertificate used
# before to_json laid out its own text and from_json_dict decoded each
# distinct string once, kept unchanged as a differential oracle for
# tests/test_certificate_json.py.
"""Reference encoder and decoder for contraction certificates.

to_json is the former one-line HomotopyCertificate.to_json: json.dumps
with indent=2, which runs json's pure-Python encoder.  from_json_dict is
the former classmethod body as a function: it calls decode on every
vertex field separately, however often a string repeats.
"""

from __future__ import annotations

import json
from typing import Callable

from goeritz.contract import HomotopyCertificate, Relabel, Subdivide


def to_json(cert: HomotopyCertificate) -> str:
    return json.dumps(cert.to_json_dict(), indent=2)


def from_json_dict(data: dict, decode: Callable = lambda s: s) -> HomotopyCertificate:
    moves: list = []
    try:
        for m in data["moves"]:
            if m["type"] == "relabel":
                moves.append(Relabel(m["pos"], decode(m["old"]), decode(m["new"])))
            elif m["type"] == "subdivide":
                moves.append(Subdivide(m["pos"], decode(m["insert"])))
            else:
                raise ValueError(f"unknown move type {m['type']!r}")
        return HomotopyCertificate(moves, [decode(v) for v in data["final"]])
    except KeyError as exc:
        raise ValueError(f"certificate is missing the field {exc}") from None
    except TypeError as exc:
        raise ValueError(f"malformed certificate: {exc}") from None
