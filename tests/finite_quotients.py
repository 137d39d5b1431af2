"""Permutation images of generator words in the frozen finite quotients.

tests/quotients.json holds the coset tables of every subgroup of index
at most 6 (written by tests/gen_quotients.py).  The image of a word is
where it sends each coset, table by table.  It is computed letter by
letter from the tables alone, so it shares no code with the normal
form: words for the same element have the same image, and words with
different images are different elements.
"""

import json
from pathlib import Path

from goeritz.amalgam import parse


def _inverse(perm: list[int]) -> list[int]:
    out = [0] * len(perm)
    for i, j in enumerate(perm):
        out[j] = i
    return out


def _load() -> list[dict[str, list[int]]]:
    data = json.loads((Path(__file__).resolve().parent / "quotients.json").read_text())
    tables = []
    for table in data["tables"]:
        letters = dict(table)
        letters["B"] = _inverse(table["b"])
        letters["D"] = _inverse(table["d"])
        tables.append(letters)
    return tables


TABLES = _load()


def image(word: str) -> tuple[tuple[int, ...], ...]:
    """The coset each coset is sent to by the word, in every table."""
    letters = parse(word)
    out = []
    for table in TABLES:
        cosets = list(range(len(table["b"])))
        for ch in letters:
            perm = table[ch]
            cosets = [perm[c] for c in cosets]
        out.append(tuple(cosets))
    return tuple(out)
