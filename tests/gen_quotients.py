"""Generate tests/quotients.json: finite permutation quotients of the group.

    python tests/gen_quotients.py

Sympy's low-index subgroup search (the Sims method, Todd-Coxeter coset
enumeration) runs on the presentation <b, g, d | DEFAULT_RELATORS> and
finds every subgroup of index at most MAX_INDEX.  The group acts on the
cosets of each by right multiplication; the fixture records, for every
subgroup, where each generator sends each coset.  A word then has one
permutation image per table, computed without the normal form, so the
images are a witness independent of goeritz.amalgam: equal elements
have equal images everywhere, and two elements with different images in
some table are distinct.

The search takes several seconds, which is why the tables are frozen in
a fixture instead of being recomputed by the test suite.
"""

import json
import sys
from pathlib import Path

from sympy.combinatorics.fp_groups import FpGroup, low_index_subgroups
from sympy.combinatorics.free_groups import free_group

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from goeritz.amalgam import DEFAULT_RELATORS  # noqa: E402

MAX_INDEX = 6
FIXTURE = HERE / "quotients.json"


def main() -> None:
    free, b, g, d = free_group("b g d")
    letters = {"b": b, "B": b**-1, "g": g, "d": d, "D": d**-1}
    relators = []
    for _, word in DEFAULT_RELATORS:
        element = free.identity
        for ch in word:
            element = element * letters[ch]
        relators.append(element)
    group = FpGroup(free, relators)
    tables = []
    for coset_table in low_index_subgroups(group, MAX_INDEX):
        coset_table.compress()
        coset_table.standardize()
        columns = {x: coset_table.A.index(x) for x in (b, g, d)}
        tables.append({
            name: [row[columns[x]] for row in coset_table.table]
            for name, x in (("b", b), ("g", g), ("d", d))
        })
    tables.sort(key=lambda t: (len(t["b"]), t["b"], t["g"], t["d"]))
    payload = {
        "presentation": "<b, g, d | " + ", ".join(w for _, w in DEFAULT_RELATORS) + ">",
        "max_index": MAX_INDEX,
        "tables": tables,
    }
    FIXTURE.write_text(json.dumps(payload, separators=(",", ":")) + "\n")
    print(f"{len(tables)} coset tables of index <= {MAX_INDEX} written to {FIXTURE}")


if __name__ == "__main__":
    main()
