"""Size ladder for the coset tree: `tree.ball`, `tree.is_tree`,
`tree.to_dot` and `tree.quotient` time against ball size.

    python benchmarks/tree.py [--out BENCH_tree.json] [--parent PARENT.json]

Each op has two rows.  The first has the balls (radius, 2) for radius
3 to 8: 72, 200, 584, 1,608, 4,680 and 12,872 vertices, about 2.8x per
rung, n being the ball's vertex count.  The second has the balls
(radius, 3) for radius 4 to 7, the max_power of the large balls of
perfbench's short_words workload: 418, 1,570, 5,026 and 18,850
vertices, about 3.5x per rung.  A record's counters name its radius and
max_power.  is_tree, to_dot and quotient run on a ball built outside
the timing.  Each rung is timed as the minimum of three repeats; the
untimed probe counts the calls of `amalgam.check_syllables` (the one
syllable check, run by every `NormalForm`, which looks it up in
goeritz.amalgam) by wrapping it there.  The rows for layer "tree" time
the package in src/.  Timer, record format and `--parent` are those of
benchmarks/ladder.py.
"""

from __future__ import annotations

import ladder  # first: it puts src/ and tests/ on sys.path
from goeritz import amalgam, tree

BALL_LADDERS = (  # (radius, max_power), one ladder per row
    tuple((radius, 2) for radius in range(3, 9)),
    tuple((radius, 3) for radius in range(4, 8)),
)
REPEATS = 3
OPS = {
    "ball": lambda b: tree.ball(b.radius, b.max_power),
    "is_tree": tree.is_tree,
    "to_dot": tree.to_dot,
    "quotient": tree.quotient,
}


def _balls(ladder):
    for radius, max_power in ladder:
        b = tree.ball(radius, max_power)
        yield len(b.vertices), b


def _probe(run):
    def counters(b) -> dict:
        calls = 0
        check = amalgam.check_syllables

        def counted(rep):
            nonlocal calls
            calls += 1
            return check(rep)

        amalgam.check_syllables = counted
        try:
            run(b)
        finally:
            amalgam.check_syllables = check
        return {"radius": b.radius, "max_power": b.max_power,
                "vertices": len(b.vertices), "edges": len(b.edges), "check_syllables": calls}
    return counters


def _rows():
    return [("tree", op, _balls(ladder), run, _probe(run))
            for op, run in OPS.items() for ladder in BALL_LADDERS]


if __name__ == "__main__":
    ladder.main(__doc__, "BENCH_tree.json", REPEATS, _rows())
