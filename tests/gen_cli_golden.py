"""Generate tests/cli_golden.json: exit codes and output digests of the CLI.

    python tests/gen_cli_golden.py

Every case runs through goeritz.cli.main in-process, with the working
directory set to tests/ (so file arguments and the paths that error
messages quote are short and fixed) and COLUMNS pinned (argparse wraps
usage and help text to the terminal width).  The fixture records, per
argv, the exit code and the sha256 of stdout and of stderr;
tests/test_cli_golden.py replays the argv under the same conditions
and compares.  CLI output is meant to stay byte-identical for a fixed
(argv, seed), so the script never re-baselines: it reads the fixture
first, and if any recorded argv would now give a different record it
lists those argv, writes nothing and exits 1.  Otherwise it appends the
records of the argv not yet in the fixture.  To rebuild the fixture
from scratch, delete the file first, on a commit whose output is known
good, and say why in the change.  The usage and help texts
come from argparse, which words them slightly differently across
Python versions; the fixture was frozen under 3.11.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from goeritz.cli import main as cli_main  # noqa: E402

FIXTURE = HERE / "cli_golden.json"
COMPLEX = "cli_golden_complex.json"  # relative to tests/
WORD_LETTERS = "bBgdDat"
# relators inserted into the eq words (a is an involution, so [a,b] = abaB)
RELATORS = ("gg", "ddd", "gdgd", "aa", "abaB", "adaD")
EQ_PINNED = (
    ("g", ""), ("a", ""), ("b", "B"), ("d", "D"), ("ddd", "d"),
    ("bd", "db"),
    ("gdg", "D"), ("gbg", "tb"), ("gdgd", ""),
    ("bx", "q"), ("b", "q"),
)


def _words(seed: int, count: int) -> list[str]:
    rng = random.Random(seed)
    return [
        "".join(rng.choice(WORD_LETTERS) for _ in range(rng.randint(0, 40)))
        for _ in range(count)
    ]


def _cases() -> list[list[str]]:
    cases = [
        # README examples
        ["nf", "bd"],
        ["eq", "gg", ""],
        ["verify-presentation"],
        ["stabilizers"],
        ["tree", "--radius", "1", "--max-power", "2"],
        ["quotient"],
        ["primitive", "xyX"],
        ["primitive", "xxyy"],
        ["simplicial", "flag", COMPLEX],
        ["farey", "--verify-axioms", "--n", "6", "--samples", "50"],
        ["contract", "--seed", "3", "--max-denominator", "12"],
    ]
    words = _words(0, 30)
    others = _words(1, 30)
    rng = random.Random(2)
    for i, word in enumerate(words):
        if i % 2:
            right = others[i]
        else:
            cut = rng.randint(0, len(word))
            right = word[:cut] + rng.choice(RELATORS) + word[cut:]
        for json_flag in ([], ["--json"]):
            cases.append(["nf", *json_flag, word])
            cases.append(["eq", *json_flag, word, right])
    for radius, max_power in ((1, 2), (3, 2), (4, 3)):
        for command in ("tree", "quotient"):
            argv = [command, "--radius", str(radius), "--max-power", str(max_power)]
            cases.append(argv)
            cases.append(argv + ["--json"])
    cases.append(["quotient", "--radius", "2", "--witnesses", "5"])
    cases.append(["stabilizers", "--json"])
    cases.append(["verify-presentation", "--consequences", "50", "--seed", "4", "--json"])
    for n in ("6", "16"):
        for window in (["0", "1"], ["-2", "3"]):
            argv = ["farey", "--n", n, "--window", *window]
            cases.append(argv)
            cases.append(argv + ["--verify-axioms", "--samples", "200", "--seed", "3"])
            cases.append(argv + ["--verify-axioms", "--json"])
    for seed in range(10):
        cases.append(["contract", "--seed", str(seed)])
    cases.append(["contract", "--seed", "5", "--max-denominator", "20", "--json"])
    cases.append(["contract", "--seed", "3", "--fuel", "1"])
    for word in ("xy", "xyXY", "x", "", "xX", "xxyxy", "xyxYY", "xyXY"):
        cases.append(["primitive", word])
    cases.append(["primitive", "--json", "xyxYY"])
    for action in ("flag", "barycentric", "remove-stars"):
        cases.append(["simplicial", action, COMPLEX])
    # usage errors (exit 2) and help (exit 0)
    cases += [
        ["nf", "not a word"],
        ["eq", "bd"],
        ["primitive", "xz"],
        ["tree", "--radius", "0"],
        ["tree", "--radius", "x"],
        ["quotient", "--witnesses", "0"],
        ["contract", "--fuel", "-5"],
        ["farey", "--window", "1", "0"],
        ["farey", "--n", "0"],
        ["simplicial", "flag", "no-such-complex.json"],
        ["simplicial", "shrink", COMPLEX],
        ["no-such-command"],
        [],
        ["--help"],
        ["nf", "--help"],
    ]
    # failure paths in JSON mode: fuel runs out (exit 1), usage error (exit 2)
    cases.append(["contract", "--seed", "3", "--fuel", "1", "--json"])
    cases.append(["tree", "--radius", "0", "--json"])
    # eq pairs that differ in one invariant of the normal form (the g bit,
    # the a bit, the b-power sum, the d-power sum mod 3), unequal with the
    # same invariants, equal only through the g pass, and bad words
    for left, right in EQ_PINNED:
        for json_flag in ([], ["--json"]):
            cases.append(["eq", *json_flag, left, right])
    return cases


@contextlib.contextmanager
def pinned_environment():
    """The working directory, terminal width and environment of every case."""
    cwd, saved = os.getcwd(), dict(os.environ)
    os.chdir(HERE)
    os.environ["COLUMNS"] = "80"
    try:
        yield
    finally:
        os.chdir(cwd)
        os.environ.clear()
        os.environ.update(saved)


def run(argv: list[str]) -> dict:
    """Run one argv through the CLI; call inside pinned_environment()."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(list(argv))
    return {
        "argv": list(argv),
        "exit": code,
        "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
        "stderr_sha256": hashlib.sha256(err.getvalue().encode()).hexdigest(),
    }


def main() -> int:
    old = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else []
    recorded = {tuple(record["argv"]): record for record in old}
    with pinned_environment():
        records = [run(argv) for argv in _cases()]
    changed = [r["argv"] for r in records if recorded.get(tuple(r["argv"]), r) != r]
    if changed:
        print(f"{len(changed)} recorded cases would change; {FIXTURE} left as it is:",
              file=sys.stderr)
        for argv in changed:
            print(f"  {argv}", file=sys.stderr)
        return 1
    new = [r for r in records if tuple(r["argv"]) not in recorded]
    FIXTURE.write_text(json.dumps(old + new, indent=1) + "\n")
    print(f"{len(new)} CLI cases added to {FIXTURE}, {len(old) + len(new)} in all")
    return 0


if __name__ == "__main__":
    sys.exit(main())
