"""Differential test: the linear Christoffel descent of
goeritz.words.is_primitive against the greedy Whitehead descent kept in
tests/whitehead_reference.py.

The two share no code, so a disagreement on any word is a defect in one
of them.  The families cover both verdicts: every short word, long
primitive words built by Nielsen moves, the one-long-run words x^n y on
which the Whitehead search is quadratic, words whose runs differ by one
or two, and powers and words with non-coprime exponent sums.
"""

import random
from math import gcd

import whitehead_reference as ref
from goeritz.words import is_primitive, iter_cyclically_reduced

# x <-> y and x -> x^-1, y -> y^-1 are automorphisms, so they keep primitivity
RELABELLINGS = tuple(
    str.maketrans("xXyY", image)
    for image in ("xXyY", "XxyY", "xXYy", "XxYy", "yYxX", "YyxX", "yYXx", "YyXx")
)
RUN_LENGTHS = (*range(1, 21), 31, 64, 127, 300)


def inverse(word):
    return word[::-1].swapcase()


def agree(word):
    expected = ref.is_primitive(word)
    assert is_primitive(word) == expected, word
    return expected


def random_reduced(rng, length):
    return ref._free_reduce("".join(rng.choice("xXyY") for _ in range(length)))


def nielsen_image(rng, steps, signed=False):
    """The image of x under `steps` seeded Nielsen moves
    (u, v) -> (u v or v u, u), with v^-1 for v half the time when
    `signed`, then relabelled and conjugated by a short random word.
    Unsigned, u has exactly F(steps + 2) letters before the conjugation."""
    u, v = "x", "y"
    for _ in range(steps):
        w = inverse(v) if signed and rng.random() < 0.5 else v
        u, v = ref._free_reduce(u + w if rng.random() < 0.5 else w + u), u
    c = random_reduced(rng, rng.randint(0, 5))
    return ref._free_reduce(c + u.translate(rng.choice(RELABELLINGS)) + inverse(c))


def test_agrees_on_every_cyclically_reduced_word_up_to_length_9():
    verdicts = [agree(w) for w in iter_cyclically_reduced(9)]
    assert (len(verdicts), sum(verdicts)) == (29540, 708)


def test_agrees_on_nielsen_images_up_to_1597_letters():
    rng = random.Random(7)
    longest = 0
    for steps in range(1, 16):
        for signed in (False, False, False, True, True, True):
            u = nielsen_image(rng, steps, signed)
            longest = max(longest, len(ref._strip_conjugation(u)))
            assert agree(u)
            # one more letter may or may not keep it primitive
            agree(ref._free_reduce(u + rng.choice("xXyY")))
    assert longest == 1597


def test_agrees_on_one_long_run_with_sign_and_letter_swaps():
    for n in RUN_LENGTHS:
        for table in RELABELLINGS:
            assert agree(("x" * n + "y").translate(table))
            assert agree(("y" + "x" * n).translate(table))
            assert agree(("x" * n + "y" + "x" * (n + 1) + "y").translate(table))
            assert not agree(("x" * n + "y" + "x" * (n + 2) + "y").translate(table))
            assert agree(("x" * n + "yy").translate(table)) == (n == 1)


def test_agrees_on_runs_that_differ_by_one_or_two():
    rng = random.Random(8)
    verdicts = []
    for _ in range(300):
        n, k = rng.randint(1, 6), rng.randint(2, 12)
        spread = rng.choice((1, 1, 2))
        runs = [n + rng.randint(0, spread) for _ in range(k)]
        word = "".join("y" + "x" * e for e in runs)
        verdicts.append(agree(word.translate(rng.choice(RELABELLINGS))))
    assert 0 < sum(verdicts) < len(verdicts)


def test_agrees_on_powers_and_non_coprime_exponent_sums():
    rng = random.Random(9)
    for _ in range(200):
        base = nielsen_image(rng, rng.randint(1, 9)) if rng.random() < 0.5 else (
            random_reduced(rng, rng.randint(1, 12))
        )
        for k in (2, 3):
            if ref._strip_conjugation(base):
                assert not agree(ref._free_reduce(base * k))
        word = random_reduced(rng, rng.randint(1, 30))
        a = word.count("x") - word.count("X")
        b = word.count("y") - word.count("Y")
        if gcd(a, b) != 1:
            assert not agree(word)
