"""Acceptance gate: one test per criterion, each printing a PASS line
with the measured quantities when it succeeds.

Criteria with a time budget measure wall-clock time and fail when the
budget is exceeded.  Randomized criteria use fixed seeds so the gate is
reproducible run to run.
"""

import random
import time
from math import gcd

import whitehead_reference
from finite_quotients import TABLES, image
from goeritz import contract, farey, tree
from goeritz.amalgam import (
    inv_nf,
    mul_nf,
    normal_form,
    parse,
    random_consequence,
    random_word,
    verify_presentation,
)
from goeritz.simplicial import Complex, remove_open_stars
from goeritz.stabilizers import EDGE_ELEMENTS, TRIPLE_ELEMENTS
from goeritz.words import (
    cyclic_reduce,
    iter_cyclically_reduced,
    mixed_sign_criterion,
)


def test_criterion_01_presentation_verification():
    t0 = time.monotonic()
    report = verify_presentation(consequences=1000, max_len=200, seed=0)
    elapsed = time.monotonic() - t0
    assert len(report.relator_results) == 6
    assert all(ok for _, ok in report.relator_results), report.relator_results
    assert report.consequences_checked == 1000
    assert report.consequence_failures == [], report.consequence_failures
    assert elapsed < 5.0, f"time budget exceeded: {elapsed:.2f}s"
    print(
        f"[criterion 1] PASS: 6 relators + 1000 consequences trivial "
        f"in {elapsed:.2f}s (< 5s)"
    )


def test_criterion_02_soundness_and_separation():
    rng = random.Random(42)
    for _ in range(1000):
        w = random_word(rng, rng.randint(0, 20))
        cut = rng.randint(0, len(w))
        padded = w[:cut] + random_consequence(rng, max_len=80) + w[cut:]
        assert normal_form(w) == normal_form(padded), (w, padded)
        assert image(w) == image(padded), (w, padded)
    distinct = 0
    while distinct < 1000:
        u = random_word(rng, rng.randint(0, 14))
        v = random_word(rng, rng.randint(0, 14))
        if normal_form(u) != normal_form(v):
            # some finite quotient must tell the two elements apart
            assert image(u) != image(v), (u, v)
            distinct += 1
    print(
        "[criterion 2] PASS: 1000 relator-padded pairs agree (normal forms "
        f"and {len(TABLES)} finite quotients), 1000 distinct-normal-form "
        "pairs separate in a finite quotient"
    )


def test_criterion_03_balls_are_trees():
    t0 = time.monotonic()
    for radius in range(1, 7):
        for max_power in range(1, 4):
            b = tree.ball(radius, max_power)
            assert tree.is_tree(b), (radius, max_power)
            assert len(b.edges) == len(b.vertices) - 1
    small = tree.ball(1, 2)
    assert len(small.vertices) == 8, len(small.vertices)
    assert len(small.edges) == 7, len(small.edges)
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"time budget exceeded: {elapsed:.2f}s"
    print(
        f"[criterion 3] PASS: 18 balls are trees, ball(1,2) = 8V/7E, "
        f"in {elapsed:.2f}s (< 10s)"
    )


def test_criterion_04_quotient_is_a_single_edge():
    report = tree.quotient(tree.ball(3, 2), witness_samples=20)
    assert len(report.vertices) == 2, report.vertices
    assert len(report.edges) == 1, report.edges
    assert len(report.witnesses) == 20
    assert all(good for _, _, good in report.witnesses), report.witnesses
    print("[criterion 4] PASS: quotient of ball(3,2) = 2 vertices, 1 edge, 20 witnesses")


def test_criterion_05_stabilizer_enumerations():
    triples = TRIPLE_ELEMENTS
    edges = EDGE_ELEMENTS
    assert len(triples) == 12 and len(set(triples)) == 12
    assert len(edges) == 4 and len(set(edges)) == 4
    base_t = (tree.TRIPLE, ())
    base_p = (tree.PAIR, ())
    base_e = ()
    for e in triples:
        word = parse("d" * e.d + "g" * e.g + "a" * e.a)
        assert tree.act(word, base_t) == base_t, e
    assert tree.act("b", base_p) == base_p
    assert tree.act("g", base_p) == base_p
    assert tree.act(parse("t"), base_p) == base_p
    assert tree.act("d", base_p) != base_p
    for e in edges:
        word = parse("g" * e.g + "a" * e.a)
        assert tree.act_edge(word, base_e) == base_e, e
    print(
        "[criterion 5] PASS: 12 triple-vertex elements fix the triple base, "
        "b and g fix the pair base, d moves it, 4 edge elements fix the edge"
    )


def _mixed_signs(word):
    """Both x and x^-1, or both y and y^-1, occur in the word."""
    return ("x" in word and "X" in word) or ("y" in word and "Y" in word)


def test_criterion_06_mixed_sign_implies_whitehead_non_primitive():
    t0 = time.monotonic()
    total = certified = 0
    cache = {}
    for w in iter_cyclically_reduced(12):
        total += 1
        if _mixed_signs(w):
            certified += 1
            key = cyclic_reduce(w)
            verdict = cache.get(key)
            if verdict is None:
                # goeritz.words.is_primitive rejects mixed signs before
                # anything else, so only the Whitehead oracle can refute this
                verdict = cache[key] = whitehead_reference.is_primitive(w)
            assert not verdict, f"counterexample: {w}"
    # the fast test must agree with the public certificate; check all
    # short words and a random sample of long ones
    rng = random.Random(6)
    sample = list(iter_cyclically_reduced(6))
    for _ in range(2000):
        n = rng.randint(7, 12)
        while True:
            w = "".join("xXyY"[rng.randrange(4)] for _ in range(n))
            if all(b != a.swapcase() for a, b in zip(w, w[1:])) and (
                w[-1] != w[0].swapcase()
            ):
                break
        sample.append(w)
    for w in sample:
        assert _mixed_signs(w) == mixed_sign_criterion(w), w
    elapsed = time.monotonic() - t0
    assert total == 797184, total
    assert elapsed < 60.0, f"time budget exceeded: {elapsed:.2f}s"
    print(
        f"[criterion 6] PASS: {certified} certified words among {total} "
        f"(length <= 12), zero primitives among them, in {elapsed:.1f}s (< 60s)"
    )


def test_criterion_07_contraction_engine_on_100_seeded_loops():
    t0 = time.monotonic()
    total_moves = 0
    for seed in range(100):
        loop = farey.random_based_loop(seed, max_denominator=50)
        assert max(farey.remoteness(v) for v in loop) <= 50
        certificate = contract.contract_loop(
            farey.adjacent, farey.remoteness, farey.blocking, loop, farey.BASE
        )
        report = contract.validate(farey.adjacent, certificate, loop, farey.BASE)
        assert report.ok, (seed, report.reason)
        total_moves += len(certificate.moves)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"time budget exceeded: {elapsed:.2f}s"
    print(
        f"[criterion 7] PASS: 100 seeded loops contracted ({total_moves} moves, "
        f"progress asserted every step) and validated in {elapsed:.2f}s (< 60s)"
    )


def test_criterion_08_blocking_axioms():
    report = farey.verify_axioms(n=10, samples=500, seed=0)
    assert report.samples == 500
    assert report.ok, "violations reported verbatim: " + "; ".join(report.violations)
    print("[criterion 8] PASS: verify_axioms(n=10, samples=500) reports 0 violations")


def test_criterion_09_star_removal_cone_identity():
    triangle = Complex([("a", "b", "c")])
    pared = remove_open_stars(triangle.barycentric(), triangle.vertices())
    center = ("a", "b", "c")
    expected = Complex(
        [(("a", "b"), center), (("a", "c"), center), (("b", "c"), center)]
    )
    assert pared == expected, pared.maximal_simplices()
    slope_complex = farey.build(8)
    extracted = remove_open_stars(
        slope_complex.barycentric(), slope_complex.vertices()
    )
    assert extracted.dim() == 1
    assert extracted.is_acyclic_graph()
    print(
        "[criterion 9] PASS: pared triangle subdivision is the 3-leaf star; "
        "pared build(8) subdivision is an acyclic graph"
    )


def test_criterion_10_truncated_complexes_are_flag():
    for n in range(1, 31):
        assert farey.build(n).is_flag(), n
    print("[criterion 10] PASS: build(n) is flag for every n <= 30")


def test_criterion_11_word_problem_is_linear_time():
    # 48k letters: the former right-to-left rewriter needed over 300 s
    # on the alternating word, so only a linear-time rewriter meets this
    rng = random.Random(11)
    letters = 48_000
    t0 = time.monotonic()
    for word in ("bdg" * (letters // 3), random_word(rng, letters)):
        u = normal_form(word)
        assert mul_nf(u, inv_nf(u)).is_identity()
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, f"time budget exceeded: {elapsed:.2f}s"
    print(
        f"[criterion 11] PASS: normal form, inverse and product of a {letters}-letter "
        f"(bdg)^k word and a {letters}-letter random word in {elapsed:.2f}s (< 5s)"
    )


def test_criterion_12_slope_fixture_is_linear_work():
    # the former pair scans took about 21 s for build(128) with its axioms,
    # and the former engine 2.8 s for this loop (2-vCPU Xeon, Python 3.11)
    t0 = time.monotonic()
    complex_ = farey.build(128)
    report = farey.verify_axioms(128, 200, 0)
    farey_elapsed = time.monotonic() - t0
    assert report.ok, report.violations[:5]
    assert len(complex_.vertices()) == 1 + sum(
        1 for q in range(1, 129) for p in range(q + 1) if gcd(p, q) == 1
    )
    assert farey_elapsed < 5.0, f"time budget exceeded: {farey_elapsed:.2f}s"
    rng = random.Random(12)
    loop = []
    while len(loop) < 1600:
        loop += farey.random_based_loop(rng.randrange(1 << 30), 50, 47, 47)
    t0 = time.monotonic()
    certificate = contract.contract_loop(
        farey.adjacent, farey.remoteness, farey.blocking, loop, farey.BASE
    )
    loop_elapsed = time.monotonic() - t0
    assert contract.validate(farey.adjacent, certificate, loop, farey.BASE).ok
    assert loop_elapsed < 2.0, f"time budget exceeded: {loop_elapsed:.2f}s"
    print(
        f"[criterion 12] PASS: build(128) and verify_axioms(128, 200) in "
        f"{farey_elapsed:.2f}s (< 5s); {len(loop)}-position loop contracted "
        f"({len(certificate.moves)} moves) in {loop_elapsed:.2f}s (< 2s)"
    )


def test_criterion_13_contraction_engine_keeps_a_level_queue():
    # the engine that rescanned max, count and index on every move took
    # 7.3 s for this loop, the level queue about 0.3 s (2-vCPU Xeon,
    # Python 3.11)
    rng = random.Random(13)
    loop = []
    while len(loop) < 6400:
        loop += farey.random_based_loop(rng.randrange(1 << 30), 50, 47, 47)
    t0 = time.monotonic()
    certificate = contract.contract_loop(
        farey.adjacent, farey.remoteness, farey.blocking, loop, farey.BASE
    )
    loop_elapsed = time.monotonic() - t0
    assert contract.validate(farey.adjacent, certificate, loop, farey.BASE).ok
    assert loop_elapsed < 2.0, f"time budget exceeded: {loop_elapsed:.2f}s"
    print(
        f"[criterion 13] PASS: {len(loop)}-position loop contracted "
        f"({len(certificate.moves)} moves) and validated; contraction "
        f"took {loop_elapsed:.2f}s (< 2s)"
    )


def test_criterion_14_canonical_rotation_is_linear_time():
    # the min scan over all n rotations took about 1.9, 1.9 and 1.4 s on
    # these words, the two-candidate search 0.01, 0.01 and 0.05 s (2-vCPU
    # Xeon, Python 3.11)
    rng = random.Random(14)
    letters = ["x"]
    while len(letters) < 200000:
        ch = rng.choice("xXyY")
        # freely and cyclically reduced: no inverse neighbours, and the
        # last letter is never X, the inverse of the first
        if ch != letters[-1].swapcase() and (len(letters) < 199999 or ch != "X"):
            letters.append(ch)
    random_word = "".join(letters)
    order = str.maketrans("xXyY", "abcd")
    timings = []
    for name, word, expected in (
        ("x^200000 y", "x" * 200000 + "y", "x" * 200000 + "y"),
        ("(xy)^100000", "xy" * 100000, "xy" * 100000),
        ("random", random_word, None),
    ):
        t0 = time.monotonic()
        result = cyclic_reduce(word)
        elapsed = time.monotonic() - t0
        if expected is None:
            # a rotation of the word, and no greater than 100 sampled ones
            assert len(result) == len(word) and result in word + word
            key, doubled = result.translate(order), (word + word).translate(order)
            for turn in rng.sample(range(len(word)), 100):
                assert key <= doubled[turn : turn + len(word)], turn
        else:
            assert result == expected
        assert elapsed < 1.0, f"{name}: time budget exceeded: {elapsed:.2f}s"
        timings.append(f"{name} {elapsed:.3f}s")
    print(
        f"[criterion 14] PASS: cyclic_reduce on 200,001 and 200,000-letter "
        f"words: {', '.join(timings)} (each < 1s)"
    )
