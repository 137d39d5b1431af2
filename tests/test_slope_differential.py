"""Differential test: the Stern-Brocot build and verify_axioms of
goeritz.farey and the incremental contract_loop of goeritz.contract
against the former pair-scanning and recompute-every-move versions kept
in tests/slope_reference.py.

The reference shares the oracles (adjacent, remoteness, blocking) and
the blocking checker with the package, not the simplex enumeration or
the loop bookkeeping, so any disagreement on a simplex, a certificate,
an exception text or an axiom report is a defect in one of them.  build
is also compared with a brute-force |ps - qr| = 1 pair scan written
here.
"""

from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import slope_reference as ref
from goeritz import contract, farey
from goeritz.simplicial import Complex
from test_contract import (
    PENTAGON_EDGES,
    PENTAGON_LOOP,
    PENTAGON_R,
    PENTAGON_VERTICES,
    pent_adjacent,
    pent_blocking,
    pent_remoteness,
)

ORACLES = (farey.adjacent, farey.remoteness, farey.blocking)


def _outcome(contract_loop, loop, remoteness=farey.remoteness, fuel=contract.DEFAULT_FUEL):
    """The certificate JSON, or the exception type and text."""
    try:
        cert = contract_loop(farey.adjacent, remoteness, farey.blocking, loop, farey.BASE, fuel)
    except (contract.OracleContractViolation, contract.FuelExhausted, ValueError) as exc:
        return type(exc).__name__, str(exc)
    return cert.to_json()


def test_criterion_7_certificates_match_reference():
    for seed in range(100):
        loop = farey.random_based_loop(seed, max_denominator=50)
        new = _outcome(contract.contract_loop, loop)
        assert isinstance(new, str), (seed, new)
        assert new == _outcome(ref.contract_loop, loop), seed


@given(
    st.lists(st.integers(0, 2**30), min_size=1, max_size=4),
    st.integers(2, 60),
    st.integers(1, 12),
    st.one_of(st.none(), st.integers(1, 300)),
)
@settings(max_examples=60, deadline=None)
def test_segment_loops_match_reference(seeds, max_denominator, steps, fuel):
    loop = []
    for seed in seeds:
        loop += farey.random_based_loop(seed, max_denominator, steps, steps)
    fuel = contract.DEFAULT_FUEL if fuel is None else fuel
    assert _outcome(contract.contract_loop, loop, fuel=fuel) == _outcome(
        ref.contract_loop, loop, fuel=fuel
    )


def _brute_force_build(n, window):
    lo, hi = Fraction(window[0]), Fraction(window[1])
    verts = [farey.INFINITY] + [
        farey.Slope(p, q)
        for q in range(1, n + 1)
        for p in range(int(lo * q) - 1, int(hi * q) + 2)
        if gcd(abs(p), q) == 1 and lo <= Fraction(p, q) <= hi
    ]
    edges = [
        (u, w) for u, w in combinations(verts, 2) if abs(u.p * w.q - u.q * w.p) == 1
    ]
    near = {u: set() for u in verts}
    for u, w in edges:
        near[u].add(w)
        near[w].add(u)
    triangles = [(u, w, z) for u, w in edges for z in near[u] & near[w]]
    return Complex([(u,) for u in verts] + edges + triangles)


WINDOWS = [(0, 1), (-2, 3), (1, 1), (0, 0), (-5, -3), (-1, 0), (2, 3), (-3, -2)]


@pytest.mark.parametrize("window", WINDOWS)
def test_build_matches_reference_and_pair_scan(window):
    for n in range(1, 25):
        complex_ = farey.build(n, window)
        assert complex_.simplices() == ref.build(n, window).simplices(), n
        if n in (1, 2, 3, 7, 12, 24):
            assert complex_ == _brute_force_build(n, window), n


# farey.build reads a bound by as_integer_ratio, the reference by Fraction:
# both are exact, so 0.1 excludes 1/10 and 0.7 excludes 7/10, where float
# products (0.1 * 10 == 1.0) would let them in
@pytest.mark.parametrize("window", [
    (Fraction(1, 3), Fraction(5, 2)), (0.1, 0.7), (-2.5, Fraction(-1, 3)), (2 / 7, Fraction(2, 7)),
])
def test_fraction_and_float_windows_match_reference(window):
    for n in range(1, 25):
        assert farey.build(n, window).simplices() == ref.build(n, window).simplices(), n


@pytest.mark.parametrize("window", [(1, 0), (3, 2), (-3, -4), (Fraction(1, 2), 0.25), (Fraction(2, 7), 2 / 7)])
def test_reversed_windows_raise_like_reference(window):
    with pytest.raises(ValueError) as new:
        farey.build(5, window)
    with pytest.raises(ValueError) as old:
        ref.build(5, window)
    assert str(new.value) == str(old.value)


@pytest.mark.parametrize("n, samples, seed", [(1, 50, 0), (2, 100, 3), (6, 200, 1), (16, 300, 7), (24, 200, 11)])
def test_verify_axioms_matches_reference(n, samples, seed):
    assert farey.verify_axioms(n, samples, seed) == ref.verify_axioms(n, samples, seed)


# The pentagon with "1c" moved out of the base star and a second
# remoteness-0 vertex "z" that leads it home: the subdivision now inserts
# an image outside the base star, which the engine must contract too.
OFF_STAR_EDGES = PENTAGON_EDGES - {frozenset(("0", "1c"))} | {
    frozenset(("z", u)) for u in ("0", "1b", "1c", "1d")
}
OFF_STAR_R = dict(PENTAGON_R, z=0)


def off_star_adjacent(u, w):
    return u == w or frozenset((u, w)) in OFF_STAR_EDGES


def off_star_blocking(x_members, v):
    r, adj = OFF_STAR_R, off_star_adjacent
    for w in PENTAGON_VERTICES + ["z"]:
        if r[w] < r[v] and adj(w, v) and all(adj(u, w) for u in x_members):
            return 0, w
    vp = max(x_members, key=r.get)
    for wp in PENTAGON_VERTICES + ["z"]:
        if r[wp] < r[vp] and adj(wp, v) and all(adj(u, wp) for u in x_members if adj(u, vp)):
            return sum(r[u] for u in x_members), (vp, wp)
    raise AssertionError("no witness")


def test_subdivision_outside_the_base_star_is_contracted():
    oracles = (off_star_adjacent, OFF_STAR_R.get, off_star_blocking)
    cert = contract.contract_loop(*oracles, PENTAGON_LOOP, "0")
    assert cert.moves[0] == contract.Subdivide(3, "1c")
    assert not off_star_adjacent("1c", "0")
    assert contract.validate(off_star_adjacent, cert, PENTAGON_LOOP, "0").ok
    assert cert == ref.contract_loop(*oracles, PENTAGON_LOOP, "0")


# --- lying remoteness on a vertex that enters the loop by a move ------------
#
# The engine checks an image once, when it enters the loop, so a vertex
# that is only ever inserted by a relabel or a subdivision must still be
# caught, with the same message as the reference.


def _first_inserted_relabel_witness(loop):
    cert = contract.contract_loop(*ORACLES, loop, farey.BASE)
    for move in cert.moves:
        if move.new not in loop and not farey.adjacent(move.new, farey.BASE):
            return move.new
    return None


@pytest.mark.parametrize("lie", [0, -1])
def test_lying_remoteness_on_a_relabel_witness_is_caught(lie):
    loop = farey.random_based_loop(16, max_denominator=50)
    target = _first_inserted_relabel_witness(loop)
    assert target == farey.Slope(61, 22)
    lying = lambda u: lie if u == target else u.q  # noqa: E731
    outcome = _outcome(contract.contract_loop, loop, remoteness=lying)
    assert outcome[0] == "OracleContractViolation"
    assert repr(target) in outcome[1]
    assert outcome == _outcome(ref.contract_loop, loop, remoteness=lying)


# On the pentagon fixture honest blocking subdivides at "2" and inserts
# "1c" between "2" and "2p"; the lie fires the first time "1c" is offered.


@pytest.mark.parametrize("lie", [-1, 0])
def test_lying_remoteness_on_a_subdivision_is_caught(lie):
    honest = contract.contract_loop(pent_adjacent, pent_remoteness, pent_blocking,
                                    PENTAGON_LOOP, "0")
    assert contract.Subdivide(3, "1c") in honest.moves
    assert "1c" not in PENTAGON_LOOP
    # "1c" lies in the base star, so remoteness 0 is off the star only
    # once the engine is shown the complex without the edge 0 - 1c
    cut = frozenset(("0", "1c")) if lie == 0 else None
    adjacent = lambda u, w: frozenset((u, w)) != cut and pent_adjacent(u, w)  # noqa: E731
    lying = lambda u: lie if u == "1c" else pent_remoteness(u)  # noqa: E731
    messages = []
    for contract_loop in (contract.contract_loop, ref.contract_loop):
        with pytest.raises(contract.OracleContractViolation) as err:
            contract_loop(adjacent, lying, pent_blocking, PENTAGON_LOOP, "0")
        messages.append(str(err.value))
    assert "'1c'" in messages[0]
    assert messages[0] == messages[1]


# --- the level queue --------------------------------------------------------
#
# The engine keeps the maximal remoteness n, the count of positions at n
# and the lowest of them (front), and moves front when a subdivision is
# inserted at or before it.  These loops make the engine insert on both
# sides of front, with front = 0, and across many positions of one level.


def _finite_fixture(edges, r, order):
    """Reflexive adjacency, remoteness and an honest first-found
    blocking oracle for a finite complex."""
    edges = {frozenset(e) for e in edges}

    def adjacent(u, w):
        return u == w or frozenset((u, w)) in edges

    def blocking(x_members, v):
        for w in order:
            if r[w] < r[v] and adjacent(w, v) and all(adjacent(u, w) for u in x_members):
                return 0, w
        vp = max(x_members, key=r.get)
        for wp in order:
            if r[wp] < r[vp] and adjacent(wp, v) and all(
                adjacent(u, wp) for u in x_members if adjacent(u, vp)
            ):
                return sum(r[u] for u in x_members), (vp, wp)
        raise AssertionError("no witness")

    return adjacent, r.get, blocking


# With "2" raised to 3, the pentagon loop subdivides to the right of the
# active "2" and its mirror image to the left of it.
RAISED_R = dict(PENTAGON_R, **{"2": 3})
PENTAGON = (pent_adjacent, pent_remoteness, pent_blocking)
RAISED = _finite_fixture(PENTAGON_EDGES, RAISED_R, PENTAGON_VERTICES)
MIRROR_LOOP = ["0", "1b", "2p", "2", "1a"]


def _both(oracles, loop, base="0"):
    """The package certificate, checked against the reference and validate."""
    cert = contract.contract_loop(*oracles, loop, base)
    assert cert == ref.contract_loop(*oracles, loop, base)
    assert contract.validate(oracles[0], cert, loop, base).ok
    return cert


def test_level_queue_inserts_right_of_front():
    # front is "2" at 2; "1c" goes in at 3, so front stays at 2
    cert = _both(RAISED, PENTAGON_LOOP)
    assert cert.moves[:2] == (contract.Subdivide(3, "1c"), contract.Relabel(2, "2", "1d"))


def test_level_queue_inserts_left_of_front():
    # front is "2" at 3; "1c" goes in at 3, so front moves to 4
    cert = _both(RAISED, MIRROR_LOOP)
    assert cert.moves[:2] == (contract.Subdivide(3, "1c"), contract.Relabel(4, "2", "1d"))


def test_level_queue_inserts_left_when_both_neighbours_offend():
    # front is "2" at 3 with "2p" on both sides; the contract allows a
    # b > 0 answer there, and the lower index, the left side, takes "1c"
    adjacent, remoteness, blocking = RAISED

    def both_sides(x_members, v):
        if x_members == ("2p", "2p"):
            return 4, ("2p", "1c")
        return blocking(x_members, v)

    cert = _both((adjacent, remoteness, both_sides), ["0", "1c", "2p", "2", "2p", "1c"])
    assert cert.moves[:2] == (contract.Subdivide(3, "1c"), contract.Relabel(4, "2", "1c"))


def test_level_queue_appends_when_front_is_zero():
    # the base "B" itself has the top remoteness, so front is 0; the
    # offending neighbour "L" is on its left, so "W" is appended at the
    # end of the loop, and the relabel that follows is still at 0
    edges = [("B", "R"), ("R", "X"), ("X", "L"), ("L", "B"), ("B", "W"), ("W", "L"),
             ("W", "X"), ("B", "U"), ("U", "W"), ("U", "R"), ("V", "B"), ("V", "U"),
             ("V", "W"), ("V", "R"), ("V", "X")]
    r = {"B": 2, "R": 1, "X": 1, "L": 1, "U": 1, "V": 0, "W": 0}
    oracles = _finite_fixture(edges, r, ["U", "V", "W", "L", "R", "X", "B"])
    cert = _both(oracles, ["B", "R", "X", "L"], "B")
    assert cert.moves == (
        contract.Subdivide(4, "W"),
        contract.Relabel(0, "B", "U"),
        contract.Relabel(0, "U", "V"),
        contract.Relabel(1, "R", "V"),
        contract.Relabel(2, "X", "W"),
    )


@given(
    st.lists(st.booleans(), min_size=1, max_size=40),
    st.sampled_from([PENTAGON, RAISED]),
    st.one_of(st.none(), st.integers(1, 120)),
)
@settings(max_examples=80, deadline=None)
def test_subdivision_heavy_pentagon_loops_match_reference(mirrored, oracles, fuel):
    # concatenated pentagon loops in either direction: many positions at
    # the top level, and insertions on both sides of front as it advances
    loop = [u for flip in mirrored for u in (MIRROR_LOOP if flip else PENTAGON_LOOP)]
    outcomes = []
    for contract_loop in (contract.contract_loop, ref.contract_loop):
        try:
            outcomes.append(contract_loop(*oracles, loop, "0", fuel or contract.DEFAULT_FUEL))
        except contract.FuelExhausted as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]
    if oracles is RAISED and fuel is None:
        assert sum(isinstance(m, contract.Subdivide) for m in outcomes[0].moves) == len(mirrored)


def _repeat_raises(honest, target, by):
    """A remoteness oracle that answers `by` higher on every call at
    `target` after the first one."""
    seen = []

    def remoteness(u):
        if u == target:
            seen.append(u)
            return honest(u) + (by if len(seen) > 1 else 0)
        return honest(u)

    return remoteness


def test_impure_remoteness_on_a_relabel_witness_raises_like_reference():
    loop = farey.random_based_loop(16, max_denominator=50)
    target = _first_inserted_relabel_witness(loop)
    messages = []
    for contract_loop in (contract.contract_loop, ref.contract_loop):
        impure = _repeat_raises(farey.remoteness, target, 1000)
        with pytest.raises(contract.OracleContractViolation) as err:
            contract_loop(farey.adjacent, impure, farey.blocking, loop, farey.BASE)
        messages.append(str(err.value))
    assert messages[0].startswith("progress measure did not decrease: (")
    assert messages[0].endswith(f"-> ({target.q + 1000}, 1, 0)")
    assert messages[0] == messages[1]


def test_impure_remoteness_on_a_subdivision_raises_like_reference():
    adjacent, _, blocking = PENTAGON
    messages = []
    for contract_loop in (contract.contract_loop, ref.contract_loop):
        impure = _repeat_raises(pent_remoteness, "1c", 4)
        with pytest.raises(contract.OracleContractViolation) as err:
            contract_loop(adjacent, impure, blocking, PENTAGON_LOOP, "0")
        messages.append(str(err.value))
    assert messages[0].startswith("progress measure did not decrease: (2, 2, 3) -> (5, 1, ")
    assert messages[0] == messages[1]
