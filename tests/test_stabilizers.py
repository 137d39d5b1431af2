"""Finite normal forms for the two vertex stabilizers and the edge group.

Each multiplication law is checked against an independent faithful
model.  The pair side embeds into GL_2 over Laurent polynomials in v:
the infinite-order generator goes to diag(v, -v), the swap involution to
the permutation matrix, and the central involution to -I.  These are
monomial matrices with entries +-v^k, held exactly on plain ints.  The
triple side embeds into S_3 x Z/2 as (permutation, bit) pairs.  Both
models are exact, so agreement on products pins the laws completely.
Inverses are found by search among the elements, since the classes keep
no inverse of their own.
"""

import random
import re
from fractions import Fraction

import pytest

from goeritz.stabilizers import (
    EDGE_A,
    EDGE_ELEMENTS,
    EDGE_G,
    EDGE_GA,
    EDGE_IDENTITY,
    TRIPLE_ELEMENTS,
    EdgeStabilizer,
    PairStabilizer,
    TripleStabilizer,
)
from stabilizers_reference import (
    PAIR_B,
    PAIR_G,
    PAIR_IDENTITY,
    PAIR_T,
    TRIPLE_A,
    TRIPLE_D,
    TRIPLE_G,
    TRIPLE_IDENTITY,
    in_pair,
    in_triple,
)

# A 2x2 monomial matrix is (s, ((c0, k0), (c1, k1))): row i holds its one
# nonzero entry c_i * v^k_i in column i ^ s, with c_i = +-1.
MAT_I = (0, ((1, 0), (1, 0)))
MAT_B = (0, ((1, 1), (-1, 1)))
MAT_G = (1, ((1, 0), (1, 0)))
MAT_T = (0, ((-1, 0), (-1, 0)))


def mat_mul(x, y):
    # (xy)[i, i^sx^sy] = x[i, i^sx] * y[i^sx, i^sx^sy]
    (sx, rx), (sy, ry) = x, y
    return (sx ^ sy, tuple(
        (c * ry[i ^ sx][0], k + ry[i ^ sx][1]) for i, (c, k) in enumerate(rx)
    ))


def mat_pow(x, n):
    if n < 0:  # the inverse moves row i's entry, inverted, to row i ^ s
        s, rows = x
        x, n = (s, tuple((rows[i ^ s][0], -rows[i ^ s][1]) for i in range(2))), -n
    out = MAT_I
    for _ in range(n):
        out = mat_mul(out, x)
    return out


def mat_at(x, v):
    """The ordinary 2x2 matrix at a value of v."""
    s, rows = x
    out = [[0, 0], [0, 0]]
    for i, (c, k) in enumerate(rows):
        out[i][i ^ s] = c * v**k
    return out


def pair_matrix(e):
    """Faithful image of b^k t^t g^g."""
    return mat_mul(mat_mul(mat_pow(MAT_B, e.k), mat_pow(MAT_T, e.t)), mat_pow(MAT_G, e.g))


def random_pair(rng):
    return PairStabilizer(rng.randint(-8, 8), rng.randint(0, 1), rng.randint(0, 1))


def the_inverse(x, candidates, identity):
    """The one candidate y with x y = 1, checked to give y x = 1 too."""
    found = [y for y in candidates if x * y == identity]
    assert len(found) == 1, (x, found)
    assert found[0] * x == identity
    return found[0]


def test_monomial_model_multiplies_like_matrices():
    rng = random.Random(4)
    v = Fraction(3, 2)
    for _ in range(100):
        x, y = pair_matrix(random_pair(rng)), pair_matrix(random_pair(rng))
        ax, ay = mat_at(x, v), mat_at(y, v)
        product = [[sum(ax[i][m] * ay[m][j] for m in range(2)) for j in range(2)]
                   for i in range(2)]
        assert mat_at(mat_mul(x, y), v) == product
        assert mat_mul(x, mat_pow(x, -1)) == MAT_I


def test_pair_matrix_model_respects_relations():
    # t is the commutator of the other two generators and is central
    comm = mat_mul(mat_mul(mat_mul(pair_matrix(PAIR_B), pair_matrix(PAIR_G)),
                           mat_pow(pair_matrix(PAIR_B), -1)),
                   mat_pow(pair_matrix(PAIR_G), -1))
    assert comm == pair_matrix(PAIR_T)
    assert mat_pow(pair_matrix(PAIR_G), 2) == MAT_I
    assert mat_pow(pair_matrix(PAIR_T), 2) == MAT_I


def test_pair_multiplication_matches_matrices():
    rng = random.Random(0)
    for _ in range(400):
        x, y = random_pair(rng), random_pair(rng)
        product = x * y
        assert pair_matrix(product) == mat_mul(pair_matrix(x), pair_matrix(y))


def test_pair_matrix_model_is_faithful_on_small_box():
    seen = {}
    for k in range(-3, 4):
        for t in range(2):
            for g in range(2):
                key = pair_matrix(PairStabilizer(k, t, g))
                assert key not in seen
                seen[key] = (k, t, g)


def test_pair_inverses():
    # x y = 1 forces y = b^-k t^e g^g, so the box |k'| <= |k| + 1 holds it
    rng = random.Random(1)
    for _ in range(200):
        x = random_pair(rng)
        box = [PairStabilizer(k, t, g) for k in range(-abs(x.k) - 1, abs(x.k) + 2)
               for t in range(2) for g in range(2)]
        assert the_inverse(x, box, PAIR_IDENTITY).k == -x.k


def test_pair_associativity_random():
    rng = random.Random(2)
    for _ in range(300):
        x, y, z = (random_pair(rng) for _ in range(3))
        assert (x * y) * z == x * (y * z)


def test_pair_t_is_central_and_g_conjugates_b():
    assert PAIR_T * PAIR_B == PAIR_B * PAIR_T
    assert PAIR_T * PAIR_G == PAIR_G * PAIR_T
    # g b g = b t: the swap flips the sign block
    assert PAIR_G * PAIR_B * PAIR_G == PAIR_B * PAIR_T


def test_pair_decompose():
    rng = random.Random(3)
    for _ in range(100):
        x = random_pair(rng)
        k, tail = x.decompose()
        assert PairStabilizer(k, 0, 0) * in_pair(tail) == x


# --- triple side -----------------------------------------------------------

ROTATION = (1, 2, 0)
SWAP = (0, 2, 1)
IDENT = (0, 1, 2)


def compose(p, q):
    return tuple(p[q[i]] for i in range(3))


def perm_power(p, n):
    out = IDENT
    for _ in range(n % 3):
        out = compose(out, p)
    return out


def triple_perm(e):
    """Faithful image of d^d g^g a^a in S_3 x Z/2."""
    perm = perm_power(ROTATION, e.d)
    if e.g:
        perm = compose(perm, SWAP)
    return (perm, e.a)


def test_triple_perm_model_respects_relations():
    assert perm_power(ROTATION, 3) == IDENT
    assert compose(SWAP, SWAP) == IDENT
    gd = compose(SWAP, ROTATION)
    assert compose(gd, gd) == IDENT


def test_triple_enumeration_is_the_full_group():
    elements = TRIPLE_ELEMENTS
    assert len(elements) == 12
    assert len(set(elements)) == 12
    images = {triple_perm(e) for e in elements}
    assert len(images) == 12


def test_triple_multiplication_matches_permutations_exhaustively():
    elements = TRIPLE_ELEMENTS
    for x in elements:
        for y in elements:
            px, bx = triple_perm(x)
            py, by = triple_perm(y)
            expected = (compose(px, py), (bx + by) % 2)
            assert triple_perm(x * y) == expected


def test_triple_associativity_exhaustively():
    elements = TRIPLE_ELEMENTS
    for x in elements:
        for y in elements:
            for z in elements:
                assert (x * y) * z == x * (y * z)


def test_triple_inverses_and_involutions():
    for x in TRIPLE_ELEMENTS:
        the_inverse(x, TRIPLE_ELEMENTS, TRIPLE_IDENTITY)
        if x.g == 1:
            assert x * x == TRIPLE_IDENTITY  # reflections are involutions
    assert TRIPLE_D * TRIPLE_D * TRIPLE_D == TRIPLE_IDENTITY
    assert (TRIPLE_G * TRIPLE_D) * (TRIPLE_G * TRIPLE_D) == TRIPLE_IDENTITY


def test_triple_a_is_central():
    for x in TRIPLE_ELEMENTS:
        assert x * TRIPLE_A == TRIPLE_A * x


def test_triple_decompose():
    for x in TRIPLE_ELEMENTS:
        d, tail = x.decompose()
        assert TripleStabilizer(d, 0, 0) * in_triple(tail) == x


# --- edge group ------------------------------------------------------------


def test_edge_group_is_klein_four():
    elements = EDGE_ELEMENTS
    assert len(elements) == 4
    for x in elements:
        assert x * x == EDGE_IDENTITY
        assert the_inverse(x, elements, EDGE_IDENTITY) == x
        for y in elements:
            assert x * y == y * x
    assert EDGE_G * EDGE_A == EDGE_GA


def test_edge_embeddings_are_homomorphisms():
    for x in EDGE_ELEMENTS:
        for y in EDGE_ELEMENTS:
            assert in_pair(x * y) == in_pair(x) * in_pair(y)
            assert in_triple(x * y) == in_triple(x) * in_triple(y)


def test_edge_embeddings_are_injective_and_send_a_to_t():
    pair_images = {in_pair(x) for x in EDGE_ELEMENTS}
    triple_images = {in_triple(x) for x in EDGE_ELEMENTS}
    assert len(pair_images) == len(triple_images) == 4
    assert in_pair(EDGE_A) == PAIR_T
    assert in_pair(EDGE_G) == PAIR_G
    assert in_triple(EDGE_A) == TRIPLE_A
    assert in_triple(EDGE_G) == TRIPLE_G


def test_validation_rejects_bad_fields():
    # each message shows the bad field: they read "got t", "got a", "got 1"
    # and "got gg" when they printed the element as a word
    for make, message in [
        (lambda: PairStabilizer(0, 2, 0),
         "pair stabilizer bits must be 0/1, got PairStabilizer(k=0, t=2, g=0)"),
        (lambda: TripleStabilizer(0, 0, 2),
         "triple stabilizer bits must be 0/1, got TripleStabilizer(d=0, g=0, a=2)"),
        (lambda: TripleStabilizer(3, 0, 0),
         "d power must be 0..2, got TripleStabilizer(d=3, g=0, a=0)"),
        (lambda: EdgeStabilizer(0, -1),
         "edge stabilizer bits must be 0/1, got EdgeStabilizer(g=0, a=-1)"),
        (lambda: EdgeStabilizer(2, 0),
         "edge stabilizer bits must be 0/1, got EdgeStabilizer(g=2, a=0)"),
    ]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make()
