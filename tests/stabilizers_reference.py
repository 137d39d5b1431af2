# Stabilizer elements and embeddings that only the tests use, moved
# verbatim out of goeritz.stabilizers: the generators and identities of
# the pair and triple stabilizers, and the two embeddings of the edge
# stabilizer, which were the methods EdgeStabilizer.in_pair and
# in_triple.  tests/test_stabilizers.py checks the multiplication laws
# with them, and tests/amalgam_reference.py rewrites with in_pair.

from __future__ import annotations

from goeritz.stabilizers import EdgeStabilizer, PairStabilizer, TripleStabilizer


def in_pair(e: EdgeStabilizer) -> PairStabilizer:
    """Embed into the pair stabilizer: g -> g, a -> t."""
    return PairStabilizer(0, e.a, e.g)


def in_triple(e: EdgeStabilizer) -> TripleStabilizer:
    """Embed into the triple stabilizer: g -> g, a -> a."""
    return TripleStabilizer(0, e.g, e.a)


PAIR_IDENTITY = PairStabilizer(0, 0, 0)
PAIR_B = PairStabilizer(1, 0, 0)
PAIR_T = PairStabilizer(0, 1, 0)
PAIR_G = PairStabilizer(0, 0, 1)

TRIPLE_IDENTITY = TripleStabilizer(0, 0, 0)
TRIPLE_D = TripleStabilizer(1, 0, 0)
TRIPLE_G = TripleStabilizer(0, 1, 0)
TRIPLE_A = TripleStabilizer(0, 0, 1)
