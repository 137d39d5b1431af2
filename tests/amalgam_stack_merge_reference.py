# The syllable-merging loop of goeritz.amalgam._merge from before it held
# the last syllable in a local: every factor of the side of the top of
# the stack popped it and appended the merged syllable back.  Kept
# verbatim with its tables as a differential oracle for
# tests/test_amalgam_loop_differential.py, and as the "before" core of
# the merge rows of benchmarks/normal_form.py.  It shares nothing with
# the package: the syllable tables are its own copies.
"""The former stack loop of _merge."""

from __future__ import annotations

from typing import Iterable

# shared syllables: every triple syllable, and the pair syllables a merge
# most often makes; a syllable of each letter is one of them
_PAIR = {k: ("P", k) for k in range(-32, 33) if k}
_TRIPLE = (None, ("Q", 1), ("Q", 2))


def _merge(factors: Iterable[tuple[str, int]], syllables: list) -> tuple[tuple[str, int], ...]:
    """The alternating syllables of a product of factors, left to right,
    merged onto the stack ``syllables``, a list that alternates and is consumed.

    Every factor must be reduced, ("P", k) with k != 0 or ("Q", m) with
    m in {1, 2}: a factor ("Q", 3) or ("P", 0) would be kept as a
    syllable.  A factor that merges with nothing is kept as is.
    """
    for factor in factors:
        if syllables and syllables[-1][0] == factor[0]:
            # it merges with the last syllable, which vanishes if the
            # power becomes trivial
            side, k = syllables.pop()
            k += factor[1]
            if side == "Q":
                k %= 3
                if k:
                    syllables.append(_TRIPLE[k])
            elif k:
                syllables.append(_PAIR.get(k) or ("P", k))
        else:
            syllables.append(factor)
    return tuple(syllables)
