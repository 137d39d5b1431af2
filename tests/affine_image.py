"""An image of the group in the integer affine maps of the plane.

Each map is a 3x3 integer matrix acting on (x, y, 1):

    b  the translation by (1, 1)
    g  the swap (x, y) -> (y, x)
    d  the linear map (x, y) -> (-y, x - y), of order 3

a = bgBg maps to the identity, since g turns the translation by
(-1, -1) into itself, so the six defining relators hold and words for
the same element have the same image; words with different images are
different elements.  Here b has infinite order, where every coset table
in tests/quotients.json sends b^60 to 1, so this image tells apart
words that all those tables miss.  It imports nothing from goeritz.
"""

Matrix = tuple[tuple[int, int, int], tuple[int, int, int], tuple[int, int, int]]

IDENTITY: Matrix = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
_LETTERS: dict[str, Matrix] = {
    "b": ((1, 0, 1), (0, 1, 1), (0, 0, 1)),
    "B": ((1, 0, -1), (0, 1, -1), (0, 0, 1)),
    "g": ((0, 1, 0), (1, 0, 0), (0, 0, 1)),
    "d": ((0, -1, 0), (1, -1, 0), (0, 0, 1)),
    "D": ((-1, 1, 0), (-1, 0, 0), (0, 0, 1)),
}
_MACRO = "bgBg"  # a and t


def _mul(m: Matrix, n: Matrix) -> Matrix:
    # the product of two affine matrices, whose last rows are (0, 0, 1)
    (a, b, e), (c, d, f), _ = m
    (p, q, s), (r, t, u), _ = n
    return ((a * p + b * r, a * q + b * t, a * s + b * u + e),
            (c * p + d * r, c * q + d * t, c * s + d * u + f),
            (0, 0, 1))


def rho(word: str) -> Matrix:
    """The affine map of a generator word, read left to right as a product."""
    out = IDENTITY
    for ch in word:
        if ch in "at":
            for letter in _MACRO:
                out = _mul(out, _LETTERS[letter])
        elif ch in _LETTERS:
            out = _mul(out, _LETTERS[ch])
        else:
            raise ValueError(f"invalid character {ch!r}")
    return out
