"""Exact algebra of words over the turn alphabet {L, R}.

A word denotes the product of the generator matrices

    L = [[1, 1], [0, 1]]        R = [[1, 0], [1, 1]]

taken in reading order; the empty word is the identity.  Every such product
is a determinant-1 integer matrix with non-negative entries, and conversely
every such matrix factors uniquely over the two generators, which is what
``word_of_matrix`` exploits.

Two words are equivalent when one is a cyclic rotation of the other or of
its ``star`` (read backwards with L and R interchanged).  Rotation is a
trace-preserving conjugation and ``star`` is transposition, so the trace,
and hence the hyperbolic length 2*arccosh(trace/2), is well defined on
equivalence classes; ``canonical`` names each class by its least member.

All trace decisions are made on exact integers; floating point enters only
in ``geodesic_length``, which is presentation-layer by design.  Everything
here is pure and safe to call concurrently.
"""

from __future__ import annotations

import math
from collections import namedtuple

__all__ = [
    "UniMat",
    "check_word",
    "matrix_of",
    "trace_of",
    "geodesic_length",
    "star",
    "canonical",
    "least_rotation",
    "MAX_WORD_LETTERS",
    "word_of_matrix",
    "is_letter_power",
]

_STAR = str.maketrans("LR", "RL")
_DROP_LR = str.maketrans("", "", "LR")

# Longest word ``word_of_matrix`` will spell.  The factorization peels one
# letter per step, so a matrix such as 1,10**12,0,1 would otherwise spend
# its memory or its hours on a single word; above the cap it raises
# ValueError instead.
MAX_WORD_LETTERS = 10**6


def check_word(word: str) -> None:
    """Reject anything that is not a string over the letters L and R.  The
    test is one ``translate`` that deletes both letters; only a refused word
    is walked, for the position of its first other letter."""
    if not isinstance(word, str):
        raise ValueError(f"word must be a string, got {type(word).__name__}")
    if word.translate(_DROP_LR):
        i, ch = next((i, ch) for i, ch in enumerate(word) if ch != "L" and ch != "R")
        raise ValueError(f"invalid letter {ch!r} at position {i}: words use only L and R")


class UniMat(namedtuple("UniMat", "a b c d")):
    """Determinant-1 integer matrix with non-negative entries.

    Entries are exact Python integers of unbounded magnitude, so traces of
    very long words never overflow or wrap.
    """

    __slots__ = ()

    def __new__(cls, a: int, b: int, c: int, d: int) -> "UniMat":
        for name, v in (("a", a), ("b", b), ("c", c), ("d", d)):
            if not isinstance(v, int) or isinstance(v, bool):
                raise ValueError(f"matrix entry {name}={v!r} is not an integer")
            if v < 0:
                raise ValueError(f"matrix entry {name}={v} is negative")
        if a * d - b * c != 1:
            raise ValueError(f"matrix {(a, b, c, d)} does not have determinant 1")
        return tuple.__new__(cls, (a, b, c, d))

    @classmethod
    def _make(cls, iterable) -> "UniMat":
        # ``_replace`` builds through ``_make``, which would skip the checks
        return cls(*iterable)

    @staticmethod
    def parse(text: str) -> "UniMat":
        """Parse the external "a,b,c,d" row-major comma list."""
        parts = text.split(",")
        if len(parts) != 4:
            raise ValueError(f"expected 4 comma-separated entries, got {len(parts)}")
        try:
            a, b, c, d = (int(p.strip()) for p in parts)
        except ValueError:
            raise ValueError(f"matrix entries must be integers: {text!r}") from None
        return UniMat(a, b, c, d)


def _product(word: str) -> tuple[int, int, int, int]:
    """Entries (a, b, c, d) of the generator product along ``word``."""
    check_word(word)
    a, b, c, d = 1, 0, 0, 1
    for ch in word:
        if ch == "L":
            a, b, c, d = a, a + b, c, c + d
        else:
            a, b, c, d = a + b, b, c + d, d
    return a, b, c, d


def matrix_of(word: str) -> UniMat:
    """Product of the generator matrices along ``word``; empty gives identity."""
    return UniMat(*_product(word))


def trace_of(word: str) -> int:
    """Trace of matrix_of(word), computed without building the matrix object."""
    a, _, _, d = _product(word)
    return a + d


def geodesic_length(trace: int) -> float:
    """Hyperbolic length 2*arccosh(trace/2) of the geodesic with this trace.

    Traces come in as exact integers; the returned float is for reporting
    only and never feeds back into a comparison.
    """
    # an int that is not a bool, as ``ribbon._is_int``, checked inline since
    # the recover command loads no module of the package but cli and this one
    if not isinstance(trace, int) or isinstance(trace, bool):
        raise ValueError(f"trace {trace!r} is not an integer")
    if trace < 2:
        raise ValueError(f"trace {trace} is below 2; no geodesic length is defined")
    if trace == 2:
        return 0.0
    if trace > 2**53:
        # 2*arccosh(t/2) = 2*ln(t) up to an error below double resolution here.
        return 2.0 * math.log(trace)
    return 2.0 * math.acosh(trace / 2.0)


def star(word: str) -> str:
    """Reverse the word and interchange L and R (matrix transposition)."""
    check_word(word)
    return word[::-1].translate(_STAR)


def least_rotation(seq, mirror):
    """Least cyclic rotation of ``seq`` or of ``mirror``, a sequence of the
    same length; works on strings and tuples alike, and an empty ``seq`` is
    its own least rotation."""
    return min((s[i:] + s[:i] for s in (seq, mirror) for i in range(len(s))), default=seq)


def canonical(word: str) -> str:
    """Lexicographically least member (L < R) of the word's equivalence class:
    the least rotation of the word or of its star; the empty word gives "".

    Constant on equivalence classes, so it doubles as a class identifier.
    """
    return least_rotation(word, star(word))


def is_letter_power(word: str) -> bool:
    """True iff the word is equivalent to a power of L (all letters equal).

    The class of L^m is exactly {L^m, R^m}; the empty word is L^0.
    """
    check_word(word)
    return len(set(word)) <= 1


def word_of_matrix(mat: UniMat) -> str:
    """Unique word whose matrix is ``mat``.

    Peels generators from the left: while the trace exceeds 2, exactly one
    of L^-1 * M and R^-1 * M stays non-negative, which picks the next
    letter; the trace-2 remainder is a pure power of L or of R, of b + c
    letters.  A word longer than ``MAX_WORD_LETTERS`` raises ValueError.
    """
    if not isinstance(mat, UniMat):
        raise ValueError(f"expected a UniMat, got {type(mat).__name__}")
    a, b, c, d = mat
    out: list[str] = []
    # peeling stops one letter past the cap, so the check below raises
    while a + d > 2 and len(out) <= MAX_WORD_LETTERS:
        if a > c and b >= d:
            out.append("L")
            a, b = a - c, b - d
        else:
            # determinant 1 and a + d > 2 leave only c >= a and d > b
            out.append("R")
            c, d = c - a, d - b
    if len(out) + b + c > MAX_WORD_LETTERS:
        raise ValueError(f"the matrix factors into more than {MAX_WORD_LETTERS} letters")
    if c == 0:
        out.append("L" * b)
    else:
        out.append("R" * c)
    return "".join(out)
