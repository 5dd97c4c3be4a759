"""Word constructors that only the tests use.

``pbp.words.Word`` reduces its letters freely when it is built, so
``free_reduce`` is ``Word`` applied to a raw letter sequence, and
``generator(i)`` is the one-letter word of generator i.
``exponent_sum(w, gen)`` is the total signed exponent of a generator.
"""

from typing import Iterable

from pbp.words import Word


def generator(i: int) -> Word:
    """The word of generator ``i`` (letter i + 1); ValueError when i < 0."""
    if i < 0:
        raise ValueError("generator index must be nonnegative")
    return Word((i + 1,))


def free_reduce(w: "Word | Iterable[int]") -> Word:
    """Freely reduce a word or a raw letter sequence; idempotent."""
    return w if isinstance(w, Word) else Word(w)


def exponent_sum(w: Word, gen: int) -> int:
    """Total signed exponent of generator ``gen`` in ``w``."""
    target = gen + 1
    return sum(1 if x == target else -1 for x in w.raw if abs(x) == target)
