"""Word constructors that only the tests use.

``pbp.words.Word`` reduces its letters freely when it is built, so
``free_reduce`` is ``Word`` applied to a raw letter sequence, and
``generator(i)`` is the one-letter word of generator i.
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
