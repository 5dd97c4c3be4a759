"""Words in a finitely generated free group.

A letter is a nonzero integer: ``+(i + 1)`` stands for generator ``i`` and
``-(i + 1)`` for its inverse.  Every constructor freely reduces its input,
so two ``Word`` instances compare equal exactly when they represent the
same element of the free group.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from operator import neg


def reduce_letters(letters: Iterable[int]) -> tuple[int, ...]:
    stack: list[int] = []
    for x in letters:
        if not isinstance(x, int) or isinstance(x, bool) or x == 0:
            raise ValueError(f"invalid letter {x!r}; letters are nonzero integers")
        if stack and stack[-1] == -x:
            stack.pop()
        else:
            stack.append(x)
    return tuple(stack)


class Word:
    """A freely reduced word; immutable and hashable."""

    __slots__ = ("_letters",)

    def __init__(self, letters: Iterable[int] = ()):
        self._letters = reduce_letters(letters)

    @classmethod
    def _from_reduced(cls, letters: tuple[int, ...]) -> "Word":
        # Letters of words that are already valid and freely reduced.
        w = object.__new__(cls)
        w._letters = letters
        return w

    @property
    def raw(self) -> tuple[int, ...]:
        """Signed-integer letters of the reduced word."""
        return self._letters

    def __mul__(self, other: "Word") -> "Word":
        # Both factors are reduced, so cancellation happens only at the junction.
        a, b = self._letters, other._letters
        k, n = 0, min(len(a), len(b))
        while k < n and a[-1 - k] == -b[k]:
            k += 1
        return Word._from_reduced(a[: len(a) - k] + b[k:])

    def __invert__(self) -> "Word":
        return Word._from_reduced(tuple(map(neg, reversed(self._letters))))

    def __pow__(self, n: int) -> "Word":
        if n < 0:
            return (~self) ** (-n)
        return Word(self._letters * n)

    def __len__(self) -> int:
        return len(self._letters)

    def __iter__(self) -> Iterator[int]:
        return iter(self._letters)

    def __bool__(self) -> bool:
        return bool(self._letters)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Word) and self._letters == other._letters

    def __hash__(self) -> int:
        return hash(self._letters)

    def __repr__(self) -> str:
        return f"Word({format_word(self)!r})"

    def exponent_sum(self, gen: int) -> int:
        """Total signed exponent of generator ``gen`` in this word."""
        target = gen + 1
        return sum(1 if x == target else -1 for x in self._letters if abs(x) == target)

    def max_generator(self) -> int:
        """Largest generator index used, or -1 for the empty word."""
        return max(map(abs, self._letters), default=0) - 1


_DEFAULT_NAMES = tuple("abcdefghijklmnopqrstuvwxyz")


def parse_word(text: str, names: Sequence[str]) -> Word:
    """Parse whitespace-separated ``name^exp`` syllables into a word.

    An exponent is an optional ``-`` followed by ASCII digits.  Rejects
    unknown generator names, zero exponents and exponents too large to
    expand into letters.
    """
    index = {name: i for i, name in enumerate(names)}
    letters: list[int] = []
    for token in text.split():
        name, caret, exp_text = token.partition("^")
        if name not in index:
            raise ValueError(f"unknown generator {name!r} in word {text!r}")
        exp = 1
        if caret:
            magnitude = exp_text.removeprefix("-")
            if not (magnitude.isascii() and magnitude.isdigit()):
                raise ValueError(f"bad exponent {exp_text!r} in word {text!r}")
            try:
                exp = int(exp_text)
            except ValueError:  # more digits than int() converts
                raise ValueError(f"exponent of {name!r} too large to expand in word {text!r}") from None
        if exp == 0:
            raise ValueError(f"zero exponent in word {text!r}")
        letter = index[name] + 1
        try:
            letters.extend([letter if exp > 0 else -letter] * abs(exp))
        except (OverflowError, MemoryError):
            raise ValueError(f"exponent of {name!r} too large to expand in word {text!r}") from None
    return Word(letters)


def format_word(w: Word, names: Sequence[str] | None = None) -> str:
    """Render a word in the ``name^exp`` syllable syntax ('' for identity).

    Without ``names``, generators are named a-z, or x0, x1, ... when the
    word uses a generator past z.
    """
    if names is None:
        top = w.max_generator()
        names = _DEFAULT_NAMES if top < len(_DEFAULT_NAMES) else [f"x{i}" for i in range(top + 1)]
    parts = []
    run_letter = 0
    run = 0
    for x in list(w.raw) + [0]:
        if x == run_letter:
            run += 1
            continue
        if run_letter != 0:
            name = names[abs(run_letter) - 1]
            exp = run if run_letter > 0 else -run
            parts.append(name if exp == 1 else f"{name}^{exp}")
        run_letter, run = x, 1
    return " ".join(parts)
