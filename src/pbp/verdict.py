"""Verdict values shared by the deciders and the rules engine, and their
strict reading of integers in JSON input."""

from __future__ import annotations

from enum import Enum


class Answer(str, Enum):
    YES = "YES"
    NO = "NO"
    UNKNOWN = "UNKNOWN"
    NOT_APPLICABLE = "NOT_APPLICABLE"


FG_QUALIFIER = "not by a product of finitely generated groups"


class InternalVerificationError(Exception):
    """A certificate or internal re-check failed; never expected on valid input."""


class Record:
    """An immutable record whose fields are the names in ``__slots__``.

    Equality within one type, hashing, the ``Name(field=value, ...)`` repr
    and pickling read the fields; ``_fields`` may leave a derived slot out.
    Assigning or deleting an attribute raises AttributeError, so each
    subclass's ``__init__`` sets its slots with ``_set``, or with one
    ``object.__setattr__`` per slot where a verdict builds many records of
    the class: ``_set`` costs about twice as much.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = cls.__dict__.get("_fields", cls.__slots__)

    def _set(self, *values) -> None:
        """Set the slots, in their order, to ``values``."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class TraceEntry(Record):
    __slots__ = ("rule", "cite")

    def __init__(self, rule: str, cite: str):
        object.__setattr__(self, "rule", rule)
        object.__setattr__(self, "cite", cite)

    def to_json(self) -> dict:
        return {"rule": self.rule, "cite": self.cite}


class Verdict(Record):
    """Answer plus its justification.

    A YES carries a checkable certificate or a positively concluding rule;
    a NO always carries at least one citation.  The optional qualifier
    records the weaker negative 'not by a product of finitely generated
    groups', which can coexist with an unqualified YES.
    """

    __slots__ = ("answer", "qualifier", "certificate", "trace")

    def __init__(self, answer: Answer, qualifier: str | None = None, certificate: dict | None = None,
                 trace: tuple[TraceEntry, ...] = ()):
        trace = tuple(trace)
        if answer == Answer.YES and certificate is None and not trace:
            raise ValueError("YES requires a certificate or a concluding rule")
        if answer == Answer.NO and not trace:
            raise ValueError("NO requires at least one citation")
        object.__setattr__(self, "answer", answer)
        object.__setattr__(self, "qualifier", qualifier)
        object.__setattr__(self, "certificate", certificate)
        object.__setattr__(self, "trace", trace)

    def with_prefix(self, entry: TraceEntry) -> "Verdict":
        return Verdict(self.answer, self.qualifier, self.certificate, (entry,) + self.trace)

    def to_json(self) -> dict:
        return {
            "answer": self.answer.value,
            "qualifier": self.qualifier,
            "certificate": self.certificate,
            "trace": [t.to_json() for t in self.trace],
        }


def json_int(value, what: str) -> int:
    """``value`` as ``int`` reads it, refusing bools, strings and non-integral floats.

    Every refusal is a ValueError naming ``what``, so the CLI reports it as
    invalid input.
    """
    if isinstance(value, (bool, str)) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{what} must be an integer, not {value!r}")
    try:
        return int(value)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{what} must be an integer, not {value!r}") from exc
