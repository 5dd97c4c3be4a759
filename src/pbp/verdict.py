"""Verdict values shared by the deciders and the rules engine, and their
strict reading of integers in JSON input."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class Answer(str, Enum):
    YES = "YES"
    NO = "NO"
    UNKNOWN = "UNKNOWN"
    NOT_APPLICABLE = "NOT_APPLICABLE"


FG_QUALIFIER = "not by a product of finitely generated groups"


class InternalVerificationError(Exception):
    """A certificate or internal re-check failed; never expected on valid input."""


@dataclass(frozen=True)
class TraceEntry:
    rule: str
    cite: str

    def to_json(self) -> dict:
        return {"rule": self.rule, "cite": self.cite}


@dataclass(frozen=True)
class Verdict:
    """Answer plus its justification.

    A YES carries a checkable certificate or a positively concluding rule;
    a NO always carries at least one citation.  The optional qualifier
    records the weaker negative 'not by a product of finitely generated
    groups', which can coexist with an unqualified YES.
    """

    answer: Answer
    qualifier: str | None = None
    certificate: dict | None = None
    trace: tuple[TraceEntry, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "trace", tuple(self.trace))
        if self.answer == Answer.YES and self.certificate is None and not self.trace:
            raise ValueError("YES requires a certificate or a concluding rule")
        if self.answer == Answer.NO and not self.trace:
            raise ValueError("NO requires at least one citation")

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
