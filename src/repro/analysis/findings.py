"""Finding model for orionlint: what a rule reports and how it serializes.

A :class:`Finding` is one violation of one rule at one source location. The
JSON rendering round-trips losslessly (property-tested), so CI logs can be
post-processed and diffed across commits.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Dict, List, Sequence


class Severity(enum.Enum):
    """How bad a finding is.

    ``ERROR`` findings break the MapReduce invariants outright (unpicklable
    task callables, bare excepts); ``WARNING`` findings are invariant hazards
    that a human may legitimately waive with a suppression comment.
    """

    WARNING = "warning"
    ERROR = "error"


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location.

    Ordered by (path, line, col, rule) so reports are stable regardless of
    the order rules ran in.
    """

    path: str
    line: int
    col: int
    rule: str
    severity: Severity
    message: str
    suppressed: bool = False

    def __post_init__(self) -> None:
        if self.line < 1:
            raise ValueError(f"line must be >= 1, got {self.line}")
        if self.col < 0:
            raise ValueError(f"col must be >= 0, got {self.col}")
        if not self.rule:
            raise ValueError("rule id must be non-empty")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "severity": self.severity.value,
            "message": self.message,
            "suppressed": self.suppressed,
        }


def active(findings: Sequence[Finding]) -> List[Finding]:
    """The findings that count against the exit code (not suppressed)."""
    return [f for f in findings if not f.suppressed]
