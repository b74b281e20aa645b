"""``repro.analysis`` — orionlint: static invariant checks + race sanitizer.

The MapReduce layer's correctness rests on invariants the runtime cannot
enforce (picklable module-level task callables, no shared-state mutation,
deterministic iteration, honest measurements). This package checks them two
ways:

* **orionlint** (``python -m repro.analysis [paths...]``) — an AST rule
  engine with per-rule findings, ``# orionlint: disable=RULE`` suppressions
  and text/JSON reporters. Rules ORL001–ORL007 each map to one invariant;
  see DESIGN.md.
* **SanitizerExecutor** — a drop-in executor that runs the job with
  state-fingerprint checks between tasks, catching cross-task shared-state
  mutation the AST rules cannot see (``--sanitize`` on the CLI).
"""

from repro.analysis.engine import (
    PARSE_RULE_ID,
    Rule,
    analyze_paths,
    analyze_source,
    select_rules,
)
from repro.analysis.findings import Finding, Severity, active
from repro.analysis.reporter import (
    render_json,
    render_text,
)
from repro.analysis.rules import default_rules
from repro.analysis.sanitizer import (
    SanitizerExecutor,
    SharedStateMutation,
    SharedStateMutationError,
)

__all__ = [
    "Finding",
    "PARSE_RULE_ID",
    "Rule",
    "SanitizerExecutor",
    "Severity",
    "SharedStateMutation",
    "SharedStateMutationError",
    "active",
    "analyze_paths",
    "analyze_source",
    "default_rules",
    "render_json",
    "render_text",
    "select_rules",
]
