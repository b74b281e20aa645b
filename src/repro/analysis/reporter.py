"""Render orionlint findings as text or JSON.

The JSON format is versioned and round-trips losslessly (property-tested
against a decoder in the tests), so CI output can be stored and diffed
across commits.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Dict, List, Sequence

from repro.analysis.findings import Finding, active

JSON_FORMAT_VERSION = 1


def render_text(findings: Sequence[Finding], show_suppressed: bool = False) -> str:
    """GCC-style ``path:line:col: RULE severity: message`` lines + summary."""
    lines: List[str] = []
    shown = [f for f in findings if show_suppressed or not f.suppressed]
    for f in shown:
        marker = " (suppressed)" if f.suppressed else ""
        lines.append(
            f"{f.path}:{f.line}:{f.col}: {f.rule} "
            f"{f.severity.value}: {f.message}{marker}"
        )
    live = active(findings)
    counts = Counter(f.rule for f in live)
    suppressed = len(findings) - len(live)
    if live:
        per_rule = ", ".join(f"{rule}×{n}" for rule, n in sorted(counts.items()))
        lines.append(
            f"orionlint: {len(live)} finding(s) [{per_rule}]"
            + (f", {suppressed} suppressed" if suppressed else "")
        )
    else:
        lines.append(
            "orionlint: clean"
            + (f" ({suppressed} suppressed finding(s))" if suppressed else "")
        )
    return "\n".join(lines)


def render_json(findings: Sequence[Finding]) -> str:
    """Versioned JSON document with findings and per-rule counts."""
    live = active(findings)
    counts: Dict[str, int] = dict(
        sorted(Counter(f.rule for f in live).items())
    )
    doc = {
        "version": JSON_FORMAT_VERSION,
        "findings": [f.to_dict() for f in findings],
        "counts": counts,
        "total": len(live),
        "suppressed": len(findings) - len(live),
    }
    return json.dumps(doc, indent=2, sort_keys=True)
