"""Experiment bookkeeping: report rendering."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

from repro.util.textio import render_table


@dataclass
class ExperimentReport:
    """One experiment's rendered artifact plus its shape-check numbers."""

    experiment_id: str
    title: str
    table_text: str
    metrics: Dict[str, Any] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def render(self) -> str:
        lines = [f"== {self.experiment_id}: {self.title} ==", "", self.table_text]
        if self.metrics:
            lines.append("")
            lines.append(
                render_table(
                    ["metric", "value"],
                    [[k, v] for k, v in sorted(self.metrics.items())],
                )
            )
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)
