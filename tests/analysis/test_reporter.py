"""Reporter tests: text rendering, versioned JSON, lossless round-trip."""

import json

from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.findings import Finding, Severity
from repro.analysis.reporter import JSON_FORMAT_VERSION, render_json, render_text


def findings_from_json(text):
    """Decoder oracle: the findings of a :func:`render_json` document."""
    doc = json.loads(text)
    assert doc["version"] == JSON_FORMAT_VERSION
    return [
        Finding(
            path=item["path"], line=item["line"], col=item["col"],
            rule=item["rule"], severity=Severity(item["severity"]),
            message=item["message"], suppressed=item["suppressed"],
        )
        for item in doc["findings"]
    ]


def mk(line=3, rule="ORL004", suppressed=False, severity=Severity.WARNING):
    return Finding(
        path="src/x.py",
        line=line,
        col=4,
        rule=rule,
        severity=severity,
        message="msg",
        suppressed=suppressed,
    )


class TestRenderText:
    def test_gcc_style_line(self):
        out = render_text([mk()])
        assert "src/x.py:3:4: ORL004 warning: msg" in out

    def test_summary_counts_per_rule(self):
        out = render_text([mk(rule="ORL004"), mk(line=5, rule="ORL004"), mk(rule="ORL006")])
        assert "3 finding(s)" in out
        assert "ORL004×2" in out and "ORL006×1" in out

    def test_clean_summary(self):
        assert render_text([]).strip() == "orionlint: clean"

    def test_suppressed_hidden_by_default(self):
        out = render_text([mk(suppressed=True)])
        assert "src/x.py" not in out
        assert "clean (1 suppressed finding(s))" in out

    def test_show_suppressed(self):
        out = render_text([mk(suppressed=True)], show_suppressed=True)
        assert "(suppressed)" in out


class TestRenderJson:
    def test_document_shape(self):
        doc = json.loads(render_json([mk(), mk(suppressed=True, line=9)]))
        assert doc["version"] == JSON_FORMAT_VERSION
        assert doc["total"] == 1
        assert doc["suppressed"] == 1
        assert doc["counts"] == {"ORL004": 1}
        assert len(doc["findings"]) == 2

    def test_round_trip(self):
        original = [mk(), mk(line=9, rule="ORL006", severity=Severity.ERROR)]
        assert findings_from_json(render_json(original)) == original


finding_strategy = st.builds(
    Finding,
    path=st.text(min_size=1, max_size=40),
    line=st.integers(min_value=1, max_value=100_000),
    col=st.integers(min_value=0, max_value=500),
    rule=st.sampled_from([f"ORL00{i}" for i in range(8)]),
    severity=st.sampled_from(list(Severity)),
    message=st.text(max_size=120),
    suppressed=st.booleans(),
)


class TestJsonRoundTripProperty:
    @given(st.lists(finding_strategy, max_size=20))
    def test_render_then_parse_is_identity(self, findings):
        assert findings_from_json(render_json(findings)) == findings

    @given(st.lists(finding_strategy, max_size=20))
    def test_counts_match_active_findings(self, findings):
        doc = json.loads(render_json(findings))
        live = [f for f in findings if not f.suppressed]
        assert doc["total"] == len(live)
        assert sum(doc["counts"].values()) == len(live)
        assert doc["suppressed"] == len(findings) - len(live)
