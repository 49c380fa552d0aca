"""Rule-based static analysis for the repro codebase.

The repo's correctness contracts — the derived-seed RNG scheme, fork
safety of pool workers, resource release on every path, the packed
uint64 wire format, capability-flagged registries, telemetry
granularity, and the study facade boundary — are invariants the type
system can't see.  This package makes them machine-checkable: parse
the tree once into a :class:`~repro.analysis.index.SourceIndex`, run
pluggable :class:`~repro.analysis.core.Rule` visitors, report
structured findings with fix hints.

Run it as ``python -m repro.analysis src/repro`` (``--format json``
for CI); suppress a single line with ``# repro: ignore[RULE-ID]``.
"""

from __future__ import annotations

from repro.analysis.baseline import Baseline
from repro.analysis.core import AnalysisResult, Finding, Rule
from repro.analysis.index import SourceIndex
from repro.analysis.report import (
    JSON_SCHEMA_VERSION,
    render_github,
    render_json,
    render_text,
)
from repro.analysis.rules import all_rules, rule_ids, select_rules
from repro.analysis.runner import analyze, build_index

__all__ = [
    "AnalysisResult",
    "Baseline",
    "Finding",
    "JSON_SCHEMA_VERSION",
    "Rule",
    "SourceIndex",
    "all_rules",
    "analyze",
    "build_index",
    "render_github",
    "render_json",
    "render_text",
    "rule_ids",
    "select_rules",
]
