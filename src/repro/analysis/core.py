"""Findings, rules, and suppression comments.

The vocabulary of :mod:`repro.analysis`: a :class:`Rule` inspects the
:class:`~repro.analysis.index.SourceIndex` and yields structured
:class:`Finding`\\ s; per-line ``# repro: ignore[RULE-ID]`` comments
suppress findings at their line.  Everything downstream — reporters,
baselines, exit codes — speaks in these types.
"""

from __future__ import annotations

import re
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.index import SourceIndex

#: Finding severities, most severe first.  ``error`` findings guard
#: correctness invariants (determinism, fork safety, resource leaks);
#: ``warning`` findings guard conventions (layering, telemetry
#: granularity).  Both gate the exit code — the split exists so
#: reporters and future tooling can prioritize.
SEVERITIES = ("error", "warning")

#: ``# repro: ignore[RNG001]`` / ``# repro: ignore[RNG001, PACK002]``.
#: The comment must sit on the finding's own line.
_SUPPRESSION = re.compile(r"#\s*repro:\s*ignore\[([A-Za-z0-9_*,\s-]+)\]")


@dataclass(frozen=True)
class Finding:
    """One rule violation, anchored to a source line.

    ``symbol`` is the enclosing function/class qualname (or
    ``"<module>"``) — baselines key on it so entries survive line
    drift.
    """

    rule: str
    severity: str
    path: str
    line: int
    message: str
    hint: str = ""
    symbol: str = "<module>"

    def to_dict(self) -> dict:
        return asdict(self)

    def location(self) -> str:
        return f"{self.path}:{self.line}"


class Rule:
    """Base class for pluggable invariant checks.

    Subclasses set the class attributes and implement :meth:`check`,
    yielding findings over the whole index (rules are free to look at
    every file at once — call graphs and registries are cross-module
    by nature).  Findings must only be emitted for *target* files
    (``index.is_target``); context files exist so cross-module rules
    see the whole package even when only a subtree is analyzed.
    """

    id = "RULE000"
    severity = "error"
    title = ""
    rationale = ""

    def check(self, index: "SourceIndex") -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self,
        index: "SourceIndex",
        file,
        node,
        message: str,
        hint: str = "",
    ) -> Finding:
        """A finding anchored at ``node`` in ``file``."""
        line = getattr(node, "lineno", 0)
        return Finding(
            rule=self.id,
            severity=self.severity,
            path=file.rel,
            line=line,
            message=message,
            hint=hint,
            symbol=file.enclosing_symbol(line),
        )


def suppressed_rules(line_text: str) -> frozenset[str]:
    """Rule ids suppressed by ``line_text``'s ignore comment (if any).

    ``*`` suppresses every rule on the line.
    """
    match = _SUPPRESSION.search(line_text)
    if not match:
        return frozenset()
    return frozenset(
        part.strip() for part in match.group(1).split(",") if part.strip()
    )


def is_suppressed(finding: Finding, lines: list[str]) -> bool:
    """Whether ``finding``'s source line carries a matching suppression."""
    if not 1 <= finding.line <= len(lines):
        return False
    rules = suppressed_rules(lines[finding.line - 1])
    return bool(rules) and (finding.rule in rules or "*" in rules)


@dataclass
class AnalysisResult:
    """Everything one analysis run produced, pre-partitioned."""

    findings: list[Finding] = field(default_factory=list)
    suppressed: list[Finding] = field(default_factory=list)
    baselined: list[Finding] = field(default_factory=list)
    stale_baseline: list[dict] = field(default_factory=list)
    files_analyzed: int = 0
    rules_run: tuple[str, ...] = ()
    seconds: float = 0.0

    @property
    def exit_code(self) -> int:
        return 1 if self.findings else 0

    def counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return counts


def sort_findings(findings: Iterable[Finding]) -> list[Finding]:
    """Stable report order: path, line, rule."""
    return sorted(findings, key=lambda f: (f.path, f.line, f.rule))
