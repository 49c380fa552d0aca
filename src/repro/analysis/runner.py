"""Orchestration: index once, run every selected rule, partition.

The pipeline: collect target files, auto-add the installed ``repro``
source as non-target *context* (cross-module rules — call graphs,
registry discovery — need the whole package in view even when a
subtree is analyzed), run the selected rules over the shared index,
then partition raw findings into reported / inline-suppressed /
baselined.

Rules run serially in one process.  The incremental cache
(:mod:`repro.analysis.cache`) is attached to the index so the dataflow
rules can reuse per-module summaries and per-file findings across
runs; it is transparent to the output (a cold run and a warm run
produce identical findings in identical order).
"""

from __future__ import annotations

import time
from pathlib import Path

from repro.analysis.baseline import Baseline
from repro.analysis.cache import CACHE_DIR_NAME, AnalysisCache
from repro.analysis.core import AnalysisResult, is_suppressed
from repro.analysis.index import IndexBuilder, SourceIndex, repro_source_root
from repro.analysis.rules import select_rules


def build_index(
    paths: list[str | Path],
    root: str | Path | None = None,
    include_context: bool = True,
) -> SourceIndex:
    """Parse ``paths`` (files or directories) into a shared index."""
    root = Path(root) if root is not None else Path.cwd()
    targets = [Path(p) for p in paths]
    context: list[Path] = []
    if include_context:
        package = repro_source_root()
        if package is not None:
            context.append(package)
    return IndexBuilder(root=root, targets=targets, context=context).build()


def analyze(
    paths: list[str | Path],
    select: tuple[str, ...] = (),
    ignore: tuple[str, ...] = (),
    baseline: Baseline | None = None,
    root: str | Path | None = None,
    include_context: bool = True,
    cache_dir: str | Path | None = None,
    use_cache: bool = True,
) -> AnalysisResult:
    """Run the rule set over ``paths`` and partition the findings.

    ``cache_dir`` defaults to ``<root>/.repro-analysis-cache``; pass
    ``use_cache=False`` to disable the incremental cache entirely.
    """
    started = time.perf_counter()
    rules = select_rules(select=select, ignore=ignore)
    index = build_index(paths, root=root, include_context=include_context)
    if use_cache:
        if cache_dir is None:
            base = Path(root) if root is not None else Path.cwd()
            cache_dir = base / CACHE_DIR_NAME
        index.analysis_cache = AnalysisCache(cache_dir)
    lines_by_rel = {
        file.rel: file.lines for file in index.files if file.is_target
    }
    result = AnalysisResult(
        files_analyzed=len(lines_by_rel),
        rules_run=tuple(rule.id for rule in rules),
    )
    for rule in rules:
        for finding in rule.check(index):
            if is_suppressed(finding, lines_by_rel.get(finding.path, [])):
                result.suppressed.append(finding)
            elif baseline is not None and baseline.matches(finding):
                result.baselined.append(finding)
            else:
                result.findings.append(finding)
    if baseline is not None:
        result.stale_baseline = baseline.stale_entries()
    result.seconds = time.perf_counter() - started
    return result
