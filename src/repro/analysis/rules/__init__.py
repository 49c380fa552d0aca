"""The rule registry: every shipped invariant check, by id.

Adding a rule is one entry here — the runner, the CLI's
``--select``/``--ignore``, ``--list-rules`` and the reporters all
derive from :func:`all_rules`; the README rule table is kept in step by
hand (a test asserts the two list the same ids).
"""

from __future__ import annotations

from repro.analysis.core import Rule
from repro.analysis.rules.api import FacadeRule
from repro.analysis.rules.exceptions import SilentExceptionRule
from repro.analysis.rules.fork import ForkSafetyRule
from repro.analysis.rules.obs_rules import ObsGranularityRule
from repro.analysis.rules.pack import PackedFlowRule
from repro.analysis.rules.parse import ParseFailureRule
from repro.analysis.rules.reg import RegistryRule
from repro.analysis.rules.res import ResourcePathRule
from repro.analysis.rules.rng import GlobalRngRule, SeedContractRule
from repro.analysis.rules.seed import SeedTaintRule
from repro.analysis.rules.wire import WireContractRule

__all__ = ["all_rules", "rule_ids", "select_rules"]


def all_rules() -> list[Rule]:
    """One fresh instance of every shipped rule, ordered by id."""
    rules = [
        ParseFailureRule(),
        GlobalRngRule(),
        SeedContractRule(),
        SeedTaintRule(),
        ForkSafetyRule(),
        SilentExceptionRule(),
        PackedFlowRule(),
        RegistryRule(),
        ObsGranularityRule(),
        ResourcePathRule(),
        WireContractRule(),
        FacadeRule(),
    ]
    return sorted(rules, key=lambda rule: rule.id)


def rule_ids() -> tuple[str, ...]:
    return tuple(rule.id for rule in all_rules())


def select_rules(
    select: tuple[str, ...] = (), ignore: tuple[str, ...] = ()
) -> list[Rule]:
    """The rule set after ``--select``/``--ignore`` filtering.

    Unknown ids raise ``ValueError`` — a typo'd selection silently
    running zero rules is how linters rot.
    """
    known = set(rule_ids())
    unknown = (set(select) | set(ignore)) - known
    if unknown:
        raise ValueError(
            f"unknown rule id(s) {sorted(unknown)}; known: {sorted(known)}"
        )
    rules = all_rules()
    if select:
        rules = [rule for rule in rules if rule.id in select]
    return [rule for rule in rules if rule.id not in ignore]
