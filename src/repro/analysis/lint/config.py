"""Linter configuration: rule selection and per-rule path scoping.

Two path mechanisms exist because the rules have two different shapes:

* **focus patterns** — a rule only *applies* under certain directories
  (RPR003's set-iteration hazard only matters where a tie-break feeds a
  simulation decision: ``cache/``, ``core/``, ``sim/``);
* **allow patterns** — a rule applies everywhere *except* files whose
  whole job is the flagged construct (the profiling/bench modules hold
  the package's only legitimate wall clocks; the policy registry holds
  the documented default seed for the ``random`` policy).

Both match with :func:`fnmatch.fnmatch` against the posix display path,
so patterns like ``*/telemetry/recorder.py`` work for absolute and
repo-relative invocations alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fnmatch import fnmatch

from repro.errors import LintError

__all__ = [
    "LintConfig",
    "DEFAULT_FOCUS",
    "DEFAULT_ALLOW",
    "DEFAULT_EFFECT_ALLOW",
    "ALL_RULE_IDS",
]

#: every rule id the linter knows, in report order (RPR101–103 are the
#: whole-program effect rules; RPR900 is the meta-rule flagging
#: suppressions that carry no justification text)
ALL_RULE_IDS: tuple[str, ...] = (
    "RPR001",
    "RPR002",
    "RPR003",
    "RPR004",
    "RPR005",
    "RPR101",
    "RPR102",
    "RPR103",
    "RPR900",
)

#: rule id -> patterns a file must match for the rule to apply at all.
#: The interprocedural rules anchor on ``*/repro/...`` so that test
#: fixtures living under ``tmp/cache/mod.py`` do not accidentally become
#: declared-pure roots — whole-program contracts attach to the package,
#: not to any directory that happens to share a name.
DEFAULT_FOCUS: dict[str, tuple[str, ...]] = {
    # set/dict iteration order only becomes a determinism hazard where it
    # can tie-break an eviction or selection decision
    "RPR003": ("*/cache/*", "*/core/*", "*/sim/*"),
    # declared-pure roots: the planning core, every cache policy, and the
    # shared coordinator that drives all three execution modes
    "RPR101": (
        "*/repro/core/*",
        "*/repro/cache/*",
        "*/repro/sim/coordinator.py",
    ),
    # async-safety only concerns coroutine code in the online service
    "RPR102": ("*/repro/service/*",),
    # the commit-order protocol binds the durable execution paths
    "RPR103": ("*/repro/durability/*", "*/repro/service/state.py"),
}

#: rule id -> patterns exempting a file from the rule
DEFAULT_ALLOW: dict[str, tuple[str, ...]] = {
    # the only sanctioned wall clocks: span profiling (host timings go to
    # metric histograms, never the event trace), the bench harness, and
    # the online service's latency instrumentation (decision timings and
    # loadgen pacing are host-side observations, never trace content)
    "RPR001": (
        "*/telemetry/recorder.py",
        "*/telemetry/profiling.py",
        "*/telemetry/tracing.py",
        "*/experiments/bench.py",
        "*/service/state.py",
        "*/service/loadgen.py",
    ),
    # the registry owns the documented default seed of the random policy;
    # utils/rng.py is the one place deriving generators from raw seeds
    "RPR002": (
        "*/cache/registry.py",
        "*/utils/rng.py",
    ),
}

#: rule id -> patterns exempting an *effect origin site* (the file where
#: the effect is actually performed) rather than the flagged file.  This
#: is the interprocedural twin of ``DEFAULT_ALLOW``: a pure root may
#: reach a telemetry span (host timings feed metric histograms, never
#: the event trace) without breaking its contract, and the service's
#: handlers intentionally perform their durable writes synchronously on
#: the one event loop — the single-writer design — so blocking effects
#: originating in the durability layer are sanctioned for RPR102.
DEFAULT_EFFECT_ALLOW: dict[str, tuple[str, ...]] = {
    "RPR101": (
        "*/repro/telemetry/*",
        "*/repro/cache/registry.py",
        "*/repro/utils/rng.py",
    ),
    "RPR102": (
        "*/repro/durability/*",
        "*/repro/service/state.py",
        "*/repro/telemetry/*",
    ),
}


def _validate_rule_ids(ids: frozenset[str]) -> None:
    unknown = ids - set(ALL_RULE_IDS)
    if unknown:
        known = ", ".join(ALL_RULE_IDS)
        raise LintError(
            f"unknown rule id(s) {sorted(unknown)}; known rules: {known}"
        )


@dataclass(frozen=True)
class LintConfig:
    """Immutable linter configuration.

    ``select`` of ``None`` means "all rules"; ``ignore`` always wins over
    ``select``.  ``focus`` / ``allow`` default to the repo's shipped
    scoping and can be overridden wholesale (tests do this to point rules
    at fixture files).
    """

    select: frozenset[str] | None = None
    ignore: frozenset[str] = frozenset()
    focus: dict[str, tuple[str, ...]] = field(
        default_factory=lambda: dict(DEFAULT_FOCUS)
    )
    allow: dict[str, tuple[str, ...]] = field(
        default_factory=lambda: dict(DEFAULT_ALLOW)
    )
    effect_allow: dict[str, tuple[str, ...]] = field(
        default_factory=lambda: dict(DEFAULT_EFFECT_ALLOW)
    )

    def __post_init__(self) -> None:
        if self.select is not None:
            _validate_rule_ids(self.select)
        _validate_rule_ids(frozenset(self.ignore))

    @classmethod
    def from_cli(
        cls,
        select: list[str] | None = None,
        ignore: list[str] | None = None,
    ) -> "LintConfig":
        """Build a config from repeated ``--select`` / ``--ignore`` flags."""
        return cls(
            select=frozenset(s.upper() for s in select) if select else None,
            ignore=frozenset(i.upper() for i in ignore or ()),
        )

    # ------------------------------------------------------------------ #

    def rule_enabled(self, rule_id: str) -> bool:
        if rule_id in self.ignore:
            return False
        if self.select is not None:
            return rule_id in self.select
        return True

    def rule_applies(self, rule_id: str, display_path: str) -> bool:
        """Whether ``rule_id`` should run on the file at ``display_path``."""
        if not self.rule_enabled(rule_id):
            return False
        focus = self.focus.get(rule_id)
        if focus is not None and not any(fnmatch(display_path, p) for p in focus):
            return False
        return not any(
            fnmatch(display_path, p) for p in self.allow.get(rule_id, ())
        )

    def origin_allowed(self, rule_id: str, origin_path: str) -> bool:
        """Whether an effect *originating* at ``origin_path`` is sanctioned
        for ``rule_id`` (interprocedural rules only)."""
        return any(
            fnmatch(origin_path, p)
            for p in self.effect_allow.get(rule_id, ())
        )
