"""Interprocedural rules over the project call graph (RPR101–RPR103).

Unlike the file-local AST rules, these see the whole program at once:
the :class:`~repro.analysis.lint.callgraph.CallGraph` built from every
linted file, plus the :class:`~repro.analysis.lint.effects
.EffectAnalysis` labelling each function with the effects transitively
reachable from it.  Every finding carries a *witness* — the concrete
call chain from the flagged function down to the offending effect site —
so reports are actionable without re-running the analysis.

The three rule families encode the reproduction's architectural
contracts:

**RPR101 — purity contracts.**  The planning core (`repro.core.*`), the
cache policies, and the shared coordinator must be pure functions of
their inputs: the byte-identical-trace guarantee (same seed ⇒ same
decisions across batch simulator, durable runner, and HTTP service)
holds only if nothing on those paths reads a clock, draws entropy, or
touches the outside world.  Effects whose *origin site* matches the
config's ``effect_allow`` patterns are sanctioned — telemetry spans
(host timings feed metric histograms, never the trace) and the
registry's documented default seed.

**RPR102 — async-safety.**  No coroutine in the service package may
transitively reach a blocking call (file/socket I/O, ``subprocess``,
``time.sleep``) without an executor hop — the analysis already cuts
edges through ``asyncio.to_thread`` / ``run_in_executor``.  The
durability layer is origin-allowlisted by default: the service's
single-writer commit path intentionally performs its journal writes
synchronously on the event loop.

**RPR103 — commit-order protocol.**  Durable execution paths must
preserve the arrivals-flush → trace-lines → journal-frame → checkpoint
order the replay oracle assumes.  The check is a small state machine
over *stage operations* (fnmatch patterns against call text), summarised
transitively per function, and required to be monotonically
non-decreasing within each straight-line region — loop bodies are their
own regions, since a loop iteration legitimately restarts the protocol.
"""

from __future__ import annotations

from dataclasses import dataclass
from fnmatch import fnmatch
from typing import TYPE_CHECKING, Iterator

from repro.analysis.lint.callgraph import CallGraph, FunctionInfo, MODULE_BODY
from repro.analysis.lint.effects import (
    BLOCKING_EFFECTS,
    EffectAnalysis,
    witness_chain,
)
from repro.analysis.lint.framework import Finding

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.analysis.lint.config import LintConfig

__all__ = [
    "InterproceduralRule",
    "PurityContractRule",
    "AsyncSafetyRule",
    "CommitOrderRule",
    "CommitProtocol",
    "DEFAULT_COMMIT_PROTOCOL",
    "IP_RULES",
]


class InterproceduralRule:
    """Base class of whole-program rules.

    Subclasses implement :meth:`check` over the linked graph; path
    applicability (focus / allow) is still the config's job and is
    queried per flagged *function*, via its file's display path.
    """

    id: str = "RPR100"
    title: str = "abstract interprocedural rule"
    severity: str = "error"

    def check(
        self,
        graph: CallGraph,
        analysis: EffectAnalysis,
        config: "LintConfig",
    ) -> Iterator[Finding]:
        raise NotImplementedError  # pragma: no cover - abstract

    def finding(
        self,
        fn: FunctionInfo,
        message: str,
        witness: tuple[str, ...],
        *,
        line: int | None = None,
    ) -> Finding:
        return Finding(
            rule=self.id,
            severity=self.severity,
            path=fn.path,
            line=fn.line if line is None else line,
            col=0,
            message=message,
            witness=witness,
        )


def _describe(fn: FunctionInfo) -> str:
    return "module body" if fn.qualname == MODULE_BODY else f"'{fn.qualname}'"


class PurityContractRule(InterproceduralRule):
    """RPR101: no effect may be reachable from a declared-pure root."""

    id = "RPR101"
    title = "effect reachable from declared-pure code"

    def check(
        self,
        graph: CallGraph,
        analysis: EffectAnalysis,
        config: "LintConfig",
    ) -> Iterator[Finding]:
        for fid in sorted(graph.functions):
            fn = graph.functions[fid]
            if not config.rule_applies(self.id, fn.path):
                continue
            disallowed = [
                o
                for o in analysis.origins(fid)
                if not config.origin_allowed(self.id, o.path)
            ]
            # one finding per effect kind, witnessing the first origin —
            # a chain of pure functions reaching one clock call should
            # read as one defect per function, not one per call site
            seen: set[str] = set()
            for origin in disallowed:
                if origin.effect in seen:
                    continue
                seen.add(origin.effect)
                yield self.finding(
                    fn,
                    f"{_describe(fn)} is on a declared-pure path but "
                    f"reaches a '{origin.effect}' effect "
                    f"({origin.call} at {origin.path}:{origin.line}); "
                    "pure planning code must be a function of its inputs "
                    "only — inject the dependency, route it through "
                    "telemetry, or allowlist the origin",
                    witness_chain(graph, analysis, fid, origin),
                )


class AsyncSafetyRule(InterproceduralRule):
    """RPR102: coroutines must not reach blocking calls in-thread."""

    id = "RPR102"
    title = "blocking call reachable from a coroutine"

    def check(
        self,
        graph: CallGraph,
        analysis: EffectAnalysis,
        config: "LintConfig",
    ) -> Iterator[Finding]:
        for fid in sorted(graph.functions):
            fn = graph.functions[fid]
            if not fn.is_async:
                continue
            if not config.rule_applies(self.id, fn.path):
                continue
            blocking = [
                o
                for o in analysis.origins(fid, BLOCKING_EFFECTS)
                if not config.origin_allowed(self.id, o.path)
            ]
            seen: set[str] = set()
            for origin in blocking:
                if origin.effect in seen:
                    continue
                seen.add(origin.effect)
                yield self.finding(
                    fn,
                    f"coroutine {_describe(fn)} reaches a blocking "
                    f"'{origin.effect}' call "
                    f"({origin.call} at {origin.path}:{origin.line}) "
                    "without an executor hop; the event loop stalls for "
                    "every connected client — wrap it in "
                    "asyncio.to_thread() or allowlist the origin",
                    witness_chain(graph, analysis, fid, origin),
                )


# ------------------------------------------------------------------ #
# RPR103


@dataclass(frozen=True)
class CommitProtocol:
    """The durability commit order as fnmatch patterns over call text.

    ``stages`` maps stage index (execution order) to a name and the
    patterns that recognise its operations in source.  Patterns match
    the *callee expression text* (``self.journal.append`` etc.), so the
    spec is robust to how a given file spells its receivers.
    """

    stages: tuple[tuple[str, tuple[str, ...]], ...] = (
        (
            "arrivals-flush",
            ("*._append_arrival", "*_arrivals.write", "*_arrivals.flush"),
        ),
        ("trace-lines", ("*core.submit",)),
        ("journal-frame", ("*journal.append",)),
        (
            "checkpoint",
            ("write_checkpoint", "*._checkpoint",
             "*journal.truncate_to_checkpoint"),
        ),
    )

    def stage_of(self, call_text: str) -> int | None:
        for index, (_, patterns) in enumerate(self.stages):
            if any(fnmatch(call_text, p) for p in patterns):
                return index
        return None

    def name(self, index: int) -> str:
        return self.stages[index][0]


DEFAULT_COMMIT_PROTOCOL = CommitProtocol()


@dataclass
class _StagedOp:
    line: int
    col: int
    call: str
    #: stage performed directly, or the *max* stage a callee reaches —
    #: a call into a subroutine that runs the whole protocol acts, for
    #: ordering purposes, as its final stage
    effective: int
    direct: bool


class CommitOrderRule(InterproceduralRule):
    """RPR103: stage operations must be non-decreasing per region."""

    id = "RPR103"
    title = "durability commit-order violation"

    def __init__(self, protocol: CommitProtocol | None = None):
        self.protocol = DEFAULT_COMMIT_PROTOCOL if protocol is None else protocol

    def check(
        self,
        graph: CallGraph,
        analysis: EffectAnalysis,
        config: "LintConfig",
    ) -> Iterator[Finding]:
        summaries = self._stage_summaries(graph)
        for fid in sorted(graph.functions):
            fn = graph.functions[fid]
            if not config.rule_applies(self.id, fn.path):
                continue
            yield from self._check_function(fn, graph, summaries)

    def _stage_summaries(self, graph: CallGraph) -> dict[str, frozenset[int]]:
        """Fixpoint: stages each function performs, transitively."""
        sets: dict[str, set[int]] = {}
        for fid, fn in graph.functions.items():
            own = {
                stage
                for site in fn.calls
                if (stage := self.protocol.stage_of(site.call)) is not None
            }
            sets[fid] = own
        changed = True
        while changed:
            changed = False
            for fid in sorted(sets):
                acc = sets[fid]
                before = len(acc)
                for callee, _, _ in graph.edges.get(fid, ()):
                    acc |= sets.get(callee, set())
                if len(acc) != before:
                    changed = True
        return {fid: frozenset(s) for fid, s in sets.items()}

    def _check_function(
        self,
        fn: FunctionInfo,
        graph: CallGraph,
        summaries: dict[str, frozenset[int]],
    ) -> Iterator[Finding]:
        # callee stage summaries, addressable by the realising call site
        edge_stages: dict[tuple[int, str], set[int]] = {}
        for callee, line, call in graph.edges.get(fn.id, ()):
            edge_stages.setdefault((line, call), set()).update(
                summaries.get(callee, frozenset())
            )
        # group the function's call sites by region, in source order
        regions: dict[int, list[_StagedOp]] = {}
        for site in sorted(fn.calls, key=lambda s: (s.line, s.col)):
            direct_stage = self.protocol.stage_of(site.call)
            if direct_stage is not None:
                op = _StagedOp(
                    site.line, site.col, site.call, direct_stage, True
                )
            else:
                reached = edge_stages.get((site.line, site.call))
                if not reached:
                    continue
                op = _StagedOp(
                    site.line, site.col, site.call, max(reached), False
                )
            regions.setdefault(site.region, []).append(op)

        for region in sorted(regions):
            prev: _StagedOp | None = None
            for op in regions[region]:
                if prev is not None and op.effective < prev.effective:
                    prev_name = self.protocol.name(prev.effective)
                    op_name = self.protocol.name(op.effective)
                    via = (
                        "performs" if op.direct else "transitively reaches"
                    )
                    yield self.finding(
                        fn,
                        f"{_describe(fn)} {via} stage "
                        f"'{op_name}' ({op.call}) after stage "
                        f"'{prev_name}' ({prev.call} at line {prev.line}); "
                        "the durable commit order is arrivals-flush → "
                        "trace-lines → journal-frame → checkpoint — "
                        "replay after a crash assumes it",
                        (
                            f"{fn.id} ({fn.path}:{prev.line}) runs "
                            f"'{prev_name}' via {prev.call}",
                            f"{fn.id} ({fn.path}:{op.line}) then runs "
                            f"'{op_name}' via {op.call} — out of order",
                        ),
                        line=op.line,
                    )
                prev = op


#: shipped interprocedural rule set, in report order
IP_RULES: tuple[InterproceduralRule, ...] = (
    PurityContractRule(),
    AsyncSafetyRule(),
    CommitOrderRule(),
)
