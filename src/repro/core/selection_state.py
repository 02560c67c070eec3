"""Persistent, incrementally-maintained selection state for ``OptFileBundle``.

Section 1.2 of the paper requires the replacement decision to be evaluated
"in an almost negligible time relative to the time it takes to cache an
object".  The from-scratch path (:func:`repro.core.optcacheselect.opt_cache_select`
over :meth:`FBCInstance.from_history`) rebuilds, on *every* arrival:

* the candidate list (an O(history) filter under ``CACHE_SUPPORTED``),
* the effective degree map and adjusted sizes ``s(f)/d(f)``,
* the inverted file → candidate index (``containing``),
* the per-candidate residual adjusted/real size arrays,

all of which change only slowly between arrivals.  :class:`SelectionState`
keeps the degree-derived part alive across plans — adjusted sizes and each
bundle's base sizes — refreshing exactly the bundles whose files' degrees
grew when :meth:`RequestHistory.add_listener` reports a new request type.
Candidate membership, values and decay are read per plan from the
history.

Where the file → candidate index lives
--------------------------------------
The history keeps it: :meth:`RequestHistory.candidate_holders` maps each
file to the ids of the *current candidates* holding it, updated where an
entry joins or leaves the candidate set.  At the system's operating point
(about 15 candidates × 16 files per plan) a file has about one candidate
holder, so the greedy skips, in O(1), every file of a selected bundle that
no other candidate holds: such a file changes no other candidate's score,
and no later candidate can hold it, so it need not join the selected set
either.  Per-file work is left only for the few shared files.

The order of a holder list follows when its entries joined the candidate
set, which can depend on the hash seed of the caller's sets.  It cannot
change a plan: each holder's residual changes once per shared file (files
are visited in bundle order, so every float is the same), and heap pops
depend only on ``(-score, position)``.

Bit-for-bit equivalence with the from-scratch path
--------------------------------------------------
The differential tests require :meth:`select` to return *byte-for-byte*
the same :class:`CacheSelection` as ``opt_cache_select`` on a freshly built
instance.  Floating-point addition is not associative, so the cached
per-bundle adjusted sizes are **recomputed in bundle iteration order**
whenever a member file's degree changes (never updated by a delta), and
bundles overlapping the per-call ``free`` set get their residual sizes
recomputed the same way the from-scratch loop accumulates them.  Every sum
here therefore reproduces the exact float the rebuild path produces.
"""

from __future__ import annotations

import heapq
from typing import AbstractSet, Mapping

from repro.core.history import HistoryEntry, RequestHistory
from repro.core.optcacheselect import (
    _EPS,
    CacheSelection,
    FBCInstance,
    _empty_selection,
    _finish,
)
from repro.errors import StateInvariantError
from repro.telemetry import current_recorder
from repro.types import FileId, SizeBytes

__all__ = ["SelectionState"]


class SelectionState:
    """Incremental backing store for the refined ``OptCacheSelect`` greedy.

    Parameters
    ----------
    history:
        The planner's ``L(R)``; the state subscribes itself as a listener
        and replays any entries already recorded.
    sizes:
        File-size oracle ``s(f)``; must cover every file the history will
        ever record (the same oracle handed to the planner).

    Notes
    -----
    The state only caches *degree-derived* quantities (adjusted sizes and
    per-bundle base sizes).  Values, decay, candidate membership and the
    candidate-holder index are read from the history per call, so
    fault-injected eviction notifications and window churn need no
    dedicated synchronisation.
    """

    def __init__(self, history: RequestHistory, sizes: Mapping[FileId, SizeBytes]):
        self._history = history
        self._sizes = sizes
        self._recorder = current_recorder()
        # s(f) / d(f) under the *global* degrees; refreshed on degree change
        self._adj_size: dict[FileId, float] = {}
        # per-eid cached quantities, indexed by entry id
        self._bundles: list = []
        self._base_adj: list[float] = []
        self._base_real: list[float] = []
        history.add_listener(self)

    # ------------------------------------------------------------------ #
    # history events

    def on_entry_added(self, entry: HistoryEntry) -> None:
        """Register a new request type (degrees of its files just grew)."""
        eid = entry.eid
        if eid != len(self._bundles):  # pragma: no cover - defensive
            raise StateInvariantError(
                f"entry id {eid} out of sync with state size {len(self._bundles)}"
            )
        bundle = entry.bundle
        sizes = self._sizes
        history = self._history
        degree = history.degree
        stale: set[int] = set()
        for f in bundle:
            self._adj_size[f] = sizes[f] / max(1, degree(f))
            # only earlier entries: a warm history's replay has not yet
            # registered the later ones it already indexes
            for other in history.containing(f):
                if other.eid < eid:
                    stale.add(other.eid)
        self._bundles.append(bundle)
        self._base_adj.append(0.0)
        self._base_real.append(0.0)
        self._refresh_base(eid)
        # refreshes are independent per entry (each rewrites only its own
        # cached floats), but sort so maintenance order is reproducible
        for other in sorted(stale):
            self._refresh_base(other)

    def _refresh_base(self, eid: int) -> None:
        """Recompute one bundle's base sizes in bundle iteration order.

        Full recomputation (not a delta) so the cached float equals the
        left-to-right sum the from-scratch path accumulates.
        """
        adj = self._adj_size
        sizes = self._sizes
        a = r = 0.0
        for f in self._bundles[eid]:
            a += adj[f]
            r += sizes[f]
        self._base_adj[eid] = a
        self._base_real[eid] = r

    # ------------------------------------------------------------------ #
    # selection

    def select(
        self,
        budget: SizeBytes,
        *,
        free: AbstractSet[FileId] = frozenset(),
        safeguard: bool = True,
    ) -> CacheSelection:
        """Refined greedy over the current candidates, incremental edition.

        Mirrors :func:`repro.core.optcacheselect._select_refined` step for
        step, but draws ``adj_size`` and the base residual sizes from the
        persistent state and ``containing`` from the history's
        candidate-holder index instead of rebuilding them; only candidates
        sharing a file with ``free`` (the arriving bundle) have their
        residuals recomputed for this call.
        """
        with self._recorder.span("optbundle.select"):
            return self._select(budget, free=free, safeguard=safeguard)

    def _select(
        self,
        budget: SizeBytes,
        *,
        free: AbstractSet[FileId] = frozenset(),
        safeguard: bool = True,
    ) -> CacheSelection:
        history = self._history
        entries = history.candidates()
        if not entries or budget <= 0:
            return _empty_selection()

        sizes = self._sizes
        adj = self._adj_size
        holders = history.candidate_holders()
        n = len(entries)
        ids = [e.eid for e in entries]
        pos = {eid: k for k, eid in enumerate(ids)}
        bundles = tuple(e.bundle for e in entries)
        values = tuple(e.value for e in entries)
        base_adj, base_real = self._base_adj, self._base_real
        rem_adj = [base_adj[eid] for eid in ids]
        rem_real = [base_real[eid] for eid in ids]
        if free:
            affected: set[int] = set()
            # repro: allow[RPR003] only inserts into the `affected` set;
            # visit order cannot influence its final contents
            for f in free:
                for eid in holders.get(f, ()):
                    affected.add(pos[eid])
            # each iteration rewrites only its own rem_* slot; sorted so
            # the (order-insensitive) maintenance is also reproducible
            for k in sorted(affected):
                a = r = 0.0
                for f in bundles[k]:
                    if f in free:
                        continue
                    a += adj[f]
                    r += sizes[f]
                rem_adj[k] = a
                rem_real[k] = r

        inf = float("inf")
        active = [True] * n
        selected_files: set[FileId] = set(free)
        remaining = float(budget)
        chosen: list[int] = []

        single: tuple[int, float] | None = None
        if safeguard:
            slack = budget + _EPS
            for k in range(n):
                if rem_real[k] <= slack and (single is None or values[k] > single[1]):
                    single = (k, values[k])

        score = [
            values[k] / rem_adj[k] if rem_adj[k] > _EPS else inf for k in range(n)
        ]
        heap: list[tuple[float, int, float]] = [
            (-score[k], k, score[k]) for k in range(n)
        ]
        heapq.heapify(heap)

        def select_one(k: int) -> None:
            nonlocal remaining
            chosen.append(k)
            active[k] = False
            remaining -= rem_real[k]
            for f in bundles[k]:
                held = holders[f]
                # a file only k holds touches no other candidate
                if len(held) < 2 or f in selected_files:
                    continue
                selected_files.add(f)
                af, sf = adj[f], sizes[f]
                for eid in held:
                    j = pos[eid]
                    if not active[j]:
                        continue
                    rem_adj[j] -= af
                    rem_real[j] -= sf
                    new = values[j] / rem_adj[j] if rem_adj[j] > _EPS else inf
                    score[j] = new
                    heapq.heappush(heap, (-new, j, new))

        while heap:
            _neg, k, snap = heapq.heappop(heap)
            if not active[k] or snap != score[k]:
                continue  # stale or already decided
            if rem_real[k] <= remaining + _EPS:
                select_one(k)
            else:
                active[k] = False  # skipped: insufficient space (Step 2)

        inst = FBCInstance.trusted(bundles, values, sizes, budget)
        return _finish(
            inst,
            chosen,
            safeguard=safeguard,
            free=frozenset(free),
            single=single,
            used=int(budget - remaining),  # exact, as in _select_refined
        )
