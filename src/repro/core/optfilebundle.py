"""``OptFileBundle`` — the online replacement planner (Algorithm 2).

On every request arrival:

1. Compute ``S``, the space needed by the missing files of the new bundle.
2. Run :func:`~repro.core.optcacheselect.opt_cache_select` over the history
   candidates with the remainder of the cache as budget to pick the file set
   ``F(Opt)`` worth retaining.  We reserve the *whole* new bundle (not just
   its missing part) and hand the bundle's files to the selector as
   zero-cost ``free_files``: this is the paper's "set to 0 the size of files
   already in the cache" refinement and guarantees
   ``|F(Opt) ∪ F(r_new)| ≤ s(C)`` even when the new bundle is partially
   resident.
3. Evict what is not worth keeping, load the missing files (plus, under
   FULL/WINDOW history truncation, any selected files that are not resident
   — Algorithm 2's ``F(Opt) \\ F(C)`` prefetch).
4. Update ``L(R)`` with the new request.

The planner is pure with respect to the cache: :meth:`plan` computes a
:class:`LoadPlan` against a caller-supplied resident set, and
:meth:`commit` applies the history/bookkeeping side effects once the caller
has executed the plan.  The cache-policy adapter in
:mod:`repro.cache.optbundle_policy` wires this into the simulator.

Eviction laziness
-----------------
Algorithm 2 as drawn in Fig. 4 replaces the cache content by
``F(Opt) ∪ F(r_new)`` wholesale.  Evicting a clean cached file is free,
but re-loading it later is not, so this implementation defaults to *lazy*
eviction: only enough unselected files are evicted to fit the new load,
victims ordered by (history degree asc, size desc, id) — least-shared,
bulkiest first.  ``eager_evict=True`` restores the literal behaviour; the
ablation benchmark compares the two.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Mapping

from repro.core.bundle import FileBundle
from repro.core.history import RequestHistory, TruncationMode
from repro.core.optcacheselect import (
    CacheSelection,
    FBCInstance,
    opt_cache_select,
)
from repro.core.selection_state import SelectionState
from repro.errors import CacheCapacityError, ConfigError
from repro.telemetry import current_recorder
from repro.types import FileId, SizeBytes

__all__ = ["LoadPlan", "OptFileBundlePlanner"]


@dataclass(frozen=True)
class LoadPlan:
    """What to do to the cache for one arriving request.

    Attributes
    ----------
    bundle:
        The arriving request's bundle.
    load:
        Missing files of the bundle that must be fetched (a *miss* cost).
    prefetch:
        Selected-but-not-resident files to fetch in addition (only non-empty
        under FULL/WINDOW truncation); also a byte cost.
    evict:
        Files to remove from the cache before loading.
    keep:
        The intended resident set after the plan is applied.
    selection:
        The raw ``OptCacheSelect`` output backing the plan.
    request_hit:
        True when the bundle was fully resident (no ``load`` needed).
    """

    bundle: FileBundle
    load: frozenset[FileId]
    prefetch: frozenset[FileId]
    evict: frozenset[FileId]
    keep: frozenset[FileId]
    selection: CacheSelection
    request_hit: bool

    @property
    def bytes_to_fetch(self) -> tuple[frozenset[FileId], frozenset[FileId]]:
        return self.load, self.prefetch


class OptFileBundlePlanner:
    """Stateful ``OptFileBundle`` algorithm bound to one cache's lifetime.

    Parameters
    ----------
    capacity:
        Cache size ``s(C)`` in bytes.
    sizes:
        File-size oracle ``s(f)``; any mapping covering all requested files.
    truncation / window:
        History truncation mode (Section 5.2); default ``CACHE_SUPPORTED``,
        the configuration used for the paper's main experiments.
    refine:
        Use the recompute refinement inside ``OptCacheSelect``.
    safeguard:
        Keep Algorithm 1's Step 3 single-request comparison.
    decay:
        Optional exponential value decay (extension; 1.0 = paper behaviour).
    eager_evict:
        Evict everything outside ``F(Opt) ∪ F(r_new)`` as in Fig. 4(d)
        instead of only what is needed for space.
    incremental:
        Keep a persistent :class:`~repro.core.selection_state.SelectionState`
        (cached adjusted sizes, read beside the history's candidate-holder
        index) updated as the history evolves, instead of rebuilding the
        selection inputs from scratch on every arrival (default True;
        produces bit-identical plans).  Only effective with ``refine=True`` and
        ``degree_blind=False`` — the ablation paths fall back to the
        rebuild implementation.
    """

    def __init__(
        self,
        capacity: SizeBytes,
        sizes: Mapping[FileId, SizeBytes],
        *,
        truncation: TruncationMode = TruncationMode.CACHE_SUPPORTED,
        window: int | None = None,
        refine: bool = True,
        safeguard: bool = True,
        decay: float = 1.0,
        eager_evict: bool = False,
        degree_blind: bool = False,
        incremental: bool = True,
    ):
        if capacity <= 0:
            raise ConfigError(f"cache capacity must be positive, got {capacity}")
        self._capacity = int(capacity)
        self._sizes = sizes
        self._refine = refine
        self._safeguard = safeguard
        self._eager = eager_evict
        self._degree_blind = degree_blind
        self._history = RequestHistory(truncation, window=window, decay=decay)
        # Planners are constructed inside the simulator's recorder
        # context (policy.bind), so capturing the ambient recorder here
        # keeps the per-plan profiling span off the ContextVar lookup.
        self._recorder = current_recorder()
        self._state: SelectionState | None = None
        if incremental and refine and not degree_blind:
            self._state = SelectionState(self._history, sizes)

    # ------------------------------------------------------------------ #

    @property
    def capacity(self) -> SizeBytes:
        return self._capacity

    @property
    def history(self) -> RequestHistory:
        return self._history

    @property
    def incremental(self) -> bool:
        """Whether plans are served from the persistent selection state."""
        return self._state is not None

    def score(self, bundle: FileBundle) -> float:
        """Adjusted relative value ``v'`` of a bundle under current history.

        Used by the admission-queue scheduler (Fig. 9): the queued request
        with the highest score is served first.  Unseen bundles score with
        value 1 (their first occurrence counts itself).
        """
        value = max(self._history.value_of(bundle), 0.0) + 1.0
        degree = self._history.degree
        sizes = self._sizes
        adjusted = sum(sizes[f] / max(1, degree(f)) for f in bundle)
        return value / adjusted

    # ------------------------------------------------------------------ #

    def plan(
        self,
        bundle: FileBundle,
        resident: AbstractSet[FileId],
        *,
        pinned: AbstractSet[FileId] = frozenset(),
    ) -> LoadPlan:
        """Compute the replacement decision for one arrival (Steps 1–3).

        ``resident`` is the current cache content; ``pinned`` files (in use
        by concurrently serviced jobs) are never chosen as eviction
        victims.  Raises :class:`~repro.errors.CacheCapacityError` when the
        bundle alone cannot fit in the cache, or when pins leave too little
        evictable space.
        """
        bundle_size = bundle.size_under(self._sizes)
        if bundle_size > self._capacity:
            raise CacheCapacityError(bundle_size, self._capacity)

        missing = bundle.missing_from(resident)
        budget = self._capacity - bundle_size

        with self._recorder.span("optbundle.plan"):
            if self._state is not None:
                selection = self._state.select(
                    budget, free=bundle.files, safeguard=self._safeguard
                )
            else:
                inst = FBCInstance.from_history(self._history, self._sizes, budget)
                selection = opt_cache_select(
                    inst,
                    refine=self._refine,
                    safeguard=self._safeguard,
                    free_files=bundle.files,
                    degree_blind=self._degree_blind,
                )

        keep = frozenset(selection.files | bundle.files)
        prefetch = frozenset(selection.files - resident - bundle.files)
        evict = self._choose_victims(resident, keep, missing, prefetch, pinned)
        return LoadPlan(
            bundle=bundle,
            load=missing,
            prefetch=prefetch,
            evict=evict,
            keep=keep,
            selection=selection,
            request_hit=not missing,
        )

    def _choose_victims(
        self,
        resident: AbstractSet[FileId],
        keep: frozenset[FileId],
        missing: frozenset[FileId],
        prefetch: frozenset[FileId],
        pinned: AbstractSet[FileId],
    ) -> frozenset[FileId]:
        unselected = resident - keep - pinned
        sizes = self._sizes
        size = sizes.__getitem__  # map() sums in C: ~170 residents per call
        used = sum(map(size, resident))
        need = sum(map(size, missing)) + sum(map(size, prefetch))
        if self._eager:
            left = used - sum(map(size, unselected))
            if left + need > self._capacity:
                raise CacheCapacityError(left + need - self._capacity, 0)
            return frozenset(unselected)
        overflow = used + need - self._capacity
        if overflow <= 0:
            return frozenset()
        victims: list[FileId] = []
        degree = self._history.degree
        for f in sorted(unselected, key=lambda f: (degree(f), -sizes[f], f)):
            victims.append(f)
            overflow -= sizes[f]
            if overflow <= 0:
                break
        if overflow > 0:
            # Pinned files of concurrent jobs leave too little evictable
            # space; the caller defers the job until a pin is released.
            raise CacheCapacityError(
                overflow, 0, "victim selection could not free enough space"
            )
        return frozenset(victims)

    def commit(self, plan: LoadPlan) -> None:
        """Apply Step 4: record the request and sync the support index."""
        for f in plan.evict:
            self._history.on_file_evicted(f)
        self._history.record(plan.bundle)
        for f in plan.load:
            self._history.on_file_loaded(f)
        for f in plan.prefetch:
            self._history.on_file_loaded(f)

    def adopt_history(self, history: RequestHistory) -> None:
        """Swap in a restored history (checkpoint recovery).

        The persistent selection state, when enabled, is rebuilt against
        the new history — its listener replay walks entries in ``eid``
        order, so the rebuilt structures match what incremental
        maintenance would have produced.
        """
        self._history = history
        if self._state is not None:
            self._state = SelectionState(history, self._sizes)

    def observe_eviction(self, file_id: FileId) -> None:
        """Notify the planner of an eviction it did not itself plan."""
        self._history.on_file_evicted(file_id)

    def observe_load(self, file_id: FileId) -> None:
        """Notify the planner of a load it did not itself plan."""
        self._history.on_file_loaded(file_id)
