"""The request-history data structure ``L(R)`` (Section 3 of the paper).

``L(R)`` stores, for every request type (bundle) ever serviced, its value
``v(r)`` — by default an occurrence counter — together with its file set.
From it the algorithms derive the *degree* ``d(f)`` of each file (the number
of distinct request types that use it) and the *adjusted* sizes and values
driving ``OptCacheSelect``.

Truncation (Section 5.2, "Request History Length")
--------------------------------------------------
Maintaining and re-ranking the full history on every arrival is expensive,
so the paper studies truncations and settles on considering only *requests
supported by the cache* as selection candidates, "while obtaining the
request popularity and the degree of file sharing from the global history".
This module therefore always keeps global counters (cheap dictionaries) and
lets the candidate set be restricted three ways:

* ``TruncationMode.FULL`` — every request type ever seen is a candidate;
* ``TruncationMode.WINDOW`` — only types seen in the last *W* arrivals;
* ``TruncationMode.CACHE_SUPPORTED`` — only types whose files are all
  resident (given the resident set the caller maintains through
  :meth:`RequestHistory.on_file_loaded` / :meth:`on_file_evicted`); an
  incremental missing-file counter makes this O(degree) per cache change
  instead of O(history) per arrival, and a ``_supported`` index keeps
  :meth:`RequestHistory.candidates` at O(|supported|) per query instead of
  an O(history) filter.

The candidate-holder index
--------------------------
Besides the global file → entry index (every entry ever recorded, which
drives support updates), the history keeps the *candidate-holder* index:
file → ids of the **current candidates** whose bundle holds the file.  It
changes only where an entry joins or leaves the candidate set — where it
enters or leaves ``_supported`` (CACHE_SUPPORTED), at :meth:`record` of a
new type (FULL), or when a type's window count goes 0 → 1 or 1 → 0
(WINDOW) — about once per arrival, O(|bundle|) each; :meth:`restore`
rebuilds it.  The greedy reads it to skip every file no other candidate
holds.  A holder list's order follows the caller's load order (a
frozenset's); :mod:`repro.core.selection_state` explains why that order
cannot reach a plan.

Entries carry a stable integer id (``eid``, assigned in first-seen order)
so downstream incremental structures — notably
:class:`repro.core.selection_state.SelectionState` — can index candidates
without rebuilding per arrival; such structures subscribe to new-entry
events via :meth:`RequestHistory.add_listener`.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import AbstractSet, Iterable

from repro.core.bundle import FileBundle
from repro.errors import ConfigError
from repro.types import FileId

__all__ = ["TruncationMode", "HistoryEntry", "RequestHistory"]


class TruncationMode(enum.Enum):
    """Which request types are offered to ``OptCacheSelect`` as candidates."""

    FULL = "full"
    WINDOW = "window"
    CACHE_SUPPORTED = "cache"


@dataclass(slots=True)
class HistoryEntry:
    """Per-request-type record held in ``L(R)``.

    ``value`` is ``v(r)``: the paper's occurrence counter, optionally
    priority-weighted and/or exponentially decayed (extensions).
    """

    bundle: FileBundle
    eid: int = -1
    value: float = 0.0
    count: int = 0
    first_seen: int = -1
    last_seen: int = -1
    _last_decay_tick: int = field(default=0, repr=False)


class RequestHistory:
    """Incrementally maintained ``L(R)`` with candidate truncation.

    Parameters
    ----------
    mode:
        Candidate truncation policy (default: ``CACHE_SUPPORTED``, the
        configuration the paper uses for all experiments after Fig. 5).
    window:
        Arrival-window length, required iff ``mode`` is ``WINDOW``.
    decay:
        Optional per-arrival multiplicative value decay in ``(0, 1]``;
        ``1.0`` (default) reproduces the paper's pure counter.  Decay is an
        extension used by the value-function ablation.
    """

    def __init__(
        self,
        mode: TruncationMode = TruncationMode.CACHE_SUPPORTED,
        *,
        window: int | None = None,
        decay: float = 1.0,
    ):
        if mode is TruncationMode.WINDOW:
            if window is None or window <= 0:
                raise ConfigError("WINDOW truncation requires a positive window")
        elif window is not None:
            raise ConfigError("window is only meaningful with TruncationMode.WINDOW")
        if not (0.0 < decay <= 1.0):
            raise ConfigError(f"decay must be in (0, 1], got {decay}")
        self._mode = mode
        self._window = window
        self._decay = decay
        self._tick = 0  # number of arrivals recorded

        self._entries: dict[FileBundle, HistoryEntry] = {}
        self._degree: dict[FileId, int] = {}
        self._max_degree = 0  # degrees only grow, so the max is incremental
        # file -> entries whose bundle contains it; drives support updates
        self._by_file: dict[FileId, list[HistoryEntry]] = {}
        # incremental-structure subscribers (see add_listener)
        self._listeners: list = []

        # file -> eids of the current candidates holding it (module docstring)
        self._holders: dict[FileId, list[int]] = {}

        # CACHE_SUPPORTED bookkeeping
        self._resident: set[FileId] = set()
        # eid -> number of the entry's files not resident
        self._missing: list[int] = []
        # eid -> entry for every entry with zero missing files (kept only
        # where it is the candidate set); sorting the (integer) keys
        # restores first-seen order without scanning history
        self._supported: dict[int, HistoryEntry] = {}
        self._track_support = mode is TruncationMode.CACHE_SUPPORTED

        # WINDOW bookkeeping
        self._window_arrivals: deque[FileBundle] = deque()
        self._window_counts: dict[FileBundle, int] = {}

    # ------------------------------------------------------------------ #
    # recording arrivals

    def record(self, bundle: FileBundle, *, weight: float = 1.0) -> HistoryEntry:
        """Record one arrival of ``bundle`` with importance ``weight``.

        Creates the entry (updating file degrees) on first sight; otherwise
        bumps the counter/value.  Returns the up-to-date entry.
        """
        if weight <= 0:
            raise ConfigError(f"weight must be positive, got {weight}")
        self._tick += 1
        entry = self._entries.get(bundle)
        if entry is None:
            entry = HistoryEntry(
                bundle=bundle, eid=len(self._entries), first_seen=self._tick
            )
            entry._last_decay_tick = self._tick
            self._register(entry, self._resident)
            if self._mode is TruncationMode.FULL:
                self._enter(entry)
            for listener in self._listeners:
                listener.on_entry_added(entry)
        self._apply_decay(entry)
        entry.value += weight
        entry.count += 1
        entry.last_seen = self._tick

        if self._mode is TruncationMode.WINDOW:
            self._window_arrivals.append(bundle)
            seen = self._window_counts.get(bundle, 0)
            self._window_counts[bundle] = seen + 1
            if not seen:
                self._enter(entry)
            assert self._window is not None
            while len(self._window_arrivals) > self._window:
                old = self._window_arrivals.popleft()
                remaining = self._window_counts[old] - 1
                if remaining:
                    self._window_counts[old] = remaining
                else:
                    del self._window_counts[old]
                    self._leave(self._entries[old])
        return entry

    def _register(self, entry: HistoryEntry, resident: AbstractSet[FileId]) -> None:
        """Index a new entry: degrees, the global file index, support."""
        bundle = entry.bundle
        self._entries[bundle] = entry
        by_file = self._by_file
        degree = self._degree
        for f in bundle:
            d = degree.get(f, 0) + 1
            degree[f] = d
            if d > self._max_degree:
                self._max_degree = d
            by_file.setdefault(f, []).append(entry)
        missing = sum(1 for f in bundle if f not in resident)
        self._missing.append(missing)
        if missing == 0 and self._track_support:
            self._supported[entry.eid] = entry
            self._enter(entry)

    def _enter(self, entry: HistoryEntry) -> None:
        """``entry`` joined the candidate set: add it to the holder index."""
        eid = entry.eid
        holders = self._holders
        for f in entry.bundle:
            held = holders.get(f)
            if held is None:
                holders[f] = [eid]
            else:
                held.append(eid)

    def _leave(self, entry: HistoryEntry) -> None:
        """``entry`` left the candidate set: drop it from the holder index."""
        eid = entry.eid
        holders = self._holders
        for f in entry.bundle:
            held = holders[f]
            if len(held) == 1:
                del holders[f]
            else:
                held.remove(eid)

    def _apply_decay(self, entry: HistoryEntry) -> None:
        if self._decay >= 1.0:
            return
        elapsed = self._tick - entry._last_decay_tick
        if elapsed > 0:
            entry.value *= self._decay**elapsed
        entry._last_decay_tick = self._tick

    # ------------------------------------------------------------------ #
    # resident-set notifications (CACHE_SUPPORTED truncation)

    def on_file_loaded(self, file_id: FileId) -> None:
        """Tell the history a file became resident in the cache."""
        if file_id in self._resident:
            return
        self._resident.add(file_id)
        missing = self._missing
        for entry in self._by_file.get(file_id, ()):
            eid = entry.eid
            left = missing[eid] - 1
            missing[eid] = left
            if left == 0 and self._track_support:
                self._supported[eid] = entry
                self._enter(entry)

    def on_file_evicted(self, file_id: FileId) -> None:
        """Tell the history a file left the cache."""
        if file_id not in self._resident:
            return
        self._resident.discard(file_id)
        missing = self._missing
        for entry in self._by_file.get(file_id, ()):
            eid = entry.eid
            if missing[eid] == 0 and self._track_support:
                del self._supported[eid]
                self._leave(entry)
            missing[eid] += 1

    def sync_resident(self, resident: Iterable[FileId]) -> None:
        """Replace the resident view wholesale (used at (re)initialisation).

        Sorted so the `_supported` and holder indexes are rebuilt in a
        reproducible insertion order regardless of the set hash seed.
        """
        target = set(resident)
        for f in sorted(self._resident - target):
            self.on_file_evicted(f)
        for f in sorted(target - self._resident):
            self.on_file_loaded(f)

    # ------------------------------------------------------------------ #
    # incremental-structure subscription

    def add_listener(self, listener) -> None:
        """Subscribe an incremental structure to new-entry events.

        ``listener.on_entry_added(entry)`` is invoked once per *new*
        request type, after the entry, its degrees and its support state
        are fully registered.  Entries already present at subscription
        time are replayed immediately (in ``eid`` order), so a listener
        may attach to a warm history.
        """
        for entry in self._entries.values():
            listener.on_entry_added(entry)
        self._listeners.append(listener)

    # ------------------------------------------------------------------ #
    # queries

    @property
    def mode(self) -> TruncationMode:
        return self._mode

    @property
    def arrivals(self) -> int:
        """Total number of arrivals recorded."""
        return self._tick

    def __len__(self) -> int:
        """Number of distinct request types in the global history."""
        return len(self._entries)

    def __contains__(self, bundle: FileBundle) -> bool:
        return bundle in self._entries

    def entry(self, bundle: FileBundle) -> HistoryEntry:
        return self._entries[bundle]

    def value_of(self, bundle: FileBundle) -> float:
        """Current (decayed) value ``v(r)``; 0.0 for unseen bundles."""
        entry = self._entries.get(bundle)
        if entry is None:
            return 0.0
        self._apply_decay(entry)
        return entry.value

    def degree(self, file_id: FileId) -> int:
        """``d(f)``: number of distinct request types using ``file_id``."""
        return self._degree.get(file_id, 0)

    def degrees(self) -> dict[FileId, int]:
        """A copy of the full degree mapping."""
        return dict(self._degree)

    def max_degree(self) -> int:
        """``d``: the largest file degree in the history (0 when empty).

        Maintained incrementally in :meth:`record` (degrees only ever
        grow), so this is O(1) rather than a scan over all files.
        """
        return self._max_degree

    def entries(self) -> list[HistoryEntry]:
        """All entries of the global history (no truncation)."""
        return list(self._entries.values())

    def containing(self, file_id: FileId) -> list[HistoryEntry]:
        """Every entry holding ``file_id``, in ``eid`` order (live; read only)."""
        return self._by_file.get(file_id, [])

    def candidate_holders(self) -> dict[FileId, list[int]]:
        """File → eids of the current candidates holding it (live; read only).

        Equals ``{f: [e.eid for e in candidates() if f in e.bundle]}`` over
        the files some candidate holds, up to list order.
        """
        return self._holders

    def candidates(self) -> list[HistoryEntry]:
        """Entries eligible for ``OptCacheSelect`` under the truncation mode.

        For ``CACHE_SUPPORTED``, these are exactly the request types whose
        files are all currently resident according to the notifications the
        caller delivered, read from the incrementally maintained
        ``_supported`` index in first-seen order — O(|supported|), never a
        filter over the whole history.
        """
        result = self._candidate_entries()
        if self._decay < 1.0:
            for entry in result:
                self._apply_decay(entry)
        return result

    def _candidate_entries(self) -> list[HistoryEntry]:
        """The candidate entries in :meth:`candidates` order, undecayed."""
        if self._mode is TruncationMode.FULL:
            return list(self._entries.values())
        if self._mode is TruncationMode.WINDOW:
            return [self._entries[b] for b in self._window_counts]
        return [self._supported[eid] for eid in sorted(self._supported)]

    def supported(self, bundle: FileBundle) -> bool:
        """Whether every file of a known bundle is currently resident."""
        entry = self._entries.get(bundle)
        if entry is None:
            return bundle.issubset(self._resident)
        return self._missing[entry.eid] == 0

    def resident_view(self) -> frozenset[FileId]:
        """The resident set as last synchronised (debug/verification aid)."""
        return frozenset(self._resident)

    # ------------------------------------------------------------------ #
    # durable state (checkpoint/restore)

    def export_state(self) -> dict:
        """JSON-able snapshot restoring byte-identical future behaviour.

        Only primary state is serialized: entries in ``eid`` order (their
        dict insertion order), the arrival tick, the resident view and the
        window structures.  Degrees, the per-file index, the supported
        index and the candidate-holder index are derived and rebuilt on
        :meth:`restore`.  The window
        *count* mapping is exported with its key order because
        :meth:`candidates` iterates it — the order is not derivable from
        the arrivals deque.
        """
        # a bundle iterates its files in sorted order (a pre-sorted
        # tuple), so list(bundle) is sorted(bundle.files) without the sort
        entries = [
            {
                "files": list(e.bundle),
                "value": e.value,
                "count": e.count,
                "first_seen": e.first_seen,
                "last_seen": e.last_seen,
                "decay_tick": e._last_decay_tick,
            }
            for e in self._entries.values()
        ]
        return {
            "mode": self._mode.value,
            "window": self._window,
            "decay": self._decay,
            "tick": self._tick,
            "entries": entries,
            "resident": sorted(self._resident),
            "window_arrivals": [list(b) for b in self._window_arrivals],
            "window_counts": [[list(b), n] for b, n in self._window_counts.items()],
        }

    @classmethod
    def restore(cls, state: dict) -> "RequestHistory":
        """Rebuild a history from an :meth:`export_state` snapshot."""
        hist = cls(
            TruncationMode(state["mode"]),
            window=state["window"],
            decay=float(state["decay"]),
        )
        resident = set(str(f) for f in state["resident"])
        for rec in state["entries"]:
            bundle = FileBundle(rec["files"])
            entry = HistoryEntry(
                bundle=bundle,
                eid=len(hist._entries),
                value=float(rec["value"]),
                count=int(rec["count"]),
                first_seen=int(rec["first_seen"]),
                last_seen=int(rec["last_seen"]),
            )
            entry._last_decay_tick = int(rec["decay_tick"])
            hist._register(entry, resident)
        hist._resident = resident
        hist._tick = int(state["tick"])
        for files in state["window_arrivals"]:
            hist._window_arrivals.append(FileBundle(files))
        for files, n in state["window_counts"]:
            hist._window_counts[FileBundle(files)] = int(n)
        if not hist._track_support:  # _register already indexed supported ones
            for entry in hist._candidate_entries():
                hist._enter(entry)
        return hist
