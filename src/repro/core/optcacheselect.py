"""``OptCacheSelect`` — the greedy FBC heuristic (Algorithm 1 of the paper).

Given a collection of candidate requests with values ``v(r)`` over files with
sizes ``s(f)`` and degrees ``d(f)``, select a subset of requests of maximum
total value whose files fit in a byte budget.  Requests are served in
decreasing order of *adjusted relative value*

.. math::

    v'(r) = \\frac{v(r)}{\\sum_{f \\in F(r)} s(f) / d(f)}

skipping requests whose files do not fit, and the final answer is the better
of the greedy set and the single highest-value request (Step 3) — the
comparison that yields the proven ``½(1 − e^{−1/d})`` guarantee.

Two variants are provided, selected by ``refine``:

* ``refine=False`` — the literal algorithm: one sort, each request charged
  the full size of its bundle (shared files charged once per request).
* ``refine=True`` (default) — the paper's "Note" improvement: after each
  selection the sizes of already-selected files are treated as zero and the
  remaining requests re-ranked, so requests sharing files with the current
  solution become cheaper.  Implemented incrementally with an inverted
  file → candidate index, so a full re-sort per step is never materialised.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.core.bundle import FileBundle
from repro.core.history import RequestHistory
from repro.errors import ConfigError
from repro.types import FileId, SizeBytes

__all__ = ["FBCInstance", "CacheSelection", "opt_cache_select", "relative_value"]


@dataclass(frozen=True)
class FBCInstance:
    """One instance of the File-Bundle Caching problem.

    Attributes
    ----------
    bundles:
        Candidate request types.
    values:
        ``v(r)`` per candidate, parallel to ``bundles``.
    sizes:
        File sizes ``s(f)``; must cover every file referenced by a bundle.
    budget:
        Cache byte budget ``s(C)``.
    degrees:
        Optional file degrees ``d(f)``.  When omitted they are computed from
        the candidate bundles themselves; when selecting against a truncated
        candidate set, pass the *global* history degrees here (Section 5.2).
    """

    bundles: tuple[FileBundle, ...]
    values: tuple[float, ...]
    sizes: Mapping[FileId, SizeBytes]
    budget: SizeBytes
    degrees: Mapping[FileId, int] | None = None

    def __post_init__(self) -> None:
        if len(self.bundles) != len(self.values):
            raise ConfigError(
                f"{len(self.bundles)} bundles but {len(self.values)} values"
            )
        if self.budget < 0:
            raise ConfigError(f"budget must be non-negative, got {self.budget}")
        for v in self.values:
            if v <= 0:
                raise ConfigError(f"request values must be positive, got {v}")
        for bundle in self.bundles:
            for f in bundle:
                if f not in self.sizes:
                    raise ConfigError(f"no size known for file {f!r}")
                if self.sizes[f] <= 0:
                    raise ConfigError(f"file {f!r} has non-positive size")

    def __len__(self) -> int:
        return len(self.bundles)

    def effective_degrees(self, *, degree_blind: bool = False) -> dict[FileId, int]:
        """Degrees to use: supplied ones, else computed from the candidates.

        Supplied degrees are floored at the locally observed degree so a
        stale/partial mapping can never make an adjusted size non-positive.
        ``degree_blind=True`` returns all-ones — the ranking then uses raw
        file sizes (``v(r)/s(F(r))``), which the ranking ablation uses to
        isolate the contribution of the paper's ``s(f)/d(f)`` adjustment.
        """
        local: dict[FileId, int] = {}
        for bundle in self.bundles:
            for f in bundle:
                local[f] = local.get(f, 0) + 1
        if degree_blind:
            return {f: 1 for f in local}
        if self.degrees is None:
            return local
        return {f: max(local[f], int(self.degrees.get(f, 0))) for f in local}

    @staticmethod
    def trusted(
        bundles: tuple[FileBundle, ...],
        values: tuple[float, ...],
        sizes: Mapping[FileId, SizeBytes],
        budget: SizeBytes,
        degrees: Mapping[FileId, int] | None = None,
    ) -> "FBCInstance":
        """Construct without re-validating every (bundle, file) membership.

        ``__post_init__`` walks every file of every bundle; on the planner's
        hot path that validation re-proves invariants the
        :class:`~repro.core.history.RequestHistory` already maintains
        (positive values, catalog-covered positive sizes).  Use only with
        inputs whose invariants are structurally guaranteed.
        """
        inst = object.__new__(FBCInstance)
        object.__setattr__(inst, "bundles", bundles)
        object.__setattr__(inst, "values", values)
        object.__setattr__(inst, "sizes", sizes)
        object.__setattr__(inst, "budget", budget)
        object.__setattr__(inst, "degrees", degrees)
        return inst

    @staticmethod
    def from_history(
        history: RequestHistory,
        sizes: Mapping[FileId, SizeBytes],
        budget: SizeBytes,
    ) -> "FBCInstance":
        """Build an instance from a history's current candidate set.

        Values are the (possibly decayed) occurrence counters, degrees the
        global history degrees — exactly the paper's configuration.  The
        history guarantees positive values and the caller's size oracle is
        validated once at simulation setup, so construction goes through
        :meth:`trusted` instead of re-checking every membership per plan.
        """
        entries = history.candidates()
        if budget < 0:
            raise ConfigError(f"budget must be non-negative, got {budget}")
        return FBCInstance.trusted(
            bundles=tuple(e.bundle for e in entries),
            values=tuple(e.value for e in entries),
            sizes=sizes,
            budget=budget,
            degrees=history.degrees(),
        )


@dataclass(frozen=True)
class CacheSelection:
    """Result of :func:`opt_cache_select`.

    ``selected`` holds indices into the instance's candidate list; ``files``
    is the union of their bundles (the set ``F(Opt)`` to retain in cache);
    ``used_bytes`` is the real (union) byte footprint of ``files``;
    ``single_fallback`` is True when Step 3 replaced the greedy set with the
    single highest-value request.
    """

    selected: tuple[int, ...]
    bundles: tuple[FileBundle, ...]
    files: frozenset[FileId]
    total_value: float
    used_bytes: SizeBytes
    single_fallback: bool = False

    def __post_init__(self) -> None:
        if len(self.selected) != len(self.bundles):
            raise ConfigError("selected indices and bundles must be parallel")


def relative_value(
    value: float,
    bundle: FileBundle,
    sizes: Mapping[FileId, SizeBytes],
    degrees: Mapping[FileId, int],
) -> float:
    """The adjusted relative value ``v'(r)`` used for ranking.

    Files with unknown/zero degree are treated as degree 1 (the request at
    hand itself uses them).
    """
    adjusted = sum(sizes[f] / max(1, degrees.get(f, 1)) for f in bundle)
    if adjusted <= 0:
        raise ConfigError(f"bundle {bundle!r} has non-positive adjusted size")
    return value / adjusted


def _empty_selection() -> CacheSelection:
    return CacheSelection((), (), frozenset(), 0.0, 0)


def _marginal_size(
    inst: FBCInstance, bundle: FileBundle, free: frozenset[FileId]
) -> SizeBytes:
    return sum(inst.sizes[f] for f in bundle if f not in free)


def _best_single(
    inst: FBCInstance, free: frozenset[FileId] = frozenset()
) -> tuple[int, float] | None:
    """Index and value of the highest-value candidate fitting alone."""
    best: tuple[int, float] | None = None
    for i, bundle in enumerate(inst.bundles):
        if _marginal_size(inst, bundle, free) <= inst.budget:
            if best is None or inst.values[i] > best[1]:
                best = (i, inst.values[i])
    return best


_UNSET = object()


def _finish(
    inst: FBCInstance,
    chosen: list[int],
    *,
    safeguard: bool = True,
    free: frozenset[FileId] = frozenset(),
    single: "tuple[int, float] | None | object" = _UNSET,
    used: SizeBytes | None = None,
) -> CacheSelection:
    """Apply Step 3 (single-request safeguard) and assemble the result.

    ``used_bytes`` counts only bytes charged against the budget, i.e. files
    outside the ``free`` set.  ``single`` lets callers pass a precomputed
    best-single-request candidate to avoid a second scan, and ``used`` the
    greedy set's byte count when the caller already tracked it exactly.
    """
    total = sum(inst.values[i] for i in chosen)
    if not safeguard:
        best = None
    elif single is _UNSET:
        best = _best_single(inst, free)
    else:
        best = single  # type: ignore[assignment]
    if best is not None and best[1] > total:
        idx = best[0]
        bundle = inst.bundles[idx]
        return CacheSelection(
            selected=(idx,),
            bundles=(bundle,),
            files=frozenset(bundle.files),
            total_value=best[1],
            used_bytes=_marginal_size(inst, bundle, free),
            single_fallback=True,
        )
    files: set[FileId] = set()
    for i in chosen:
        files.update(inst.bundles[i].files)
    if used is None:
        used = sum(inst.sizes[f] for f in files if f not in free)
    return CacheSelection(
        selected=tuple(chosen),
        bundles=tuple(inst.bundles[i] for i in chosen),
        files=frozenset(files),
        total_value=total,
        used_bytes=used,
    )


def _select_plain(
    inst: FBCInstance,
    *,
    safeguard: bool = True,
    free: frozenset[FileId] = frozenset(),
    degree_blind: bool = False,
) -> CacheSelection:
    degrees = inst.effective_degrees(degree_blind=degree_blind)
    # Precompute the ranking key once per candidate; evaluating
    # relative_value inside the sort key would cost one adjusted-size sum
    # per key call rather than one per candidate.
    keys = [
        (
            -relative_value(inst.values[i], inst.bundles[i], inst.sizes, degrees),
            -inst.values[i],
            i,
        )
        for i in range(len(inst.bundles))
    ]
    order = sorted(range(len(inst.bundles)), key=keys.__getitem__)
    remaining = inst.budget
    chosen: list[int] = []
    for i in order:
        size = _marginal_size(inst, inst.bundles[i], free)
        if size <= remaining:
            chosen.append(i)
            remaining -= size
    return _finish(inst, chosen, safeguard=safeguard, free=free)


_EPS = 1e-12


def _select_refined(
    inst: FBCInstance,
    seed: Sequence[int] = (),
    *,
    safeguard: bool = True,
    free: frozenset[FileId] = frozenset(),
    degree_blind: bool = False,
) -> CacheSelection:
    """Refined greedy, optionally starting from pre-selected ``seed`` indices.

    ``seed`` is used by the partial-enumeration variant
    (:func:`repro.core.kenum.opt_cache_select_enum`); seeds whose union does
    not fit the budget raise :class:`~repro.errors.ConfigError`.  Files in
    ``free`` are charged zero bytes (they are already reserved in the cache
    by the caller — the paper's "set to 0 the size of files already in the
    cache").  With ``safeguard=False`` Step 3 (single-request comparison) is
    skipped, which the ablation benchmarks use to expose its effect.

    The greedy uses a lazy max-heap: a candidate's score ``v / rem_adj``
    only ever *increases* (selections shrink residual adjusted sizes), and
    every increase pushes a fresh heap entry, so each candidate's newest
    entry carries its exact current score and older entries are strictly
    dominated — popping the first up-to-date entry yields the true argmax.
    Total cost is O(M log M) in the number of (file, candidate)
    memberships, instead of a full rescan per selection round (this runs
    once per simulated job, so the constant matters).
    """
    degrees = inst.effective_degrees(degree_blind=degree_blind)
    sizes = inst.sizes
    n = len(inst.bundles)
    inf = float("inf")

    adj_size = {f: sizes[f] / degrees[f] for f in degrees}
    rem_adj = [0.0] * n
    rem_real = [0.0] * n
    containing: dict[FileId, list[int]] = {}
    for i, bundle in enumerate(inst.bundles):
        a = r = 0.0
        for f in bundle:
            if f in free:
                continue
            a += adj_size[f]
            r += sizes[f]
            containing.setdefault(f, []).append(i)
        rem_adj[i] = a
        rem_real[i] = r

    values = inst.values
    active = [True] * n
    selected_files: set[FileId] = set(free)
    remaining = float(inst.budget)
    chosen: list[int] = []

    # Step 3 needs the best *initially fitting* single request; capture it
    # from the untouched residual sizes before the greedy mutates them.
    single: tuple[int, float] | None = None
    if safeguard:
        budget = inst.budget + _EPS
        for i in range(n):
            if rem_real[i] <= budget and (single is None or values[i] > single[1]):
                single = (i, values[i])

    score = [values[i] / rem_adj[i] if rem_adj[i] > _EPS else inf for i in range(n)]
    # Max-heap of (-score, index, score snapshot); stale entries are the
    # ones whose snapshot no longer matches score[i].
    heap: list[tuple[float, int, float]] = [(-score[i], i, score[i]) for i in range(n)]
    heapq.heapify(heap)

    def select(i: int) -> None:
        nonlocal remaining
        chosen.append(i)
        active[i] = False
        remaining -= rem_real[i]
        for f in inst.bundles[i]:
            if f in selected_files:
                continue
            selected_files.add(f)
            af, sf = adj_size[f], sizes[f]
            for j in containing[f]:
                if not active[j]:
                    continue
                rem_adj[j] -= af
                rem_real[j] -= sf
                new = values[j] / rem_adj[j] if rem_adj[j] > _EPS else inf
                score[j] = new
                heapq.heappush(heap, (-new, j, new))

    for i in seed:
        if not active[i]:
            raise ConfigError(f"duplicate seed index {i}")
        if rem_real[i] > remaining + _EPS:
            raise ConfigError(f"seed index {i} does not fit the budget")
        select(i)

    while heap:
        _neg, i, snap = heapq.heappop(heap)
        if not active[i] or snap != score[i]:
            continue  # stale or already decided
        if rem_real[i] <= remaining + _EPS:
            select(i)
        else:
            active[i] = False  # skipped: insufficient space (Step 2)
    # each selection charged exactly its not-yet-charged bytes (integer
    # sizes sum exactly in float below 2**53), so the budget left gives
    # the union's bytes without a second pass
    return _finish(
        inst,
        chosen,
        safeguard=safeguard,
        free=free,
        single=single,
        used=int(inst.budget - remaining),
    )


def opt_cache_select(
    inst: FBCInstance,
    *,
    refine: bool = True,
    safeguard: bool = True,
    free_files: frozenset[FileId] = frozenset(),
    degree_blind: bool = False,
) -> CacheSelection:
    """Run ``OptCacheSelect`` on an FBC instance.

    Parameters
    ----------
    inst:
        The candidate requests, file sizes/degrees and byte budget.
    refine:
        Use the paper's recompute-and-resort improvement (default True).
    safeguard:
        Apply Step 3 (compare against the best single request); disabling it
        is only meant for the ablation study of that design choice.
    free_files:
        Files already reserved by the caller (e.g. the incoming request's
        bundle in ``OptFileBundle``); they are charged zero bytes.
    degree_blind:
        Rank by ``v(r)/s(F(r))`` without the paper's ``1/d(f)`` degree
        adjustment (ranking ablation only).

    Returns
    -------
    CacheSelection
        The requests to support and the file set ``F(Opt)`` to retain.
        ``used_bytes`` (bytes charged outside ``free_files``) never exceeds
        ``inst.budget``.
    """
    if len(inst) == 0 or inst.budget <= 0:
        return _empty_selection()
    if refine:
        return _select_refined(
            inst, safeguard=safeguard, free=free_files, degree_blind=degree_blind
        )
    return _select_plain(
        inst, safeguard=safeguard, free=free_files, degree_blind=degree_blind
    )
