"""The incremental selection state vs the rebuild-per-arrival path.

The contract is *byte-for-byte* equivalence: an incremental planner and a
freshly-rebuilding planner fed the same arrival stream must produce equal
``LoadPlan`` dataclasses (including the backing ``CacheSelection``) at
every step, across truncation modes, value decay, and fault-injected
eviction notifications neither planner asked for.
"""

import random

import pytest

from repro.core.bundle import FileBundle
from repro.core.history import RequestHistory, TruncationMode
from repro.core.optcacheselect import FBCInstance, opt_cache_select
from repro.core.optfilebundle import OptFileBundlePlanner
from repro.core.selection_state import SelectionState
from repro.experiments.common import CACHE_SIZE, SCALES, bundle_trace


def _workload(seed=7, n_files=40, n_types=30, max_files=4):
    rng = random.Random(seed)
    files = [f"f{i:03d}" for i in range(n_files)]
    sizes = {f: rng.randint(1, 50) for f in files}
    types, seen = [], set()
    while len(types) < n_types:
        b = FileBundle(rng.sample(files, rng.randint(1, max_files)))
        if b.files in seen:
            continue
        seen.add(b.files)
        types.append(b)
    return rng, sizes, types


class TestDifferential:
    """Incremental planner ≡ rebuild planner, plan for plan."""

    @pytest.mark.parametrize(
        "truncation,window,decay",
        [
            (TruncationMode.CACHE_SUPPORTED, None, 1.0),
            (TruncationMode.FULL, None, 1.0),
            (TruncationMode.WINDOW, 13, 1.0),
            (TruncationMode.CACHE_SUPPORTED, None, 0.9),
            (TruncationMode.FULL, None, 0.85),
            (TruncationMode.WINDOW, 7, 0.95),
        ],
    )
    def test_plans_identical(self, truncation, window, decay):
        rng, sizes, types = _workload()
        capacity = sum(sizes.values()) // 3
        kwargs = dict(truncation=truncation, window=window, decay=decay)
        inc = OptFileBundlePlanner(capacity, sizes, incremental=True, **kwargs)
        reb = OptFileBundlePlanner(capacity, sizes, incremental=False, **kwargs)
        assert inc.incremental and not reb.incremental

        resident: set = set()
        for step in range(400):
            bundle = types[rng.randrange(len(types))]
            pa = inc.plan(bundle, resident)
            pb = reb.plan(bundle, resident)
            assert pa == pb, f"plans diverge at step {step}"
            inc.commit(pa)
            reb.commit(pb)
            resident -= pa.evict
            resident |= pa.load | pa.prefetch
            if step % 7 == 6 and resident:
                # a grid fault evicts a file neither planner chose
                victim = sorted(resident)[rng.randrange(len(resident))]
                resident.discard(victim)
                inc.observe_eviction(victim)
                reb.observe_eviction(victim)

    def test_low_overlap_operating_point(self):
        """Plans match where most candidate files have a single holder.

        ``_workload`` shares almost every file; this replays a smoke-size
        trace of the benchmark's shape (Zipf, files at most 1% of the
        cache), about 15 supported candidates of about 15 files each, so
        the greedy's single-holder skip decides most file visits.
        """
        trace = bundle_trace(
            SCALES["smoke"],
            popularity="zipf",
            cache_in_requests=8.0,
            max_file_fraction=0.01,
            seed=3,
        )
        sizes = trace.catalog.as_dict()
        inc = OptFileBundlePlanner(CACHE_SIZE, sizes, incremental=True)
        reb = OptFileBundlePlanner(CACHE_SIZE, sizes, incremental=False)
        rng = random.Random(17)
        resident: set = set()
        candidates = single = shared = 0
        for step, request in enumerate(trace):
            holders = inc.history.candidate_holders()
            candidates += len(inc.history.candidates())
            for held in holders.values():
                if len(held) == 1:
                    single += 1
                else:
                    shared += 1
            pa = inc.plan(request.bundle, resident)
            pb = reb.plan(request.bundle, resident)
            assert pa == pb, f"plans diverge at step {step}"
            inc.commit(pa)
            reb.commit(pb)
            resident -= pa.evict
            resident |= pa.load | pa.prefetch
            if step % 7 == 6 and resident:
                victim = sorted(resident)[rng.randrange(len(resident))]
                resident.discard(victim)
                inc.observe_eviction(victim)
                reb.observe_eviction(victim)
        steps = step + 1
        assert 10 <= candidates / steps <= 30  # the operating point
        assert single > 2 * shared  # the skip is the common case

    def test_select_matches_opt_cache_select(self):
        """SelectionState.select ≡ opt_cache_select on a fresh instance."""
        rng, sizes, types = _workload(seed=11)
        history = RequestHistory(TruncationMode.FULL)
        state = SelectionState(history, sizes)
        budget = sum(sizes.values()) // 4
        for i, b in enumerate(types):
            history.record(b)
            free = types[rng.randrange(len(types))].files if i % 3 else frozenset()
            got = state.select(budget, free=free)
            inst = FBCInstance.from_history(history, sizes, budget)
            want = opt_cache_select(inst, free_files=free)
            assert got == want


class TestNoRebuildOnWarmPath:
    """The warm plan() path must not rebuild per-arrival structures."""

    def test_plan_avoids_from_history_and_opt_cache_select(self, monkeypatch):
        _, sizes, types = _workload(seed=3)
        planner = OptFileBundlePlanner(
            sum(sizes.values()) // 3,
            sizes,
            truncation=TruncationMode.FULL,
            incremental=True,
        )
        for b in types:
            planner.history.record(b)

        def boom(*a, **k):  # any call would be a per-arrival rebuild
            raise AssertionError("warm plan() rebuilt selection inputs")

        import repro.core.optfilebundle as ofb

        monkeypatch.setattr(ofb.FBCInstance, "from_history", boom)
        monkeypatch.setattr(ofb, "opt_cache_select", boom)
        plan = planner.plan(types[0], set())
        assert plan.keep  # the selection still ran (via SelectionState)

    def test_listener_attaches_to_warm_history(self):
        _, sizes, types = _workload(seed=5)
        history = RequestHistory(TruncationMode.FULL)
        for b in types[:10]:
            history.record(b)
        state = SelectionState(history, sizes)  # replays existing entries
        assert [b for b in state._bundles] == [e.bundle for e in history.entries()]
        for b in types[10:]:
            history.record(b)
        assert len(state._bundles) == len(history)

    def test_warm_attach_selects_like_rebuild(self):
        """A state replayed onto a warm history selects like a fresh one.

        The replay meets entries whose later-eid sharers the history
        already indexes; only earlier ones may be refreshed.
        """
        rng, sizes, types = _workload(seed=8)
        history = RequestHistory(TruncationMode.FULL)
        for b in types:
            history.record(b)
        state = SelectionState(history, sizes)
        budget = sum(sizes.values()) // 4
        for b in types[:10]:
            got = state.select(budget, free=b.files)
            inst = FBCInstance.from_history(history, sizes, budget)
            assert got == opt_cache_select(inst, free_files=b.files)

    def test_rerecording_existing_type_does_not_notify(self):
        _, sizes, types = _workload(seed=6)
        history = RequestHistory(TruncationMode.FULL)
        state = SelectionState(history, sizes)
        history.record(types[0])
        before = len(state._bundles)
        history.record(types[0])  # same type: value bump only
        assert len(state._bundles) == before


def _holders_by_scan(history):
    want: dict = {}
    for entry in history.candidates():
        for f in entry.bundle:
            want.setdefault(f, []).append(entry.eid)
    return {f: sorted(eids) for f, eids in want.items()}


def _holder_index(history):
    return {f: sorted(eids) for f, eids in history.candidate_holders().items()}


class TestSupportedIndex:
    """_supported keeps CACHE_SUPPORTED candidates without history scans."""

    def test_matches_bruteforce_filter(self):
        rng, sizes, types = _workload(seed=9)
        history = RequestHistory(TruncationMode.CACHE_SUPPORTED)
        resident: set = set()
        files = sorted(sizes)
        for step in range(300):
            roll = rng.random()
            if roll < 0.4:
                history.record(types[rng.randrange(len(types))])
            elif roll < 0.7:
                f = files[rng.randrange(len(files))]
                resident.add(f)
                history.on_file_loaded(f)
            elif resident:
                f = sorted(resident)[rng.randrange(len(resident))]
                resident.discard(f)
                history.on_file_evicted(f)
            expected = [
                e for e in history.entries() if e.bundle.issubset(resident)
            ]
            assert history.candidates() == expected  # same entries, same order

    @pytest.mark.parametrize(
        "truncation,window",
        [
            (TruncationMode.CACHE_SUPPORTED, None),
            (TruncationMode.FULL, None),
            (TruncationMode.WINDOW, 9),
        ],
    )
    def test_holder_index_matches_bruteforce(self, truncation, window):
        """The candidate-holder index equals a scan of the candidates.

        Random arrivals (window churn in WINDOW mode), loads and
        evictions; checked after every step, on the live history, on a
        ``restore(export_state())`` copy fed the same steps from the
        middle on, and on a planner that adopted such a copy.
        """
        rng, sizes, types = _workload(seed=19)
        files = sorted(sizes)
        history = RequestHistory(truncation, window=window)
        copies: list[RequestHistory] = []
        resident: set = set()
        for step in range(300):
            roll = rng.random()
            if roll < 0.4:
                bundle = types[rng.randrange(len(types))]
                for h in [history, *copies]:
                    h.record(bundle)
            elif roll < 0.7:
                f = files[rng.randrange(len(files))]
                resident.add(f)
                for h in [history, *copies]:
                    h.on_file_loaded(f)
            elif resident:
                f = sorted(resident)[rng.randrange(len(resident))]
                resident.discard(f)
                for h in [history, *copies]:
                    h.on_file_evicted(f)
            if step == 150:
                restored = RequestHistory.restore(history.export_state())
                planner = OptFileBundlePlanner(sum(sizes.values()), sizes)
                planner.adopt_history(
                    RequestHistory.restore(history.export_state())
                )
                copies = [restored, planner.history]
            want = _holders_by_scan(history)
            for h in [history, *copies]:
                assert _holder_index(h) == want, f"index wrong at step {step}"

    def test_max_degree_matches_bruteforce(self):
        rng, sizes, types = _workload(seed=13)
        history = RequestHistory(TruncationMode.FULL)
        assert history.max_degree() == 0
        for b in types:
            history.record(b)
            degrees = history.degrees()
            assert history.max_degree() == max(degrees.values())


class TestTrustedConstruction:
    def test_trusted_equals_validated(self):
        _, sizes, types = _workload(seed=21)
        bundles = tuple(types[:8])
        values = tuple(float(i + 1) for i in range(8))
        budget = sum(sizes.values()) // 2
        fast = FBCInstance.trusted(bundles, values, sizes, budget)
        slow = FBCInstance(bundles, values, sizes, budget)
        assert fast == slow
        assert opt_cache_select(fast) == opt_cache_select(slow)
