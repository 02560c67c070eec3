"""The bench overhead estimator and the committed bench record.

:func:`repro.experiments.bench._paired_overhead` is driven here by a
fake clock that the run closures advance themselves, so the estimator's
protocol (warm-up, alternating order, median ratio, contract units, GC
pause) is checked exactly, with no timing noise.  The committed
``BENCH_core.json`` must carry the schema the code writes, so the record
cannot go stale silently.
"""

import gc
import json
from pathlib import Path

import pytest

from repro.errors import ConfigError
from repro.experiments import bench

ROOT = Path(__file__).resolve().parents[1]


class _Clock:
    """Stands in for the ``time`` module: only ``perf_counter`` is read."""

    def __init__(self) -> None:
        self.now = 0.0

    def perf_counter(self) -> float:
        return self.now


@pytest.fixture
def clock(monkeypatch):
    fake = _Clock()
    monkeypatch.setattr(bench, "time", fake)
    return fake


def _side(clock, name, costs, calls):
    """A run closure that logs ``name`` and advances the clock per call."""
    costs = iter(costs)

    def run():
        calls.append(name)
        clock.now += next(costs)

    return run


def test_committed_record_has_current_schema():
    record = json.loads((ROOT / "BENCH_core.json").read_text())
    assert record["schema_version"] == bench.BENCH_SCHEMA_VERSION


class TestPairedOverhead:
    def test_warmup_then_alternating_pairs(self, clock):
        calls: list[str] = []
        m = bench._paired_overhead(
            _side(clock, "b", [1.0] * 5, calls),
            _side(clock, "t", [1.25] * 5, calls),
            pairs=4,
            unit=bench._time_increase,
        )
        # one untimed warm-up per side, then the order flips every pair
        assert calls == ["b", "t", "b", "t", "t", "b", "b", "t", "t", "b"]
        assert m.baseline_s == pytest.approx(1.0)
        assert m.treated_s == pytest.approx(1.25)
        assert m.overhead == pytest.approx(0.25)
        assert m.ci == pytest.approx((0.25, 0.25))

    def test_throughput_drop_unit(self, clock):
        calls: list[str] = []
        m = bench._paired_overhead(
            _side(clock, "b", [1.0] * 4, calls),
            _side(clock, "t", [1.25] * 4, calls),
            pairs=3,
            unit=bench._throughput_drop,
        )
        # the same 1.25x run time is a 20% jobs/sec drop
        assert m.overhead == pytest.approx(0.2)
        assert m.ci == pytest.approx((0.2, 0.2))

    def test_outlier_pairs_do_not_move_the_median(self, clock):
        calls: list[str] = []
        treated = [1.1, 1.1, 3.0, 0.5, 3.0, 1.1]  # warm-up first
        m = bench._paired_overhead(
            _side(clock, "b", [1.0] * 6, calls),
            _side(clock, "t", treated, calls),
            pairs=5,
            unit=bench._time_increase,
        )
        assert m.overhead == pytest.approx(0.1)
        # the bootstrap CI of the mean does see the two noisy pairs
        assert m.ci[1] > 0.5

    def test_gc_paused_while_timing_and_restored(self, clock):
        seen: list[bool] = []

        def run():
            seen.append(gc.isenabled())
            clock.now += 1.0

        assert gc.isenabled()
        bench._paired_overhead(run, run, pairs=2, unit=bench._time_increase)
        assert seen == [True, True, False, False, False, False]
        assert gc.isenabled()

    def test_gc_restored_when_a_run_raises(self, clock):
        def boom():
            if not gc.isenabled():
                raise RuntimeError("run failed")

        with pytest.raises(RuntimeError):
            bench._paired_overhead(boom, boom, pairs=1, unit=bench._time_increase)
        assert gc.isenabled()

    def test_pairs_validated(self, clock):
        with pytest.raises(ConfigError, match="pairs"):
            bench._paired_overhead(
                lambda: None, lambda: None, pairs=0, unit=bench._time_increase
            )
