"""Unit tests for the telemetry package: events, sinks, metrics, recorder."""

import enum
import json
import math
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError, TelemetryError
from repro.telemetry import (
    EVENT_SCHEMA,
    EVENT_TYPES,
    Counter,
    FileAdmitted,
    FileEvicted,
    Histogram,
    JobArrived,
    JsonlSink,
    MetricsRegistry,
    NullSink,
    RingSink,
    StageRetried,
    TraceRecorder,
    WindowRolled,
    current_recorder,
    encode_event,
    event_from_dict,
    event_to_dict,
    recorder_from_spec,
    span,
    span_profile,
    timed,
    use_recorder,
    validate_event,
    validate_trace_file,
)
from repro.telemetry.metrics import DEFAULT_LATENCY_BUCKETS
from repro.telemetry.recorder import NULL_RECORDER


class TestEvents:
    def test_every_kind_has_a_schema(self):
        assert set(EVENT_TYPES) == set(EVENT_SCHEMA)

    def test_round_trip(self):
        ev = JobArrived(job=3, request_id=17, n_files=2, bytes_requested=512)
        record = event_to_dict(9, ev)
        assert record["seq"] == 9 and record["kind"] == "JobArrived"
        assert event_from_dict(record) == ev

    def test_round_trip_with_detail(self):
        ev = FileEvicted(file="f1", bytes=10, policy="landlord", detail={"credit": 0.5})
        assert event_from_dict(event_to_dict(0, ev)) == ev

    def test_validate_rejects_unknown_kind(self):
        with pytest.raises(TelemetryError, match="unknown event kind"):
            validate_event({"seq": 0, "kind": "Nope"})

    def test_validate_rejects_bad_seq(self):
        record = event_to_dict(0, FileAdmitted(file="f", bytes=1, cause="demand"))
        record["seq"] = -1
        with pytest.raises(TelemetryError, match="seq"):
            validate_event(record)
        record["seq"] = True  # bool is not an acceptable int here
        with pytest.raises(TelemetryError, match="seq"):
            validate_event(record)

    def test_validate_rejects_missing_and_extra_fields(self):
        record = event_to_dict(0, FileAdmitted(file="f", bytes=1, cause="demand"))
        missing = dict(record)
        del missing["cause"]
        with pytest.raises(TelemetryError, match="missing field"):
            validate_event(missing)
        extra = dict(record)
        extra["host"] = "laptop"
        with pytest.raises(TelemetryError, match="unexpected fields"):
            validate_event(extra)

    def test_validate_rejects_bad_enums(self):
        record = event_to_dict(0, FileAdmitted(file="f", bytes=1, cause="magic"))
        with pytest.raises(TelemetryError, match="cause"):
            validate_event(record)

    def test_validate_trace_file(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        events = [
            FileAdmitted(file="a", bytes=1, cause="demand"),
            WindowRolled(index=0, jobs=5, byte_miss_ratio=0.5, request_hit_ratio=0.2),
        ]
        path.write_text(
            "".join(
                json.dumps(event_to_dict(i, e), sort_keys=True) + "\n"
                for i, e in enumerate(events)
            )
        )
        assert validate_trace_file(path) == 2

    def test_validate_trace_file_rejects_seq_gap(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        ev = event_to_dict(1, FileAdmitted(file="a", bytes=1, cause="demand"))
        path.write_text(json.dumps(ev) + "\n")
        with pytest.raises(TelemetryError, match="out of order"):
            validate_trace_file(path)

    def test_validate_trace_file_locates_corrupted_mid_file_line(self, tmp_path):
        """The error names the 1-based line number and the offending field
        of the first invalid record."""
        from repro.errors import TraceValidationError

        events = [
            event_to_dict(i, FileAdmitted(file=f"f{i}", bytes=1, cause="demand"))
            for i in range(5)
        ]
        events[2]["bytes"] = "lots"  # corrupt line 3 only
        path = tmp_path / "trace.jsonl"
        path.write_text("".join(json.dumps(e) + "\n" for e in events))
        with pytest.raises(TraceValidationError, match="line 3") as exc_info:
            validate_trace_file(path)
        exc = exc_info.value
        assert exc.lineno == 3
        assert exc.field == "bytes"
        assert exc.path == str(path)
        assert "bytes" in str(exc)

    def test_validate_trace_file_locates_broken_json(self, tmp_path):
        from repro.errors import TraceValidationError

        good = event_to_dict(0, FileAdmitted(file="a", bytes=1, cause="demand"))
        path = tmp_path / "trace.jsonl"
        path.write_text(json.dumps(good) + "\n" + "{not json\n")
        with pytest.raises(TraceValidationError, match="line 2") as exc_info:
            validate_trace_file(path)
        assert exc_info.value.lineno == 2
        assert exc_info.value.field is None


def _oracle(seq, event) -> str:
    return json.dumps(event_to_dict(seq, event), sort_keys=True, separators=(",", ":"))


def _outcome(encode, seq, event):
    """The line, or the exception type when the value is not encodable
    (a dict whose keys do not sort raises in both encoders)."""
    try:
        return encode(seq, event)
    except (TypeError, ValueError) as exc:
        return type(exc)


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 2**65


class _Tag(str):
    pass


_SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e300, 5e-324, 0.1]
_SPECIAL_STRINGS = ["", '"', "\\", "\x00\x1f\x7f", "\u00e9\u2028\U0001f600", "\ud800", "a'b{c}"]

_strings = st.one_of(
    st.text(max_size=12),
    st.text(st.characters(min_codepoint=0, max_codepoint=0x10FFFF), max_size=6),
    st.sampled_from(_SPECIAL_STRINGS),
)
_ints = st.one_of(
    st.integers(),
    st.integers(min_value=2**70, max_value=2**200),
    st.integers(max_value=-(2**70), min_value=-(2**200)),
)
_floats = st.one_of(st.floats(), st.sampled_from(_SPECIAL_FLOATS))
_scalars = st.one_of(
    _strings,
    _ints,
    _floats,
    st.none(),
    st.booleans(),
    st.sampled_from([_Level.LOW, _Level.HIGH, _Tag("tag"), _Tag('q"\\')]),
)
_keys = st.one_of(
    st.text(max_size=6),
    st.integers(),
    st.floats(),
    st.booleans(),
    st.none(),
    st.sampled_from([_Tag("k"), _Level.LOW]),
)
_values = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.tuples(inner, inner),
        st.dictionaries(st.text(max_size=6), inner, max_size=4),
        st.dictionaries(_keys, inner, max_size=3),
    ),
    max_leaves=8,
)
#: declared annotation -> the values a well-typed caller passes
_DECLARED = {
    "str": _strings,
    "int": _ints,
    "bool": st.booleans(),
    "float": st.one_of(_floats, _ints),
    "dict | None": st.one_of(
        st.none(), st.dictionaries(st.text(max_size=6), _values, max_size=4)
    ),
}


class TestEncodeEvent:
    """``encode_event`` against the ``json.dumps(event_to_dict(...))`` oracle."""

    @pytest.mark.parametrize("kind", sorted(EVENT_TYPES))
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_oracle(self, kind, data):
        cls = EVENT_TYPES[kind]
        kwargs = {
            f.name: data.draw(st.one_of(_DECLARED[f.type], _values), label=f.name)
            for f in fields(cls)
        }
        seq = data.draw(st.one_of(st.integers(min_value=0), _ints), label="seq")
        event = cls(**kwargs)
        assert _outcome(encode_event, seq, event) == _outcome(_oracle, seq, event)

    @pytest.mark.parametrize(
        "detail",
        [
            None,
            {},
            {"credit": 0.5, "last_refresh": -1},
            {"b": {"z": [1, 2.5, None], "a": math.nan}, "a": [{"y": 1, "x": 2}]},
            {1: "int key", 2: "keys"},
            {"nan": math.nan, "inf": math.inf, "ninf": -math.inf, "neg0": -0.0},
            {"big": 2**70, "tiny": 5e-324, "huge": 1e300, "flag": True},
            {"enum": _Level.HIGH, "tag": _Tag("x"), _Tag("k"): 1},
            {"\u00e9\"\\": "\x00\u2028"},
        ],
    )
    def test_file_evicted_detail(self, detail):
        event = FileEvicted(file="f\u00e9", bytes=2**70, policy="p", detail=detail)
        assert encode_event(3, event) == _oracle(3, event)

    def test_bool_and_enum_in_int_fields(self):
        for value in (True, False, _Level.LOW, _Level.HIGH, 2**70, -(2**70)):
            event = JobArrived(job=value, request_id=value, n_files=1, bytes_requested=0)
            assert encode_event(value, event) == _oracle(value, event)

    def test_non_finite_floats(self):
        for value in _SPECIAL_FLOATS:
            event = WindowRolled(
                index=0, jobs=1, byte_miss_ratio=value, request_hit_ratio=value
            )
            assert encode_event(0, event) == _oracle(0, event)

    def test_unsortable_detail_raises_like_the_oracle(self):
        event = FileEvicted(file="f", bytes=1, policy="p", detail={1: 0, "a": 0})
        assert _outcome(encode_event, 0, event) is TypeError
        assert _outcome(_oracle, 0, event) is TypeError


class TestSinks:
    def test_null_sink_is_inactive(self):
        assert NullSink().active is False

    def test_jsonl_sink_writes_canonical_lines(self, tmp_path):
        path = tmp_path / "t.jsonl"
        sink = JsonlSink(path)
        sink.emit(0, FileAdmitted(file="a", bytes=3, cause="demand"))
        sink.close()
        line = path.read_text().strip()
        assert json.loads(line) == {
            "seq": 0,
            "kind": "FileAdmitted",
            "file": "a",
            "bytes": 3,
            "cause": "demand",
        }
        assert " " not in line  # compact separators, reproducible bytes

    def test_ring_sink_capacity(self):
        sink = RingSink(capacity=2)
        for i in range(5):
            sink.emit(i, FileAdmitted(file=f"f{i}", bytes=1, cause="demand"))
        assert len(sink) == 2
        assert [e.file for e in sink.events] == ["f3", "f4"]
        assert [s for s, _ in sink.sequenced] == [3, 4]

    def test_ring_sink_exact_capacity_boundary(self):
        """Filling to exactly capacity keeps every event; one more drops
        exactly the oldest."""
        sink = RingSink(capacity=3)
        for i in range(3):
            sink.emit(i, FileAdmitted(file=f"f{i}", bytes=1, cause="demand"))
        assert len(sink) == 3
        assert [e.file for e in sink.events] == ["f0", "f1", "f2"]
        sink.emit(3, FileAdmitted(file="f3", bytes=1, cause="demand"))
        assert len(sink) == 3
        assert [e.file for e in sink.events] == ["f1", "f2", "f3"]

    def test_ring_sink_replay_order_after_overflow(self):
        """After wraparound, replaying the ring into a recorder preserves
        arrival order and the original sequence numbers survive in
        ``sequenced``."""
        sink = RingSink(capacity=4)
        rec = TraceRecorder(sink)
        for i in range(10):
            rec.emit(FileAdmitted(file=f"f{i}", bytes=1, cause="demand"))
        # the ring holds the latest 4 events, oldest → newest
        assert [s for s, _ in sink.sequenced] == [6, 7, 8, 9]
        assert [e.file for e in sink.events] == ["f6", "f7", "f8", "f9"]
        # replaying the survivors into a fresh recorder re-sequences them
        # contiguously but keeps their relative order
        replay_sink = RingSink(capacity=4)
        replay_rec = TraceRecorder(replay_sink)
        replay_rec.replay(sink.events)
        assert [s for s, _ in replay_sink.sequenced] == [0, 1, 2, 3]
        assert [e.file for e in replay_sink.events] == ["f6", "f7", "f8", "f9"]

    def test_ring_sink_wrapped_contents_remain_coherent(self):
        """Wraparound drops whole events, never tears one: every surviving
        (seq, event) pair is intact and seqs stay strictly increasing."""
        sink = RingSink(capacity=5)
        rec = TraceRecorder(sink)
        for i in range(23):
            rec.emit(FileAdmitted(file=f"f{i}", bytes=i, cause="demand"))
        pairs = list(sink.sequenced)
        assert len(pairs) == 5
        assert all(e.file == f"f{s}" and e.bytes == s for s, e in pairs)
        seqs = [s for s, _ in pairs]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)


class TestRecorder:
    def test_null_recorder_is_inert(self):
        assert NULL_RECORDER.active is False
        NULL_RECORDER.emit(FileAdmitted(file="f", bytes=1, cause="demand"))
        assert NULL_RECORDER.events_emitted == 0

    def test_sequencing_and_replay(self):
        sink = RingSink()
        rec = TraceRecorder(sink)
        a = FileAdmitted(file="a", bytes=1, cause="demand")
        b = FileAdmitted(file="b", bytes=2, cause="prefetch")
        rec.emit(a)
        rec.replay([b, a])
        assert [s for s, _ in sink.sequenced] == [0, 1, 2]
        assert [e for _, e in sink.sequenced] == [a, b, a]

    def test_ambient_recorder_nesting(self):
        assert current_recorder() is NULL_RECORDER
        outer = TraceRecorder(RingSink())
        inner = TraceRecorder(RingSink())
        with use_recorder(outer):
            assert current_recorder() is outer
            with use_recorder(inner):
                assert current_recorder() is inner
            assert current_recorder() is outer
        assert current_recorder() is NULL_RECORDER

    def test_recorder_from_spec(self, tmp_path):
        assert recorder_from_spec("null").active is False
        assert recorder_from_spec("off").active is False
        jsonl = recorder_from_spec(f"jsonl:{tmp_path / 'x.jsonl'}")
        assert jsonl.active and isinstance(jsonl.sink, JsonlSink)
        jsonl.close()
        ring = recorder_from_spec("ring:64")
        assert isinstance(ring.sink, RingSink)
        for bad in ("jsonl:", "ring:many", "carrier-pigeon"):
            with pytest.raises(ConfigError):
                recorder_from_spec(bad)

    def test_recorder_from_spec_rejects_trailing_junk(self):
        """``null:`` / ``none:`` / ``off:`` take no argument — trailing
        junk is a typo, not a silently inert recorder."""
        for spec in ("null:junk", "none:", "off:jsonl"):
            with pytest.raises(ConfigError, match="takes no argument"):
                recorder_from_spec(spec)

    def test_recorder_from_spec_errors_quote_offending_spec(self):
        """Every malformed spec's error message quotes the full spec the
        user typed, so the typo is visible in the error itself."""
        cases = {
            "jsonl:": "needs a path",
            "ring:many": "must be an int",
            "null:junk": "takes no argument",
            "carrier-pigeon": "unknown telemetry spec",
        }
        for spec, fragment in cases.items():
            with pytest.raises(ConfigError) as exc_info:
                recorder_from_spec(spec)
            message = str(exc_info.value)
            assert repr(spec) in message
            assert fragment in message

    def test_context_manager_closes_sink_on_error(self, tmp_path):
        """A JsonlSink is flushed to disk even when the traced block
        raises — the partial trace stays usable."""
        path = tmp_path / "partial.jsonl"
        with pytest.raises(RuntimeError, match="boom"):
            with TraceRecorder(JsonlSink(path)) as rec:
                rec.emit(FileAdmitted(file="a", bytes=1, cause="demand"))
                raise RuntimeError("boom")
        assert validate_trace_file(path) == 1

    def test_span_records_into_registry(self):
        rec = TraceRecorder(RingSink())
        with rec.span("unit.test"):
            pass
        hist = rec.registry.get("span_unit_test_seconds")
        assert hist.count == 1 and hist.max >= 0.0

    def test_span_histogram_cached_per_name(self):
        rec = TraceRecorder(registry=MetricsRegistry())
        for _ in range(25):
            with rec.span("cache.admit"):
                pass
        with rec.span("cache.evict"):
            pass
        assert rec.registry.get("span_cache_admit_seconds").count == 25
        assert rec.registry.get("span_cache_evict_seconds").count == 1

    def test_span_exports_match_a_registry_lookup_per_span(self, monkeypatch):
        """The cached histogram exports exactly what looking the
        histogram up in the registry on every span records."""
        clock = iter(range(1000))  # 1/1024 s per tick: exact differences
        monkeypatch.setattr(
            "repro.telemetry.recorder._perf_counter", lambda: next(clock) / 1024
        )
        rec = TraceRecorder(RingSink())
        names = ["core.plan", "cache.admit", "core.plan", "journal.commit"] * 5
        for name in names:
            with rec.span(name):
                pass
        reference = MetricsRegistry()
        for name in names:
            reference.histogram(
                f"span_{name.replace('.', '_')}_seconds",
                f"duration of {name}",
                buckets=DEFAULT_LATENCY_BUCKETS,
            ).observe(1 / 1024)
        assert rec.registry.to_prometheus() == reference.to_prometheus()
        assert span_profile(rec.registry) == span_profile(reference)

    def test_span_with_lazily_created_registry(self):
        rec = TraceRecorder(RingSink())  # no registry until first needed
        for _ in range(3):
            with rec.span("lazy.block"):
                pass
        assert rec.registry.get("span_lazy_block_seconds").count == 3

    def test_span_cache_is_per_recorder(self):
        a, b = TraceRecorder(RingSink()), TraceRecorder(RingSink())
        with a.span("shared.name"):
            pass
        with b.span("shared.name"):
            pass
        with b.span("shared.name"):
            pass
        assert a.registry.get("span_shared_name_seconds").count == 1
        assert b.registry.get("span_shared_name_seconds").count == 2

    def test_null_recorder_span_is_noop(self):
        rec = TraceRecorder(NullSink(), profile=False)
        with rec.span("unit.test"):
            pass
        assert rec.profiling is False


class TestMetrics:
    def test_counter_monotonic(self):
        c = Counter("x_total")
        c.inc()
        c.inc(4)
        assert c.value == 5
        with pytest.raises(TelemetryError):
            c.inc(-1)

    def test_histogram_stats_and_buckets(self):
        h = Histogram("h", buckets=(1.0, 10.0))
        for v in (0.5, 5.0, 50.0):
            h.observe(v)
        assert h.count == 3
        assert h.mean == pytest.approx(55.5 / 3)
        assert h.min == 0.5 and h.max == 50.0
        assert h.bucket_counts() == [(1.0, 1), (10.0, 2), (math.inf, 3)]

    def test_registry_get_or_create_and_collision(self):
        reg = MetricsRegistry()
        assert reg.counter("a_total") is reg.counter("a_total")
        with pytest.raises(TelemetryError, match="already registered"):
            reg.gauge("a_total")

    def test_exporters(self):
        reg = MetricsRegistry()
        reg.counter("jobs_total", "jobs").inc(3)
        reg.histogram("lat_seconds", buckets=(1.0,)).observe(0.5)
        text = reg.to_prometheus()
        assert "# TYPE jobs_total counter" in text
        assert "jobs_total 3" in text
        assert 'lat_seconds_bucket{le="1.0"} 1' in text
        as_dict = reg.as_dict()
        assert as_dict["jobs_total"] == {"type": "counter", "value": 3}
        assert as_dict["lat_seconds"]["count"] == 1

    def test_merge_counters(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("n_total").inc(1)
        b.counter("n_total").inc(2)
        b.gauge("g").set(9)
        a.merge_counters(b)
        assert a.counter("n_total").value == 3
        assert "g" not in a  # gauges are not merged


class TestPrometheusConformance:
    """Text exposition format 0.0.4: escaping, headers, parseability."""

    def test_content_type_constant(self):
        from repro.telemetry import PROMETHEUS_CONTENT_TYPE

        assert PROMETHEUS_CONTENT_TYPE == (
            "text/plain; version=0.0.4; charset=utf-8"
        )

    def test_help_escaping_round_trips(self):
        reg = MetricsRegistry()
        original = 'jobs with a \\ backslash\nand a newline'
        reg.counter("jobs_total", original).inc(1)
        text = reg.to_prometheus()
        help_line = next(
            line for line in text.splitlines() if line.startswith("# HELP")
        )
        escaped = help_line.removeprefix("# HELP jobs_total ")
        assert "\n" not in escaped
        assert escaped == "jobs with a \\\\ backslash\\nand a newline"
        # the format's unescape recovers the original text exactly
        unescaped = escaped.replace("\\\\", "\x00").replace("\\n", "\n")
        assert unescaped.replace("\x00", "\\") == original

    def test_label_value_escaping(self):
        from repro.telemetry.metrics import _escape_label_value

        assert _escape_label_value('a"b\\c\nd') == 'a\\"b\\\\c\\nd'

    def test_type_and_help_once_per_family(self):
        reg = MetricsRegistry()
        reg.counter("jobs_total", "jobs").inc(3)
        reg.histogram("lat_seconds", "latency", buckets=(0.5, 2.5)).observe(1.0)
        text = reg.to_prometheus()
        lines = text.splitlines()
        assert lines.count("# TYPE lat_seconds histogram") == 1
        assert lines.count("# HELP lat_seconds latency") == 1
        # bucket/sum/count series share the family header — no extra
        # TYPE/HELP lines for the suffixed series.  The estimated-quantile
        # companion is its own gauge family (one header of its own).
        suffixed = [line for line in lines if "TYPE lat_seconds_" in line]
        assert suffixed == ["# TYPE lat_seconds_quantile gauge"]
        assert lines.count("# TYPE lat_seconds_quantile gauge") == 1
        assert text.endswith("\n")

    def test_exposition_parses_back(self):
        """Round-trip: every sample line re-parses, histogram buckets
        are cumulative and end at +Inf."""
        import re

        reg = MetricsRegistry()
        reg.counter("jobs_total", "jobs").inc(3)
        reg.gauge("occupancy_bytes").set(12.5)
        h = reg.histogram("lat_seconds", "latency", buckets=(0.5, 2.5))
        for v in (0.1, 1.0, 9.0):
            h.observe(v)
        sample_re = re.compile(
            r"^([a-zA-Z_:][a-zA-Z0-9_:]*)"              # metric name
            r'(?:\{(le|quantile)="([^"]*)"\})?'         # optional le/quantile
            r" (-?[0-9.e+infINF]+)$"                    # value
        )
        buckets: list[tuple[float, float]] = []
        quantiles: dict[float, float] = {}
        parsed = {}
        for line in reg.to_prometheus().splitlines():
            if line.startswith("#"):
                continue
            match = sample_re.match(line)
            assert match, f"unparseable sample line: {line!r}"
            name, label, label_value, value = match.groups()
            if label == "le":
                buckets.append(
                    (
                        math.inf if label_value == "+Inf" else float(label_value),
                        float(value),
                    )
                )
            elif label == "quantile":
                quantiles[float(label_value)] = float(value)
            else:
                parsed[name] = float(value)
        assert parsed["jobs_total"] == 3.0
        assert parsed["occupancy_bytes"] == 12.5
        assert parsed["lat_seconds_count"] == 3.0
        assert parsed["lat_seconds_sum"] == pytest.approx(10.1)
        assert buckets[-1][0] == math.inf and buckets[-1][1] == 3
        counts = [c for _le, c in buckets]
        assert counts == sorted(counts)  # cumulative
        # the quantile companion gauges cover the exported quantiles and
        # stay within the observed value range
        assert set(quantiles) == {0.5, 0.95, 0.99}
        for q_value in quantiles.values():
            assert 0.1 <= q_value <= 9.0


class TestProfiling:
    def test_ambient_span_and_timed(self):
        rec = TraceRecorder(RingSink())
        with use_recorder(rec):
            with span("outer.block"):
                pass

            @timed("inner.fn")
            def f(x):
                return x + 1

            assert f(1) == 2
        rows = span_profile(rec.registry)
        names = {r["span"] for r in rows}
        assert names == {"outer_block", "inner_fn"}
        assert all(r["calls"] == 1 for r in rows)


class TestEventEmissionHelpers:
    def test_stage_retried_schema_accepts_floats(self):
        record = event_to_dict(0, StageRetried(file="f", attempt=1, delay=2.5, t=7.0))
        validate_event(record)
