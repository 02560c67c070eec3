"""Request tracing: unit semantics, HTTP surface, and the differential.

The headline contracts:

* request ids are **deterministic** — derived from arrival sequence
  numbers, never the wall clock — and every ``/v1/jobs`` response id
  resolves to a complete span tree on ``GET /v1/debug/requests``;
* the decision trace (``trace.jsonl``) is **byte-identical** with
  tracing enabled, disabled (``debug_ring=0``) or profile-streamed;
* the debug endpoints validate their inputs, keep their label sets
  bounded, and the Chrome span exporter accepts their payloads.
"""

from __future__ import annotations

import http.client
import io
import json
from pathlib import Path

import pytest

from repro.errors import ConfigError, TelemetryError
from repro.service import CoordinatorState, ServiceConfig, run_loadgen
from repro.service.testing import running_service
from repro.telemetry.forensics.export import spans_to_chrome
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.recorder import TraceRecorder
from repro.telemetry.tracing import (
    REQUEST_ID_HEADER,
    RequestTrace,
    RequestTracer,
    active_request,
    request_id_for_job,
)
from repro.types import MB
from repro.workload.generator import WorkloadSpec, generate_trace

CACHE = 32 * MB
POLICY = "landlord"


@pytest.fixture(scope="module")
def trace():
    return generate_trace(
        WorkloadSpec(
            cache_size=CACHE,
            n_files=60,
            n_request_types=30,
            n_jobs=60,
            popularity="zipf",
            max_file_fraction=0.05,
            max_bundle_fraction=0.25,
            seed=29,
        )
    )


@pytest.fixture(scope="module")
def workload_path(trace, tmp_path_factory):
    path = tmp_path_factory.mktemp("tracing") / "workload.jsonl"
    trace.dump(path)
    return path


def _config(workload_path, run_dir, **kw) -> ServiceConfig:
    return ServiceConfig(
        workload=workload_path,
        cache_size=CACHE,
        run_dir=run_dir,
        policy=POLICY,
        checkpoint_every=25,
        **kw,
    )


def _get(port, path, method="GET", body=None, headers=None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        payload = json.dumps(body) if body is not None else None
        conn.request(method, path, body=payload, headers=headers or {})
        response = conn.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        conn.close()


# ---------------------------------------------------------------------- #
# unit: ids, span trees, the tracer rings


class TestRequestIds:
    def test_job_ids_derive_from_arrival_sequence(self):
        assert request_id_for_job(0) == "req-00000000"
        assert request_id_for_job(1234) == "req-00001234"

    def test_negative_job_rejected(self):
        with pytest.raises(ConfigError, match="non-negative"):
            request_id_for_job(-1)

    def test_read_ids_are_sequential(self):
        tracer = RequestTracer(4)
        assert tracer.next_read_id() == "http-00000000"
        assert tracer.next_read_id() == "http-00000001"


class TestRequestTrace:
    def test_span_tree_nests_and_serializes(self):
        rt = RequestTrace("req-00000000", route="/v1/jobs", client_id="c1")
        outer = rt.begin_span("core.plan", rt.root.start_s + 0.001)
        inner = rt.begin_span("policy.on_request", rt.root.start_s + 0.002)
        rt.end_span(inner, rt.root.start_s + 0.003)
        rt.end_span(outer, rt.root.start_s + 0.005)
        rt.finish(status=200)
        doc = rt.as_dict()
        assert doc["request_id"] == "req-00000000"
        assert doc["client_id"] == "c1"
        assert doc["status"] == 200
        assert doc["spans"]["name"] == "http.request"
        (plan,) = doc["spans"]["children"]
        assert plan["name"] == "core.plan"
        assert plan["children"][0]["name"] == "policy.on_request"
        # offsets are relative to the root, microseconds
        assert plan["start_us"] == pytest.approx(1000.0, abs=0.2)
        assert plan["duration_us"] == pytest.approx(4000.0, abs=0.2)

    def test_finish_closes_spans_left_open(self):
        rt = RequestTrace("req-00000001", route="/v1/jobs")
        node = rt.begin_span("core.plan", rt.root.start_s)
        rt.finish()
        assert node.end_s is not None and rt.root.end_s is not None

    def test_breakdown_sums_span_families(self):
        rt = RequestTrace("req-00000002", route="/v1/jobs")
        t0 = rt.root.start_s
        for name, start, end in [
            ("core.plan", 0.010, 0.030),
            ("cache.admit", 0.030, 0.040),
            ("srm.stage", 0.040, 0.045),
            ("journal.commit", 0.045, 0.050),
        ]:
            node = rt.begin_span(name, t0 + start)
            rt.end_span(node, t0 + end)
        rt.root.end_s = t0 + 0.050
        split = rt.breakdown()
        assert split["plan_s"] == pytest.approx(0.020)
        assert split["apply_s"] == pytest.approx(0.020)
        assert split["server_s"] == pytest.approx(0.050)


class TestRequestTracer:
    def _run(self, tracer, request_id, route="/v1/cache"):
        with tracer.request(request_id, route=route) as rt:
            if rt is not None:
                rt.status = 200
        return rt

    def test_capacity_zero_is_a_noop(self):
        tracer = RequestTracer(0)
        assert not tracer.enabled
        with tracer.request("req-00000000", route="/v1/jobs") as rt:
            assert rt is None
            assert active_request() is None
        assert tracer.requests_traced == 0
        assert tracer.payload()["requests"] == []

    def test_ring_is_bounded_newest_last(self):
        tracer = RequestTracer(2)
        for i in range(5):
            self._run(tracer, f"req-{i:08d}")
        recent = tracer.recent()
        assert [r["request_id"] for r in recent] == [
            "req-00000003",
            "req-00000004",
        ]
        assert tracer.requests_traced == 5

    def test_slow_ring_vs_explicit_threshold(self):
        tracer = RequestTracer(8, slow_threshold_s=1e-9)
        for i in range(3):
            self._run(tracer, f"req-{i:08d}")
        # every request clears a nanosecond threshold -> all in slow ring
        assert len(tracer.slow()) == 3
        # an explicit threshold filters the *full* ring instead
        assert tracer.slow(threshold_s=1e9) == []
        assert len(tracer.slow(threshold_s=0.0)) == 3

    def test_find_resolves_resident_ids_only(self):
        tracer = RequestTracer(4)
        self._run(tracer, "req-00000007")
        assert tracer.find("req-00000007")["request_id"] == "req-00000007"
        assert tracer.find("req-99999999") is None

    def test_validation(self):
        with pytest.raises(ConfigError, match="non-negative"):
            RequestTracer(-1)
        with pytest.raises(ConfigError, match="positive"):
            RequestTracer(4, slow_threshold_s=0.0)

    def test_profile_stream_gets_one_json_line_per_request(self):
        stream = io.StringIO()
        tracer = RequestTracer(4, profile_stream=stream)
        self._run(tracer, "req-00000000")
        self._run(tracer, "req-00000001")
        lines = stream.getvalue().splitlines()
        assert len(lines) == 2
        docs = [json.loads(line) for line in lines]
        assert [d["request_id"] for d in docs] == [
            "req-00000000",
            "req-00000001",
        ]
        assert all("breakdown_ms" in d and "spans" in d for d in docs)

    def test_recorder_spans_grow_the_active_request_tree(self):
        registry = MetricsRegistry()
        recorder = TraceRecorder(registry=registry)
        tracer = RequestTracer(4)
        with tracer.request("req-00000000", route="/v1/jobs") as rt:
            with recorder.span("core.plan"):
                with recorder.span("policy.on_request"):
                    pass
        (plan,) = rt.root.children
        assert plan.name == "core.plan"
        assert [c.name for c in plan.children] == ["policy.on_request"]
        # the same span also fed the profiling histogram
        assert registry.get("span_core_plan_seconds").count == 1
        # outside a request the same spans are histogram-only
        with recorder.span("core.plan"):
            pass
        assert registry.get("span_core_plan_seconds").count == 2


# ---------------------------------------------------------------------- #
# HTTP surface


class TestDebugEndpoints:
    def test_every_job_response_id_resolves_to_a_span_tree(
        self, workload_path, tmp_path
    ):
        """Acceptance: ids in /v1/jobs responses resolve on the ring."""
        state = CoordinatorState.create(_config(workload_path, tmp_path / "r"))
        files = sorted(state.sizes)
        with running_service(state) as svc:
            seen = []
            for i in range(6):
                status, headers, body = _get(
                    svc.port,
                    "/v1/jobs",
                    "POST",
                    {"files": files[i : i + 2]},
                    headers={REQUEST_ID_HEADER: f"cli-{i}"},
                )
                assert status == 200
                doc = json.loads(body)
                assert doc["request_id"] == request_id_for_job(i)
                assert headers[REQUEST_ID_HEADER] == doc["request_id"]
                timing = doc["timing_ms"]
                assert set(timing) == {
                    "server_ms",
                    "plan_ms",
                    "apply_ms",
                }
                assert timing["server_ms"] >= 0.0
                seen.append(doc["request_id"])

            _get(svc.port, "/v1/cache")  # a finished read-side request
            _, _, body = _get(svc.port, "/v1/debug/requests")
            ring = json.loads(body)
            assert ring["capacity"] == 256
            by_id = {r["request_id"]: r for r in ring["requests"]}
            for i, request_id in enumerate(seen):
                entry = by_id[request_id]
                assert entry["job"] == i
                assert entry["status"] == 200
                assert entry["client_id"] == f"cli-{i}"
                assert entry["route"] == "/v1/jobs"
                names = {c["name"] for c in entry["spans"]["children"]}
                assert {"core.plan", "journal.commit"} <= names
            # read-side requests trace too, under their own id space
            assert any(
                r["request_id"].startswith("http-")
                for r in ring["requests"]
            )

    def test_debug_slow_threshold_param(self, workload_path, tmp_path):
        state = CoordinatorState.create(_config(workload_path, tmp_path / "r"))
        files = sorted(state.sizes)[:2]
        with running_service(state) as svc:
            _get(svc.port, "/v1/jobs", "POST", {"files": files})
            status, _, body = _get(svc.port, "/v1/debug/slow")
            assert status == 200
            doc = json.loads(body)
            assert doc["threshold_ms"] == pytest.approx(100.0)
            # a microscopic threshold catches everything in the ring
            status, _, body = _get(
                svc.port, "/v1/debug/slow?threshold_ms=0.0001"
            )
            assert status == 200
            assert len(json.loads(body)["requests"]) >= 1
            for bad in (
                "/v1/debug/slow?threshold_ms=nope",
                "/v1/debug/slow?threshold_ms=-1",
                "/v1/debug/slow?threshold_ms=0",
                "/v1/debug/slow?nope=1",
            ):
                status, _, body = _get(svc.port, bad)
                assert status == 400, bad
                assert "error" in json.loads(body)

    def test_debug_profile_tabulates_spans(self, workload_path, tmp_path):
        state = CoordinatorState.create(_config(workload_path, tmp_path / "r"))
        files = sorted(state.sizes)[:2]
        with running_service(state) as svc:
            _get(svc.port, "/v1/jobs", "POST", {"files": files})
            status, _, body = _get(svc.port, "/v1/debug/profile")
            assert status == 200
            doc = json.loads(body)
            assert doc["requests_traced"] >= 1
            rows = {row["span"]: row for row in doc["spans"]}
            assert "core_plan" in rows
            row = rows["core_plan"]
            assert row["calls"] >= 1
            assert {"mean_s", "p50_s", "p95_s", "p99_s", "max_s"} <= set(row)

    def test_debug_ring_zero_disables_tracing_not_ids(
        self, workload_path, tmp_path
    ):
        state = CoordinatorState.create(
            _config(workload_path, tmp_path / "r", debug_ring=0)
        )
        files = sorted(state.sizes)[:2]
        with running_service(state) as svc:
            status, headers, body = _get(
                svc.port, "/v1/jobs", "POST", {"files": files}
            )
            assert status == 200
            doc = json.loads(body)
            # deterministic ids still come back; host timings do not
            assert doc["request_id"] == request_id_for_job(0)
            assert "timing_ms" not in doc
            assert REQUEST_ID_HEADER not in headers
            _, _, body = _get(svc.port, "/v1/debug/requests")
            ring = json.loads(body)
            assert ring["capacity"] == 0 and ring["requests"] == []

    def test_route_labels_stay_bounded(self, workload_path, tmp_path):
        """Unknown paths land on one sentinel label, not new series."""
        state = CoordinatorState.create(_config(workload_path, tmp_path / "r"))
        with running_service(state) as svc:
            for path in ("/nope", "/nope2", "/v1/jobs/extra"):
                assert _get(svc.port, path)[0] == 404
            _, _, body = _get(svc.port, "/metrics")
        text = body.decode()
        unroutable = [
            line
            for line in text.splitlines()
            if line.startswith("service_http_requests_total{")
            and '"<unroutable>"' in line
        ]
        assert len(unroutable) == 1  # one series for all unknown paths
        assert 'status="404"' in unroutable[0]


# ---------------------------------------------------------------------- #
# the differential: tracing must never touch the decision trace


class TestTracingDifferential:
    def _drive(self, trace, workload_path, run_dir, **kw) -> Path:
        state = CoordinatorState.create(_config(workload_path, run_dir, **kw))
        tracer = state.tracer
        try:
            for i, request in enumerate(trace):
                with tracer.request(request_id_for_job(i), route="/v1/jobs"):
                    state.submit(
                        sorted(request.bundle.files),
                        priority=request.priority,
                    )
        finally:
            state.close()
        return run_dir / "trace.jsonl"

    def test_trace_bytes_identical_across_ring_sizes(
        self, trace, workload_path, tmp_path
    ):
        traced = self._drive(
            trace, workload_path, tmp_path / "on", debug_ring=256
        )
        untraced = self._drive(
            trace, workload_path, tmp_path / "off", debug_ring=0
        )
        streamed = self._drive(
            trace,
            workload_path,
            tmp_path / "stream",
            debug_ring=8,
            profile_stream=True,
        )
        reference = traced.read_bytes()
        assert untraced.read_bytes() == reference
        assert streamed.read_bytes() == reference
        # the profile stream exists, holds host timings, and is separate
        profile = streamed.parent / "profile.jsonl"
        lines = profile.read_text().splitlines()
        assert len(lines) == len(list(trace))
        assert json.loads(lines[0])["request_id"] == request_id_for_job(0)


# ---------------------------------------------------------------------- #
# Chrome exporter + loadgen breakdown


class TestSpansToChrome:
    def _payload(self):
        registry = MetricsRegistry()
        recorder = TraceRecorder(registry=registry)
        tracer = RequestTracer(8)
        for i in range(2):
            with tracer.request(
                request_id_for_job(i), route="/v1/jobs"
            ) as rt:
                rt.job = i
                rt.status = 200
                with recorder.span("core.plan"):
                    with recorder.span("policy.on_request"):
                        pass
        return tracer.payload()

    def test_accepts_endpoint_body_and_bare_list(self):
        payload = self._payload()
        doc = spans_to_chrome(payload)
        assert doc == spans_to_chrome(payload["requests"])
        assert doc["displayTimeUnit"] == "ms"
        assert doc["otherData"]["requests"] == 2

    def test_one_thread_per_request_with_nested_slices(self):
        doc = spans_to_chrome(self._payload())
        events = doc["traceEvents"]
        threads = [e for e in events if e["name"] == "thread_name"]
        assert [e["args"]["name"] for e in threads] == [
            "req-00000000 /v1/jobs",
            "req-00000001 /v1/jobs",
        ]
        slices = [e for e in events if e["ph"] == "X"]
        by_tid = {}
        for e in slices:
            by_tid.setdefault(e["tid"], []).append(e)
        for tid, group in by_tid.items():
            root = next(g for g in group if g["args"].get("request_id"))
            for e in group:
                # every slice sits inside its request's root span
                assert e["ts"] >= root["ts"]
                assert e["ts"] + e["dur"] <= root["ts"] + root["dur"] + 1e-6

    def test_bad_shapes_raise(self):
        with pytest.raises(TelemetryError, match="request list"):
            spans_to_chrome("nope")
        with pytest.raises(TelemetryError, match="span tree"):
            spans_to_chrome([{"request_id": "x"}])

    def test_cli_spans_flag_roundtrip_and_error_contract(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        dump = tmp_path / "reqs.json"
        dump.write_text(json.dumps(self._payload()))
        out = tmp_path / "spans.chrome.json"
        assert main(
            ["export-chrome", str(dump), "--spans", "--out", str(out)]
        ) == 0
        doc = json.loads(out.read_text())
        assert doc["otherData"]["requests"] == 2
        # filesystem and parse failures follow the CLI error contract:
        # `error: <msg>` on stderr and exit 2, never a traceback
        assert main(
            ["export-chrome", str(tmp_path / "missing.json"), "--spans"]
        ) == 2
        assert "error: cannot read span dump" in capsys.readouterr().err
        corrupt = tmp_path / "corrupt.json"
        corrupt.write_text("{nope")
        assert main(["export-chrome", str(corrupt), "--spans"]) == 2
        assert "is not valid JSON" in capsys.readouterr().err


class TestLoadgenBreakdown:
    def test_report_splits_client_latency(self, trace, workload_path, tmp_path):
        state = CoordinatorState.create(_config(workload_path, tmp_path / "r"))
        with running_service(state) as svc:
            report = run_loadgen(
                trace, svc.host, svc.port, concurrency=2, limit=20
            )
        assert report.jobs == 20 and report.errors == 0
        assert report.server_mean_ms > 0.0
        assert report.server_p50_ms <= report.server_p99_ms
        assert report.plan_mean_ms >= 0.0
        assert report.apply_mean_ms >= 0.0
        assert report.net_overhead_mean_ms >= 0.0
        # the server-side split is bounded by what the client measured
        assert report.server_mean_ms <= report.latency_mean_ms + 1e-6
        doc = report.as_dict()
        assert {"server_p50_ms", "server_p99_ms", "net_overhead_mean_ms"} <= set(doc)
