"""Server lifecycle, connection error paths, and API branch coverage.

The happy paths run under :class:`ServiceThread` elsewhere in the
suite; these tests aim at the edges — malformed wire input, the
blocking :func:`serve` entry point with a real SIGTERM, dispatch
failures, and the named error branches of :class:`ServiceApi`.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import socket
import threading

import pytest

from repro.obs import metrics as obs_metrics
from repro.service.api import ServiceApi
from repro.service.client import ServiceClient, ServiceError
from repro.service.jobs import JobManager, job_worker_main
from repro.service.protocol import HTTPRequest, ProtocolError
from repro.service.quotas import QuotaPolicy
from repro.service.server import (
    ReproService,
    ServiceConfig,
    ServiceThread,
    serve,
)
from repro.service.stream import RecordTail, stream_job

from tests.service.conftest import trial_payload


def raw_exchange(host: str, port: int, data: bytes) -> bytes:
    """One raw TCP request/response round trip."""
    with socket.create_connection((host, port), timeout=10) as sock:
        if data:
            sock.sendall(data)
        chunks = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks += chunk
    return chunks


def parse_response(raw: bytes):
    head, _, body = raw.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    headers = {}
    for line in head.split(b"\r\n")[1:]:
        name, _, value = line.partition(b":")
        headers[name.strip().decode().lower()] = value.strip().decode()
    return status, headers, json.loads(body) if body else None


def make_request(method: str, path: str, headers=None,
                 body: bytes = b"") -> HTTPRequest:
    return HTTPRequest(method=method, target=path, path=path, query={},
                       headers=headers or {}, body=body)


class TestServiceLifecycle:
    def test_banner_and_shutdown_with_open_connection(self, tmp_path, capsys):
        async def main():
            service = ReproService(ServiceConfig(
                state_dir=tmp_path / "svc", workers=0, banner=True))
            await service.start()
            # park one connection mid-request so shutdown has to cancel it
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", service.port)
            await asyncio.sleep(0.1)
            await service.shutdown()
            writer.close()
            return service.port

        port = asyncio.run(main())
        out = capsys.readouterr().out
        assert f"repro.service listening on 127.0.0.1:{port}" in out
        assert "0 recovered, 0 requeued" in out

    def test_serve_blocks_until_sigterm_then_drains(self, tmp_path):
        # serve() installs its handlers on the running loop; a real
        # SIGTERM from a timer thread must unwind it with exit code 0
        timer = threading.Timer(
            0.5, os.kill, args=(os.getpid(), signal.SIGTERM))
        timer.start()
        try:
            assert serve(ServiceConfig(
                state_dir=tmp_path / "svc", workers=0)) == 0
        finally:
            timer.cancel()
            signal.signal(signal.SIGTERM, signal.SIG_DFL)
            signal.signal(signal.SIGINT, signal.default_int_handler)


class TestConnectionEdges:
    def test_oversized_body_is_413(self, service_factory):
        svc = service_factory(workers=0, max_body=1024)
        raw = raw_exchange(svc.host, svc.port, (
            b"POST /jobs HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: 1048576\r\nConnection: close\r\n\r\n"))
        status, _, body = parse_response(raw)
        assert status == 413 and body["error"] == "payload-too-large"

    def test_garbage_request_line_is_400(self, service_factory):
        svc = service_factory(workers=0)
        status, _, body = parse_response(
            raw_exchange(svc.host, svc.port, b"GARBAGE\r\n\r\n"))
        assert status == 400 and body["error"] == "bad-request"

    def test_connect_and_hang_up_is_quietly_ignored(self, service_factory):
        svc = service_factory(workers=0)
        with socket.create_connection((svc.host, svc.port), timeout=10) as s:
            s.shutdown(socket.SHUT_WR)
            assert s.recv(65536) == b""
        # the server is still healthy afterwards
        status, _, _ = svc.client().request("GET", "/")
        assert status == 200

    def test_dispatch_crash_is_500_not_a_dead_server(self, service_factory):
        svc = service_factory(workers=0)

        def boom(request):
            raise RuntimeError("boom")

        svc._service.api.dispatch = boom
        status, _, body = svc.client().request("GET", "/")
        assert status == 500 and body["error"] == "internal-error"
        assert "boom" in body["detail"]


class _NeverUp(ServiceThread):
    def _run(self) -> None:
        self._ready.set()  # thread "finishes" without ever binding a port


class TestServiceThreadEdges:
    def test_unbindable_host_raises_from_start(self, tmp_path):
        config = ServiceConfig(state_dir=tmp_path / "svc",
                               host="203.0.113.7", workers=0)
        with pytest.raises(RuntimeError, match="failed to start"):
            ServiceThread(config).start()

    def test_silent_thread_death_raises_from_start(self, tmp_path):
        thread = _NeverUp(ServiceConfig(state_dir=tmp_path / "svc"))
        with pytest.raises(RuntimeError, match="did not come up"):
            thread.start()

    def test_stop_after_stop_is_safe(self, tmp_path):
        svc = ServiceThread(ServiceConfig(
            state_dir=tmp_path / "svc", workers=0)).start()
        svc.stop()
        svc.stop()  # loop is closed: call_soon_threadsafe refusal is caught


@pytest.fixture
def api(tmp_path):
    manager = JobManager(tmp_path / "state", workers=0)
    manager.recover()
    return ServiceApi(manager, QuotaPolicy())


class TestApiBranches:
    def test_non_get_banner_is_405(self, api):
        status, _, body = parse_response(
            api.dispatch(make_request("POST", "/")))
        assert status == 405 and body["error"] == "method-not-allowed"

    def test_unknown_scenarios_subroute_is_404(self, api):
        status, _, body = parse_response(
            api.dispatch(make_request("GET", "/scenarios/bogus")))
        assert status == 404 and body["error"] == "not-found"

    def test_put_jobs_is_405(self, api):
        status, _, _ = parse_response(api.dispatch(make_request("PUT", "/jobs")))
        assert status == 405

    def test_job_subroute_method_misuse_is_named(self, api):
        job = api.manager.submit(trial_payload(), "c")
        for method, path, want in [
            ("PUT", f"/jobs/{job.id}", 405),
            ("POST", f"/jobs/{job.id}/result", 405),
            ("GET", f"/jobs/{job.id}/bogus", 404),
        ]:
            status, _, _ = parse_response(api.dispatch(make_request(method, path)))
            assert status == want, (method, path)

    def test_draining_submissions_bounce_503(self, api):
        api.draining = True
        status, headers, body = parse_response(api.dispatch(make_request(
            "POST", "/jobs", body=json.dumps(trial_payload()).encode())))
        assert status == 503 and body["error"] == "draining"
        assert headers["retry-after"] == str(api.quota.retry_after)

    def test_failed_job_result_is_409_with_worker_detail(self, api):
        job = api.manager.submit(trial_payload(), "c")
        job.state = "failed"
        job.error = {"error": "worker-error", "detail": "it broke"}
        status, _, body = parse_response(
            api.dispatch(make_request("GET", f"/jobs/{job.id}/result")))
        assert status == 409 and body["error"] == "job-failed"
        assert body["detail"] == "it broke"

    def test_metrics_fold_every_job_fleet(self, api):
        for _ in range(2):
            job = api.manager.submit(trial_payload(n=6, trials=2), "c")
            assert job_worker_main(str(api.manager.job_dir(job.id))) == 0
        key = json.dumps({"event": "completed"})
        own = obs_metrics.DEFAULT.snapshot()[
            "repro_fabric_lease_events_total"]["values"][key]
        raw = api.dispatch(make_request("GET", "/metrics"))
        head, _, body = raw.partition(b"\r\n\r\n")
        assert b" 200 " in head.split(b"\r\n")[0]
        # this process's meter plus each job's fleet delta of one unit
        [completed] = [line for line in body.decode().splitlines()
                       if line.startswith('repro_fabric_lease_events_total'
                                          '{event="completed"}')]
        assert float(completed.rsplit(" ", 1)[1]) == own + 2

    def test_done_job_with_missing_result_file_is_500(self, api):
        job = api.manager.submit(trial_payload(), "c")
        job.state = "done"  # done, but nothing ever wrote result.json
        status, _, body = parse_response(
            api.dispatch(make_request("GET", f"/jobs/{job.id}/result")))
        assert status == 500 and body["error"] == "result-missing"


WS_HEADERS = {"upgrade": "websocket", "connection": "Upgrade",
              "sec-websocket-key": "dGhlIHNhbXBsZSBub25jZQ=="}


class _SinkWriter:
    def __init__(self) -> None:
        self.data = b""

    def write(self, chunk: bytes) -> None:
        self.data += chunk

    async def drain(self) -> None:
        pass


class TestStreamTarget:
    def test_wrong_path_shape_is_404(self, api):
        job_id, err = api.stream_target(make_request("GET", "/jobs",
                                                     headers=WS_HEADERS))
        assert job_id is None and b"not-found" in err

    def test_missing_websocket_key_is_bad_handshake(self, api):
        job = api.manager.submit(trial_payload(), "c")
        headers = {"upgrade": "websocket", "connection": "Upgrade"}
        job_id, err = api.stream_target(make_request(
            "GET", f"/jobs/{job.id}/stream", headers=headers))
        assert job_id is None and b"bad-handshake" in err

    def test_unknown_job_is_named_404(self, api):
        job_id, err = api.stream_target(make_request(
            "GET", "/jobs/job-nope/stream", headers=WS_HEADERS))
        assert job_id is None and b"no-such-job" in err

    def test_routable_upgrade_returns_the_job(self, api):
        job = api.manager.submit(trial_payload(), "c")
        assert api.stream_target(make_request(
            "GET", f"/jobs/{job.id}/stream",
            headers=WS_HEADERS)) == (job.id, b"")

    def test_handle_stream_rejection_writes_the_error(self, api):
        writer = _SinkWriter()
        asyncio.run(api.handle_stream(
            make_request("GET", "/jobs/job-nope/stream", headers=WS_HEADERS),
            None, writer))
        status, _, body = parse_response(writer.data)
        assert status == 404 and body["error"] == "no-such-job"


class TestRecordTailEdges:
    def test_unreadable_shard_is_skipped(self, tmp_path):
        (tmp_path / "not-a-file.jsonl").mkdir()  # open() raises OSError
        assert RecordTail(tmp_path).poll() == []

    def test_blank_lines_are_skipped(self, tmp_path):
        (tmp_path / "a.jsonl").write_text("\n\n")
        assert RecordTail(tmp_path).poll() == []


class _StubWS:
    """A websocket test double: scripted recv, optional send failures."""

    def __init__(self, fail_sends_after=None, recv_action="wait"):
        self.sent = []
        self.closed = False
        self._fail_after = fail_sends_after
        self._recv_action = recv_action

    async def send_text(self, text: str) -> None:
        if self._fail_after is not None and len(self.sent) >= self._fail_after:
            raise ConnectionError("peer is gone")
        self.sent.append(text)

    async def recv(self):
        if self._recv_action == "close":
            return None
        if self._recv_action == "error":
            raise ProtocolError("bad frame")
        await asyncio.sleep(3600)

    async def close(self, code: int, reason: str = "") -> None:
        self.closed = True


class TestStreamEdges:
    @pytest.fixture
    def done_job(self, tmp_path):
        manager = JobManager(tmp_path / "state", workers=0)
        manager.recover()
        job = manager.submit(trial_payload(n=6, trials=2), "c")
        assert job_worker_main(str(manager.job_dir(job.id))) == 0
        job.state = "done"
        return manager, job

    def test_send_failure_ends_the_stream(self, done_job):
        manager, job = done_job
        ws = _StubWS(fail_sends_after=1)  # hello goes out, first record dies
        asyncio.run(stream_job(manager, job, ws, poll=0.01))
        assert len(ws.sent) == 1 and not ws.closed

    def test_client_close_frame_ends_the_stream(self, done_job):
        manager, job = done_job
        asyncio.run(stream_job(manager, job, _StubWS(recv_action="close"),
                               poll=0.01))

    def test_client_protocol_error_ends_the_stream(self, done_job):
        manager, job = done_job
        asyncio.run(stream_job(manager, job, _StubWS(recv_action="error"),
                               poll=0.01))


class TestClientEdges:
    def test_retry_after_header_parses(self):
        err = ServiceError(503, {"error": "saturated"}, {"retry-after": "7"})
        assert err.retry_after == 7
        assert ServiceError(503, {}, {}).retry_after is None

    def test_wait_times_out_on_a_parked_job(self, service_factory):
        svc = service_factory(workers=0)  # nothing ever runs the job
        client = svc.client()
        job = client.submit(trial_payload())
        with pytest.raises(TimeoutError, match="still queued"):
            client.wait(job["id"], timeout=0.3, poll=0.05)

    def test_stream_of_unknown_job_raises_named_error(self, service_factory):
        svc = service_factory(workers=0)
        with pytest.raises(ServiceError) as exc:
            list(svc.client().stream("job-nope"))
        assert exc.value.status == 404


class TestServeCli:
    def test_repro_serve_builds_the_configured_service(self, monkeypatch,
                                                       tmp_path):
        import repro.service.server as server_mod
        from repro.__main__ import main

        seen = {}

        def fake_serve(config):
            seen["config"] = config
            return 0

        monkeypatch.setattr(server_mod, "serve", fake_serve)
        rc = main(["serve", "--state-dir", str(tmp_path / "svc"),
                   "--port", "0", "--workers", "1", "--max-jobs", "9",
                   "--max-n", "50"])
        assert rc == 0
        config = seen["config"]
        assert config.workers == 1
        assert config.port == 0 and config.banner
        assert config.quota.max_queued == 9 and config.quota.max_n == 50
