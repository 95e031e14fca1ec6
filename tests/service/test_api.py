"""REST surface: catalog, named 4xx bodies, quotas, job lifecycle."""

from __future__ import annotations

import pytest

from repro.service import QuotaPolicy
from repro.service.client import ServiceError

from tests.service.conftest import SG_SPEC, trial_payload


class TestCatalog:
    def test_banner_lists_routes(self, service_factory):
        svc = service_factory(workers=0)
        status, _, body = svc.client().request("GET", "/")
        assert status == 200
        assert "POST /jobs" in body["routes"]

    def test_scenarios_catalog_matches_registry(self, service_factory):
        from repro.registry import REGISTRY

        svc = service_factory(workers=0)
        catalog = svc.client().scenarios()["categories"]
        assert sorted(catalog) == sorted(REGISTRY.categories())
        assert [c["name"] for c in catalog["game"]] == REGISTRY.names("game")

    def test_schema_endpoint_serves_scenario_schema(self, service_factory):
        svc = service_factory(workers=0)
        schema = svc.client().schema()
        assert schema["title"] == "ScenarioSpec"
        assert "game" in schema["required"]

    def test_unknown_route_is_named_404(self, service_factory):
        svc = service_factory(workers=0)
        status, _, body = svc.client().request("GET", "/nope")
        assert status == 404
        assert body["error"] == "not-found"

    def test_method_not_allowed(self, service_factory):
        svc = service_factory(workers=0)
        status, _, body = svc.client().request("DELETE", "/scenarios")
        assert status == 405
        assert body["error"] == "method-not-allowed"


class TestMalformedSubmissions:
    """Every rejection is a named JSON body, not a stack trace."""

    def submit_raw(self, svc, payload):
        return svc.client().request("POST", "/jobs", payload)

    def test_unparsable_body_is_bad_json(self, service_factory):
        svc = service_factory(workers=0)
        conn_status, _, body = svc.client().request("POST", "/jobs")
        assert conn_status == 400
        assert body["error"] == "bad-json"

    def test_non_object_body_is_bad_payload(self, service_factory):
        svc = service_factory(workers=0)
        status, _, body = self.submit_raw(svc, [1, 2, 3])
        assert (status, body["error"]) == (400, "bad-payload")

    def test_missing_spec_is_bad_payload(self, service_factory):
        svc = service_factory(workers=0)
        status, _, body = self.submit_raw(svc, {"kind": "trial", "n": 8})
        assert (status, body["error"]) == (400, "bad-payload")

    def test_unknown_kind_is_bad_kind(self, service_factory):
        svc = service_factory(workers=0)
        status, _, body = self.submit_raw(svc, {"kind": "meditate",
                                                "spec": SG_SPEC, "n": 8})
        assert (status, body["error"]) == (400, "bad-kind")

    def test_unknown_game_is_bad_spec_with_registry_detail(self, service_factory):
        svc = service_factory(workers=0)
        status, _, body = self.submit_raw(
            svc, {"spec": {"game": "tictactoe"}, "n": 8})
        assert (status, body["error"]) == (422, "bad-spec")
        assert "unknown game" in body["detail"]

    def test_missing_required_param_is_bad_spec(self, service_factory):
        svc = service_factory(workers=0)
        status, _, body = self.submit_raw(
            svc, {"spec": {"game": "sg"}, "n": 8})
        assert (status, body["error"]) == (422, "bad-spec")
        assert "mode" in body["detail"]

    def test_unknown_scenario_field_is_bad_spec(self, service_factory):
        svc = service_factory(workers=0)
        status, _, body = self.submit_raw(
            svc, {"spec": {**SG_SPEC, "surprise": 1}, "n": 8})
        assert (status, body["error"]) == (422, "bad-spec")
        assert "surprise" in body["detail"]

    def test_bad_n_is_bad_int(self, service_factory):
        svc = service_factory(workers=0)
        for n in ("eight", 1, None):
            status, _, body = self.submit_raw(
                svc, {"spec": SG_SPEC, "n": n})
            assert (status, body["error"]) == (400, "bad-int"), n

    def test_bad_moves_is_named(self, service_factory):
        svc = service_factory(workers=0)
        status, _, body = self.submit_raw(
            svc, {"kind": "explore", "spec": SG_SPEC, "n": 4,
                  "moves": "psychic"})
        assert (status, body["error"]) == (400, "bad-moves")


class TestQuotas:
    def test_saturation_is_503_with_retry_after(self, service_factory):
        svc = service_factory(workers=0, quota=QuotaPolicy(max_queued=2))
        client = svc.client()
        for _ in range(2):
            client.submit(trial_payload())
        with pytest.raises(ServiceError) as err:
            client.submit(trial_payload())
        assert err.value.status == 503
        assert err.value.payload["error"] == "saturated"
        assert err.value.retry_after is not None

    def test_per_client_quota_is_429_and_per_token(self, service_factory):
        svc = service_factory(
            workers=0, quota=QuotaPolicy(max_jobs_per_client=1))
        first = svc.client(token="alice")
        first.submit(trial_payload())
        with pytest.raises(ServiceError) as err:
            first.submit(trial_payload())
        assert err.value.status == 429
        assert err.value.payload["error"] == "client-quota"
        # a different token still has headroom
        svc.client(token="bob").submit(trial_payload())

    def test_spec_caps_are_422_limit_exceeded(self, service_factory):
        svc = service_factory(
            workers=0, quota=QuotaPolicy(max_n=50, max_trials=10))
        client = svc.client()
        for payload in (trial_payload(n=51), trial_payload(trials=11)):
            with pytest.raises(ServiceError) as err:
                client.submit(payload)
            assert err.value.status == 422
            assert err.value.payload["error"] == "limit-exceeded"

    def test_cancelled_jobs_release_quota(self, service_factory):
        svc = service_factory(
            workers=0, quota=QuotaPolicy(max_jobs_per_client=1))
        client = svc.client(token="alice")
        job = client.submit(trial_payload())
        client.cancel(job["id"])
        client.submit(trial_payload())  # quota slot freed


class TestJobLifecycle:
    def test_submit_get_cancel_roundtrip(self, service_factory):
        svc = service_factory(workers=0)
        client = svc.client(token="t")
        job = client.submit(trial_payload())
        assert job["state"] == "queued"
        assert job["progress"] == {"done": 0, "total": 3}
        view = client.job(job["id"])
        assert view["id"] == job["id"]
        cancelled = client.cancel(job["id"])
        assert cancelled["state"] == "cancelled"
        # idempotent
        assert client.cancel(job["id"])["state"] == "cancelled"

    def test_job_table_listing(self, service_factory):
        svc = service_factory(workers=0)
        client = svc.client()
        ids = [client.submit(trial_payload())["id"] for _ in range(3)]
        _, _, body = client.request("GET", "/jobs")
        assert [j["id"] for j in body["jobs"]] == ids

    def test_unknown_job_is_404(self, service_factory):
        svc = service_factory(workers=0)
        status, _, body = svc.client().request("GET", "/jobs/ghost")
        assert (status, body["error"]) == (404, "no-such-job")

    def test_result_before_done_is_409(self, service_factory):
        svc = service_factory(workers=0)
        client = svc.client()
        job = client.submit(trial_payload())
        status, _, body = client.request("GET", f"/jobs/{job['id']}/result")
        assert (status, body["error"]) == (409, "not-done")

    def test_run_to_done_and_fetch_result(self, service_factory):
        svc = service_factory(workers=1)
        client = svc.client()
        job = client.submit(trial_payload(n=8, trials=2))
        view = client.wait(job["id"], timeout=60)
        assert view["state"] == "done"
        assert view["progress"] == {"done": 2, "total": 2}
        result = client.result(job["id"])["result"]
        assert result["kind"] == "trial"
        assert result["total"] == 2
        assert "aggregate" in result

    def test_legacy_backend_key_runs_to_done(self, service_factory):
        """A client still sending the retired ``"backend"`` key gets a
        job that runs, not one that fails inside its worker."""
        svc = service_factory(workers=1)
        client = svc.client()
        job = client.submit(trial_payload(
            n=6, trials=1, spec={**SG_SPEC, "backend": "warp-drive"}))
        assert client.wait(job["id"], timeout=60)["state"] == "done"

    def test_stream_route_over_plain_http_is_426(self, service_factory):
        svc = service_factory(workers=0)
        client = svc.client()
        job = client.submit(trial_payload())
        status, _, body = client.request("GET", f"/jobs/{job['id']}/stream")
        assert (status, body["error"]) == (426, "upgrade-required")
