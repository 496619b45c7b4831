"""Daemon + client round-trip over a real socket (port 0).

The CI smoke drives a full ``repro serve`` subprocess; this test pins
the in-process embedding path — background threads, the urllib client,
and a job executed by the live scheduler loop — in a few seconds.
"""

import time

import pytest

from repro.service.client import ServiceClient
from repro.service.daemon import ReproService
from repro.service.errors import ServiceError
from repro.service.jobs import Scheduler
from repro.service.repository import RunRepository
from tests.service.conftest import DOMAINS, SEED, WAN_ROUNDS
from tests.service.test_jobs import tiny_spec


@pytest.fixture()
def service(tmp_path):
    service = ReproService(
        tmp_path / "svc", port=0, poll_interval=0.1
    )
    service.start()
    yield service
    service.stop()


def test_daemon_round_trip(service):
    client = ServiceClient(service.url, timeout=10.0)
    health = client.health()
    assert health["status"] == "ok"
    assert health["scheduler"] is True
    assert health["index"] == {"runs": 0, "series": 0}

    record = client.submit_job({
        "kind": "run", "seed": SEED, "domains": DOMAINS,
        "wan_rounds": WAN_ROUNDS, "experiments": ["table03"],
    })
    assert record["status"] == "pending"
    deadline = time.monotonic() + 120
    while record["status"] in ("pending", "running"):
        assert time.monotonic() < deadline, "job never finished"
        time.sleep(0.2)
        record = client.job(record["job_id"])
    assert record["status"] == "completed", record["error"]
    run_id = record["outcome"]["run_id"]

    (indexed,) = client.runs()
    assert indexed["run_id"] == run_id
    assert client.run(run_id)["run_id"] == run_id
    assert "experiments_s" in client.timings(run_id)
    assert "service_jobs_executed_total" in client.metrics()
    assert client.scan()["runs"] == 1


def test_client_maps_http_errors_to_service_errors(service):
    client = ServiceClient(service.url, timeout=10.0)
    with pytest.raises(ServiceError, match="HTTP 404"):
        client.run("run-000000000000")


def test_client_maps_unreachable_daemons_to_service_errors():
    client = ServiceClient("http://127.0.0.1:9", timeout=0.5)
    with pytest.raises(ServiceError, match="cannot reach"):
        client.health()


def _restarted(root, max_attempts=1):
    """A daemon started over ``root`` but never serving."""
    service = ReproService(
        root, port=0, max_attempts=max_attempts, access_log=False
    )
    service.server.server_close()
    return service


def test_restart_fails_the_job_a_dead_daemon_left_running(tmp_path):
    root = tmp_path / "svc"
    with RunRepository(root) as repository:
        scheduler = Scheduler(repository)
        job = scheduler.submit(tiny_spec())
        assert scheduler.claim_next().status == "running"
    # The claiming daemon died mid-job, as a SIGKILL would leave it.
    service = _restarted(root)
    (record,) = service.scheduler.jobs()
    assert record.status == "failed"
    assert "interrupted" in record.error
    assert record.attempts == 1
    assert service.scheduler.claim_next() is None  # budget spent
    service.repository.close()
    # With a retry budget the interrupted job is claimed again.
    service = _restarted(root, max_attempts=2)
    claimed = service.scheduler.claim_next()
    assert (claimed.job_id, claimed.attempts) == (job.job_id, 2)
    service.repository.close()
