"""Scheduler-layer tests: content-addressed specs, idempotent
submission, and job execution through the unchanged pipeline.

The acceptance invariant: a job executed by the scheduler must
reproduce the ``run-<hash>/`` a plain CLI invocation of the same
config produced, byte for byte.
"""

import time

import pytest

from repro.service.errors import JobSpecError, UnknownJobError
from repro.service.jobs import JobSpec, JobRecord, Scheduler
from repro.service.repository import RunRepository
from tests.service.conftest import DOMAINS, EXPERIMENTS, SEED, WAN_ROUNDS


def tiny_spec(**overrides):
    config = dict(
        kind="run", seed=SEED, domains=DOMAINS,
        wan_rounds=WAN_ROUNDS, experiments=("table03",),
    )
    config.update(overrides)
    return JobSpec(**config)


# -- the spec ----------------------------------------------------------


def test_job_id_excludes_worker_count():
    assert tiny_spec(workers=0).job_id == tiny_spec(workers=4).job_id


def test_job_id_is_config_sensitive():
    base = tiny_spec().job_id
    assert tiny_spec(seed=8).job_id != base
    assert tiny_spec(scenario="ec2.us-east-1-outage").job_id != base
    assert tiny_spec(experiments=("table03", "figure10")).job_id != base
    assert base.startswith("job-") and len(base) == len("job-") + 12


@pytest.mark.parametrize("payload, fragment", [
    ({"kind": "nope"}, "unknown job kind"),
    ({"domains": 0}, "invalid config"),
    ({"wan_rounds": 0}, "invalid config"),
    ({"seed": -1}, "invalid config"),
    ({"experiments": ["no-such-experiment"]}, "unknown experiments"),
    ({"scenario": "no.such.scenario"}, "scenario"),
    ({"kind": "series", "epochs": 0}, "--epochs"),
    ({"kind": "series", "epoch_plan": "no-such-plan"}, "plan"),
    ({"frobnicate": 1}, "unknown job spec fields"),
    ("not a dict", "JSON object"),
])
def test_invalid_specs_are_rejected_at_submit_time(payload, fragment):
    with pytest.raises(JobSpecError, match=fragment):
        if isinstance(payload, dict):
            payload = {"kind": "run", **payload}
        JobSpec.from_dict(payload)


def test_spec_round_trips_through_dict():
    spec = tiny_spec(scenario="ec2.us-east-1-outage")
    assert JobSpec.from_dict(spec.as_dict()) == spec


# -- the scheduler -----------------------------------------------------


@pytest.fixture()
def scheduler(tmp_path):
    with RunRepository(tmp_path / "svc") as repository:
        yield Scheduler(repository)


def test_submit_is_idempotent(scheduler):
    first = scheduler.submit(tiny_spec())
    again = scheduler.submit(tiny_spec())
    assert again.job_id == first.job_id
    assert again.created_at == first.created_at
    forced = scheduler.submit(tiny_spec(), force=True)
    assert forced.job_id == first.job_id
    assert forced.created_at >= first.created_at


def test_claim_order_is_oldest_first(scheduler):
    first = scheduler.submit(tiny_spec())
    time.sleep(0.01)
    second = scheduler.submit(tiny_spec(seed=SEED + 1))
    claimed = scheduler.claim_next()
    assert claimed.job_id == first.job_id
    assert claimed.status == "running"
    assert scheduler.claim_next().job_id == second.job_id
    assert scheduler.claim_next() is None


def test_get_unknown_job_raises(scheduler):
    with pytest.raises(UnknownJobError):
        scheduler.get("job-000000000000")


def test_job_files_are_the_source_of_truth(scheduler):
    record = scheduler.submit(tiny_spec())
    path = scheduler.jobs_dir / f"{record.job_id}.json"
    assert path.is_file()
    # A second scheduler over the same directory sees the queue.
    other = Scheduler(scheduler.repository)
    assert other.jobs(status="pending")[0].job_id == record.job_id


def test_execution_failure_marks_the_job_failed(scheduler, monkeypatch):
    def boom(spec):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(scheduler, "_execute_run", boom)
    scheduler.submit(tiny_spec())
    assert scheduler.run_pending() == 1  # the loop survives
    (record,) = scheduler.jobs()
    assert record.status == "failed"
    assert "synthetic failure" in record.error
    assert record.finished_at is not None


def test_idle_claim_parses_each_job_file_once(scheduler, monkeypatch):
    monkeypatch.setattr(
        scheduler, "_execute_run",
        lambda spec: (_ for _ in ()).throw(RuntimeError("down")),
    )
    scheduler.submit(tiny_spec())
    scheduler.submit(tiny_spec(seed=SEED + 1))
    assert scheduler.run_pending() == 2  # nothing pending from here on
    parsed = []
    from_dict = JobRecord.from_dict.__func__

    def counting(cls, payload):
        parsed.append(payload)
        return from_dict(cls, payload)

    monkeypatch.setattr(JobRecord, "from_dict", classmethod(counting))
    assert scheduler.claim_next() is None
    assert len(parsed) == 2


def test_run_job_lands_in_the_timeline_without_a_rescan(scheduler):
    """A scheduler given only the catalog still records telemetry: the
    run's timeline entry is written with its run row."""
    scheduler.submit(tiny_spec(domains=120, wan_rounds=1))
    assert scheduler.run_pending() == 1
    (record,) = scheduler.jobs(status="completed")
    (entry,) = scheduler.repository.entries(source="run")
    assert entry.extra["run_id"] == record.outcome["run_id"]


def test_run_job_reproduces_the_cli_run(scheduler, populated_root):
    # The fixture's healthy single-shot run: same config, produced by
    # the classic `repro-experiments --out-dir` path.
    scheduler.submit(tiny_spec(experiments=tuple(EXPERIMENTS)))
    assert scheduler.run_pending() == 1
    (record,) = scheduler.jobs(status="completed")
    run_id = record.outcome["run_id"]
    produced = scheduler.repository.root / run_id
    reference = populated_root / run_id
    assert reference.is_dir(), (
        f"job produced {run_id}, which the CLI fixture never made"
    )
    for name in ("manifest.json", "fidelity.json", "summaries.txt"):
        assert (
            produced.joinpath(name).read_bytes()
            == reference.joinpath(name).read_bytes()
        ), f"{name} differs from the CLI-produced run"
    # The outcome carries the fidelity verdict and the run is indexed.
    assert record.outcome["fidelity_status"]
    assert scheduler.repository.get_run(run_id).run_id == run_id


def test_record_round_trips_through_dict():
    record = JobRecord(spec=tiny_spec(), created_at=123.0)
    record.status = "completed"
    record.outcome = {"run_id": "run-abc"}
    loaded = JobRecord.from_dict(record.as_dict())
    assert loaded.spec == record.spec
    assert loaded.status == "completed"
    assert loaded.outcome == {"run_id": "run-abc"}
