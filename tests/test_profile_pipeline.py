"""The pipeline bench script's reports stay on the committed trajectories.

The columnar plane has no switch, but a bench report still records
``bench.columnar`` and ``bench.streaming``: the timeline's series key
for bench entries includes the columnar flag, so a new report must key
exactly like the committed ``BENCH_pipeline.json`` at the same setup.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.obs.timeline import entries_from_bench_file
from repro.sim import fork_pool_available

ROOT = Path(__file__).resolve().parents[1]
COMMITTED = ROOT / "BENCH_pipeline.json"


@pytest.mark.skipif(
    not fork_pool_available(), reason="the streaming plane needs fork"
)
def test_new_bench_entry_joins_the_committed_series(tmp_path):
    out = tmp_path / "bench.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run(
        [
            sys.executable, str(ROOT / "scripts" / "profile_pipeline.py"),
            "--domains", "150", "--wan-rounds", "2", "--no-cache-check",
            "--out", str(out),
        ],
        check=True, capture_output=True, env=env, timeout=300,
    )
    report = json.loads(out.read_text())
    committed = json.loads(COMMITTED.read_text())
    assert report["bench"]["columnar"] is True
    assert report["bench"]["streaming"] is True
    assert report["bench"]["columnar"] == committed["bench"]["columnar"]
    assert report["bench"]["streaming"] == committed["bench"]["streaming"]
    # At the committed setup's scale axes, the new report keys onto the
    # committed trajectory.
    for axis in ("domains", "wan_rounds"):
        report["bench"][axis] = committed["bench"][axis]
    out.write_text(json.dumps(report))
    new_keys = {entry.series_key for entry in entries_from_bench_file(out)}
    committed_keys = {
        entry.series_key for entry in entries_from_bench_file(COMMITTED)
    }
    assert new_keys == committed_keys
