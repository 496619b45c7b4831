"""Helpers shared by ``run.py`` and its child processes."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
SRC = REPO / "src"


def require_source_tree() -> None:
    """Fail loudly when the benchmark is not inside a repro checkout."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"perfbench: no repro source tree at {SRC}; run the benchmark "
            "from the root of a repository checkout"
        )


def use_source_tree() -> None:
    require_source_tree()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    """Environment for child processes: the checkout's ``src`` first,
    and no inherited feature overrides (the default columnar +
    streaming path is the one measured)."""
    env = {
        key: value for key, value in os.environ.items()
        if not key.startswith("REPRO_")
    }
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def proc_status_kib(pid="self", field: str = "VmHWM") -> int:
    """One ``/proc/<pid>/status`` field in KiB (``VmHWM`` is the peak
    resident set of the process so far)."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise RuntimeError(f"/proc/{pid}/status has no {field}")


def digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def file_digest(path) -> str:
    """Digest of a file's bytes (byte-identity checks on manifests)."""
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()[:16]


def emit(payload: dict) -> None:
    """Print ``payload`` as the last stdout line (the result protocol
    between child processes and ``run.py``, and ``run.py``'s own)."""
    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
    sys.stdout.flush()


def last_json_line(text: str) -> dict:
    for line in reversed(text.splitlines()):
        line = line.strip()
        if line.startswith("{"):
            return json.loads(line)
    raise ValueError("no JSON result line in child output")


def setup_record(workers: int = 0) -> dict:
    """The setup every result is recorded with, so that no comparison
    mixes setups: host, interpreter, plane flags, chunk size, code."""
    import numpy

    from repro.artifacts.keys import code_fingerprint
    from repro.flags import (
        columnar_runtime_enabled,
        streaming_chunk_size,
        streaming_runtime_enabled,
    )

    return {
        "workers": workers,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "columnar": columnar_runtime_enabled(),
        "streaming": streaming_runtime_enabled(),
        "chunk_size": streaming_chunk_size(),
        "code_fingerprint": code_fingerprint()[:12],
    }
