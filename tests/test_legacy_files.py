"""Run directories written by an earlier engine layout still load and resume.

``tests/data/legacy_runs`` holds finished run directories recorded
before the unit-size and sized engines shared one backend family:

* ``unsized-fast`` -- ``Simulation``, scd, two extra probes;
* ``sized-fast`` -- ``SizedSimulation`` with ``GeometricSize(3)``, jsq,
  two extra probes;
* ``unit-sized-reference`` / ``unit-sized-sharded2`` --
  ``SizedSimulation`` with ``DeterministicSize(1)``, sed, whose
  checkpoints hold the sized-job queues and stores that unit-size jobs
  no longer use.

The ``fast`` runs are 700 rounds with checkpoints at rounds 256 and 512,
the others 400 rounds with one checkpoint at round 256; each keeps its
final ``result.json``.  Their pickles name the classes and state-dict
keys of that layout (``queues`` / ``unit_queues``, ``total_arrived`` /
``total_jobs`` ...).

Resuming from either checkpoint on today's code must write a
``result.json`` identical to the recorded one, and the recorded
``result.json`` must load through :meth:`Run.result`.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro.runs import Run
from repro.sim.engine import SimulationResult
from repro.sim.sized import SizedSimulationResult

LEGACY = Path(__file__).parent / "data" / "legacy_runs"
RUNS = {
    "unsized-fast": SimulationResult,
    "sized-fast": SizedSimulationResult,
    "unit-sized-reference": SizedSimulationResult,
    "unit-sized-sharded2": SizedSimulationResult,
}


def _drop_checkpoints_after(run: Run, last_round: int) -> None:
    for manifest_path in run.store.manifest_paths():
        manifest = json.loads(manifest_path.read_text())
        if int(manifest["round"]) > last_round:
            (run.store.directory / manifest["payload"]).unlink()
            manifest_path.unlink()


RESUMES = [
    (name, resume_round)
    for name in sorted(RUNS)
    for resume_round in (256, 512)
    if resume_round == 256 or "fast" in name
]


@pytest.mark.parametrize("name,resume_round", RESUMES)
def test_legacy_checkpoint_resumes_bit_identically(tmp_path, name, resume_round):
    directory = tmp_path / name
    shutil.copytree(LEGACY / name, directory)
    expected = json.loads((directory / "result.json").read_text())
    (directory / "result.json").unlink()
    run = Run.open(directory)
    _drop_checkpoints_after(run, resume_round)
    assert run.store.rounds()[-1] == resume_round

    result = run.execute()

    assert isinstance(result, RUNS[name])
    assert json.loads((directory / "result.json").read_text()) == expected
    events = [json.loads(line) for line in run.telemetry_path.read_text().splitlines()]
    started = [e for e in events if e["event"] == "run-started"]
    assert started[-1]["resumed"] is True
    assert started[-1]["round"] == resume_round


@pytest.mark.parametrize("name", sorted(RUNS))
def test_legacy_result_json_loads(name):
    run = Run.open(LEGACY / name)
    result = run.result()
    assert isinstance(result, RUNS[name])
    assert result.histogram.total > 0
    assert result.probe_summaries()
