"""No dispatch decision may depend on hash order.

Plan snapshots, route profiles and insertion outcomes persist across ticks,
so one ``for x in some_set:`` on a decision path makes two equal runs diverge
-- but only between interpreters whose hash seeds differ, which no in-process
test can see.  This is the runtime counterpart of repro-lint's DET003: every
registered dispatcher replays the same service workload in one child process
per ``PYTHONHASHSEED``, and both every event the engine emits and the
event list the service streams must come out identical.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.dispatch import DISPATCHER_REGISTRY

#: SARD at this scale is ~1400 events in ~0.3 s; all six dispatchers ~3 s per
#: child, and the two children run side by side.
SCALE = 0.2

CHILD = """
import hashlib, json, sys
from repro.config import ServiceConfig
from repro.dispatch import DISPATCHER_REGISTRY
from repro.experiments.harness import RunSpec, run
from repro.simulation.engine import Simulator
from repro.simulation.events import EventKind

def sha(rows):
    return hashlib.sha256(repr(rows).encode()).hexdigest()

# A service run's simulator retains no log, so the engine's sink is tapped.
emitted = []
emit = Simulator._emit
def recording(simulator, when, kind, subject, other=None):
    emitted.append((when, EventKind(kind).value, subject, other))
    emit(simulator, when, kind, subject, other)
Simulator._emit = recording

digests = {}
for name in sorted(DISPATCHER_REGISTRY):
    emitted.clear()
    result = run(RunSpec(preset="nyc", algorithm=name, backend="hub_label",
                         scale=float(sys.argv[1]), service_config=ServiceConfig()))
    streamed = result.service.events
    digests[name] = {
        "emitted": [len(emitted), sha(emitted)],
        "streamed": [len(streamed), sha([e.to_dict() for e in streamed])],
    }
json.dump(digests, sys.stdout)
"""


def _spawn(hash_seed: int) -> subprocess.Popen[str]:
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONHASHSEED": str(hash_seed)}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.Popen(
        [sys.executable, "-c", CHILD, str(SCALE)],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def test_event_streams_are_identical_across_hash_seeds() -> None:
    children = [_spawn(hash_seed) for hash_seed in (0, 1)]
    try:
        outputs = [child.communicate(timeout=120) for child in children]
    finally:
        for child in children:
            child.kill()  # no-op once a child has exited
            child.wait()
    for child, (_stdout, stderr) in zip(children, outputs):
        assert child.returncode == 0, stderr
    first, second = (json.loads(stdout) for stdout, _stderr in outputs)
    assert sorted(first) == sorted(DISPATCHER_REGISTRY)
    assert all(entry["streamed"][0] > 0 for entry in first.values())
    assert all(entry["emitted"][0] > entry["streamed"][0] for entry in first.values())
    diverged = {name: (first[name], second[name]) for name in first if first[name] != second[name]}
    assert not diverged, f"event streams differ between PYTHONHASHSEED=0 and =1: {diverged}"
