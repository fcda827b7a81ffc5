"""Golden bytes and crash-point sequence of the durability layers.

A fixed script runs under :class:`FaultFS`: one service that compacts
twice and then recovers, and a 2-shard fleet that rebalances, serves a
request after the merge, and then recovers. The SHA-256 of every
durable file and the full list of counted filesystem operations are
compared against ``durable_golden.json``. Any change to a journal,
snapshot or manifest byte, or to the order of creates, writes, fsyncs,
renames and truncates (the crash points the FaultFS sweeps enumerate),
shows up here.
"""

import hashlib
import json
from pathlib import Path

from repro.robustness.faultfs import FaultFS
from repro.service.frontend import ArrangementService
from repro.service.sharding import ShardCoordinator
from repro.service.store import StoreConfig

CONFIG = StoreConfig(dimension=2, t=10.0)

#: The virtual root the script mounts; nothing real lives here.
ROOT = Path("/faultfs-virtual")

GOLDEN = Path(__file__).with_name("durable_golden.json")


def _serve(service: ArrangementService, user: int) -> None:
    service.request_assignment(user, wait=False)
    service.run_pending_batch()


def run_service(fs: FaultFS) -> None:
    """One service: commands, two compactions, more commands, recovery."""
    home = ROOT / "service"
    fs.mkdir(home)
    snapshots = home / "snapshots"
    service = ArrangementService.create(
        home / "journal.jsonl", CONFIG, fs=fs, threaded=False, snapshot_dir=snapshots
    )
    with service:
        first = service.post_event(2, [1.0, 1.0], [])
        user = service.register_user(1, [2.0, 2.0])
        _serve(service, user)
        service.compact()
        service.post_event(1, [5.0, 5.0], [first])
        late = service.register_user(2, [6.0, 4.0])
        _serve(service, late)
        service.freeze_event(first)
        service.compact()
        service.register_user(1, [3.0, 7.0])
    recovered = ArrangementService.recover(
        home / "journal.jsonl", snapshot_dir=snapshots, fs=fs, threaded=False
    )
    with recovered:
        _serve(recovered, late)


def run_fleet(fs: FaultFS) -> None:
    """A 2-shard fleet: merge two components, serve after it, recover."""
    root = ROOT / "fleet"
    with ShardCoordinator.create(root, CONFIG, 2, fs=fs, threaded=False) as fleet:
        events = [
            fleet.post_event(capacity=2, attributes=[1.0, 1.0]),
            fleet.post_event(capacity=2, attributes=[9.0, 9.0]),
        ]
        for corner in ([1.1, 0.9], [8.9, 9.1]):
            fleet.request_assignment(
                fleet.register_user(capacity=1, attributes=corner)
            )
        fleet.freeze_event(events[1])
        fleet.post_event(capacity=1, attributes=[5.0, 5.0], conflicts=events)
        late = fleet.register_user(capacity=1, attributes=[0.9, 1.1])
        fleet.request_assignment(late)
    with ShardCoordinator.recover(root, fs=fs, threaded=False) as fleet:
        fleet.request_assignment(late)


def observe() -> dict:
    """Run the script; return every durable file's hash and the op list."""
    fs = FaultFS(ROOT)
    run_service(fs)
    run_fleet(fs)
    files = {
        str(Path(path).relative_to(ROOT)): hashlib.sha256(content).hexdigest()
        for path, content in fs.iter_files("durable")
    }
    return {"files": files, "ops": fs.ops}


def test_durable_bytes_and_crash_points_match_the_golden() -> None:
    golden = json.loads(GOLDEN.read_text())
    observed = observe()
    assert observed["files"] == golden["files"]
    assert observed["ops"] == golden["ops"]
