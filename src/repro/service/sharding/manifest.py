"""The shard manifest: the coordinator's own write-ahead log.

Shard journals are deliberately self-contained -- each one replays to
its shard's state with *local* entity ids and knows nothing about the
other shards. What they cannot answer is the routing question: which
global id lives on which shard, and in what local slot. The manifest is
the coordinator's durable answer: an fsync'd JSONL file -- written and
scanned by the journal's own log core (:class:`~repro.service.journal.
AppendLog`, :func:`~repro.service.journal.create_log`,
:func:`~repro.service.journal.scan_lines`), through the same
:class:`~repro.service.journal.FileSystem` seam so ``FaultFS`` can
crash it at any instruction -- holding one entry per globally-visible
placement decision:

* ``{"n": k, "kind": "event", "gid": g, "shard": s}`` -- global event
  ``g`` was placed on shard ``s`` (local id = its per-shard arrival
  order);
* ``{"n": k, "kind": "user", "gid": g, "shard": s}`` -- likewise for a
  user;
* ``{"n": k, "kind": "rebalance", ...}`` -- a component merge moved
  state between shards; the entry carries the **full redo payload**
  (moved events/users with attributes, conflicts as global ids, the
  standing assignments, and the target shard's pre-migration entity
  counts) so recovery can finish a half-applied migration
  deterministically.

Write-ahead ordering: the manifest entry is durable *before* the
corresponding shard-journal append. The coordinator serialises
placement mutations, so after a crash at most the trailing manifest
entries are unacknowledged -- recovery reconciles entry counts against
each shard's actual state and drops the overhang
(:meth:`ShardManifest.load` + the coordinator's recovery walk).

A torn final line is truncated by the journal's torn-tail rule; a
mid-file gap, undecodable mid-file line or foreign header raises
:class:`~repro.exceptions.JournalError`.
"""

from __future__ import annotations

from pathlib import Path
from typing import IO

from repro.exceptions import JournalError
from repro.service.journal import (
    REAL_FS,
    AppendLog,
    FileSystem,
    create_log,
    encode_line,
    read_log,
    reopen_log,
    scan_lines,
)
from repro.service.store import StoreConfig

#: Manifest format tag (header ``format`` field).
MANIFEST_FORMAT = "geacc-shard-manifest-v1"

#: Entry kinds a manifest line may carry.
ENTRY_KINDS = frozenset({"event", "user", "rebalance"})


def _header_bytes(config: StoreConfig, shards: int) -> bytes:
    return encode_line(
        {"format": MANIFEST_FORMAT, "shards": shards, "config": config.to_json()}
    )


class ShardManifest(AppendLog):
    """Append-only fsync'd placement log for one shard fleet."""

    def __init__(
        self,
        path: Path,
        config: StoreConfig,
        shards: int,
        n: int,
        handle: IO[bytes],
        *,
        fs: FileSystem = REAL_FS,
        size_bytes: int = 0,
    ) -> None:
        super().__init__(path, handle, size_bytes=size_bytes, fs=fs)
        self.config = config
        self.shards = shards
        self.n = n

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def create(
        cls,
        path: str | Path,
        config: StoreConfig,
        shards: int,
        *,
        fs: FileSystem = REAL_FS,
    ) -> "ShardManifest":
        """Start a fresh manifest; refuses to overwrite an existing one."""
        path = Path(path)
        if shards < 1:
            raise JournalError(f"shards must be >= 1, got {shards}")
        blob = _header_bytes(config, shards)
        handle = create_log(path, blob, fs)
        return cls(path, config, shards, n=0, handle=handle, fs=fs, size_bytes=len(blob))

    @classmethod
    def load(
        cls, path: str | Path, *, fs: FileSystem = REAL_FS
    ) -> tuple["ShardManifest", list[dict]]:
        """Re-open an existing manifest, truncating any torn tail.

        Returns the manifest (positioned for append) plus every durable
        entry in order. Validation: contiguous ``n`` starting at 1,
        known entry kinds, and the journal's torn-tail rule
        (:func:`~repro.service.journal.scan_lines`).
        """
        path = Path(path)
        lines = scan_lines(read_log(path, fs), path)
        first = next(lines, None)
        if first is None:
            raise JournalError(f"{path}: manifest has no durable header")
        header, durable_bytes = first
        if header.get("format") != MANIFEST_FORMAT:
            raise JournalError(
                f"{path}: not a {MANIFEST_FORMAT} manifest: {header!r}"
            )
        config = StoreConfig.from_json(header.get("config", {}))
        shards = header.get("shards")
        if not isinstance(shards, int) or shards < 1:
            raise JournalError(f"{path}: malformed shard count {shards!r}")

        entries: list[dict] = []
        for entry, durable_bytes in lines:
            if (
                entry.get("n") != len(entries) + 1
                or entry.get("kind") not in ENTRY_KINDS
            ):
                raise JournalError(f"{path}: malformed manifest entry {entry!r}")
            entries.append(entry)
        handle = reopen_log(path, fs, durable_bytes)
        manifest = cls(
            path,
            config,
            shards,
            n=len(entries),
            handle=handle,
            fs=fs,
            size_bytes=durable_bytes,
        )
        return manifest, entries

    # ------------------------------------------------------------------
    # The write path
    # ------------------------------------------------------------------

    def append(self, kind: str, payload: dict) -> dict:
        """Durably record one placement entry; returns it with ``n`` set."""
        if kind not in ENTRY_KINDS:
            raise JournalError(f"unknown manifest entry kind {kind!r}")
        entry = {"n": self.n + 1, "kind": kind, **payload}
        self._append_record(entry)
        self.n += 1
        return entry

    def rewrite(self, entries: list[dict]) -> None:
        """Atomically replace the manifest body with ``entries``.

        Recovery's reconciliation step: after dropping unacknowledged
        trailing entries the on-disk file is rewritten (renumbered from
        1) via :func:`~repro.service.journal.atomic_write_bytes`, then
        re-opened for append. A crash mid-rewrite leaves either the old
        or the new manifest, never a mix.
        """
        body = b"".join(
            encode_line({**entry, "n": index + 1})
            for index, entry in enumerate(entries)
        )
        self._rewrite(_header_bytes(self.config, self.shards) + body)
        self.n = len(entries)

    def __repr__(self) -> str:
        return (
            f"ShardManifest({self.path}, shards={self.shards}, n={self.n})"
        )
