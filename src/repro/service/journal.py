"""Write-ahead journal: an fsync'd JSONL log of accepted commands.

Durability contract (the same crash-safe style as the sweep checkpoints
in :mod:`repro.experiments.runner`, hardened for a serving path):

* the header line names the format and carries the immutable
  :class:`~repro.service.store.StoreConfig` plus the journal's **base
  sequence number** -- 0 for a journal that starts at the beginning of
  history, ``B`` for a journal compacted against a snapshot at seq
  ``B`` (records before ``B + 1`` were trimmed away and live in a
  snapshot, see :mod:`repro.service.snapshot`);
* every accepted command is appended as one JSON line -- written,
  flushed and ``fsync``'d **before** the store mutates (write-ahead);
* records carry contiguous sequence numbers starting at ``base_seq +
  1``, assigned by the journal, so replay can prove it saw every
  accepted command;
* a torn *final* line (the crash window is exactly one partial
  ``write``) is detected -- bytes after the last newline, or an
  undecodable last line with nothing after it -- truncated away, and
  its command counts as never accepted (the client never got an
  acknowledgement for it);
* anything else wrong -- foreign header, an undecodable line with
  anything after it, a sequence gap -- raises
  :class:`~repro.exceptions.JournalError`: that journal was not
  produced by this code crashing, and guessing would corrupt state.

:func:`replay` folds a journal back into a fresh
:class:`~repro.service.store.ArrangementStore` (or onto a snapshot-
restored base store for a compacted journal); because the store is a
pure state machine over records (solver outputs are journaled as
``commit_batch`` deltas, never re-solved), replay is deterministic and
independent of the micro-batch boundaries, solver timing, and thread
scheduling of the process that wrote the journal.

This module also owns the fsync'd JSONL **log core** that both this
journal and the shard manifest (:mod:`repro.service.sharding.manifest`)
are built on -- :func:`create_log`, :func:`durable_write`,
:func:`scan_lines` (the one torn-tail rule), :func:`reopen_log` and
the :class:`AppendLog` base -- plus the tmp + fsync + rename primitive
:func:`atomic_write_bytes`.

Every byte this module (and :mod:`repro.service.snapshot`) moves to
disk goes through a :class:`FileSystem` seam, so the fault-injection
layer in :mod:`repro.robustness.faultfs` can substitute an in-memory
filesystem and enumerate a crash at every write/flush/fsync/rename.
These two modules are the only files under ``src/repro/service/``
allowed to open files for writing (lint rule R14,
``docs/static-analysis.md``); everything else must route through the
log core or :func:`atomic_write_bytes`.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterator, TypeVar

from repro.exceptions import JournalError
from repro.service.store import ArrangementStore, StoreConfig, canonical_json

#: First-line format marker of every service journal.
JOURNAL_FORMAT = "geacc-service-v1"


class FileSystem:
    """Real-filesystem durability primitives (the fault-injection seam).

    The journal and snapshot layers never call ``open``/``os.fsync``/
    ``os.replace`` directly on module level state -- they go through an
    instance of this class (:data:`REAL_FS` in production), so
    :class:`repro.robustness.faultfs.FaultFS` can substitute an
    in-memory filesystem and inject a crash before any single
    durability-relevant operation.
    """

    def open(self, path: str | Path, mode: str) -> IO[bytes]:
        return open(path, mode)

    def fsync(self, handle: IO[bytes]) -> None:
        os.fsync(handle.fileno())

    def fsync_dir(self, directory: str | Path) -> None:
        """Flush a directory entry table (makes renames/creates durable)."""
        fd = os.open(directory, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def replace(self, src: str | Path, dst: str | Path) -> None:
        os.replace(src, dst)

    def remove(self, path: str | Path) -> None:
        os.remove(path)

    def read_bytes(self, path: str | Path) -> bytes:
        return Path(path).read_bytes()

    def exists(self, path: str | Path) -> bool:
        return Path(path).exists()

    def listdir(self, path: str | Path) -> list[str]:
        return os.listdir(path)

    def mkdir(self, path: str | Path) -> None:
        os.makedirs(path, exist_ok=True)


#: The production filesystem; tests substitute a ``FaultFS``.
REAL_FS = FileSystem()


# ----------------------------------------------------------------------
# The log core: fsync'd JSONL primitives shared with the shard manifest
# ----------------------------------------------------------------------


def encode_line(obj: object) -> bytes:
    """One log line: the canonical JSON of ``obj`` plus a newline."""
    return canonical_json(obj) + b"\n"


def durable_write(handle: IO[bytes], blob: bytes, fs: FileSystem) -> None:
    """Write ``blob`` at the handle's position durably: write, flush, fsync."""
    handle.write(blob)
    handle.flush()
    fs.fsync(handle)


def create_log(
    path: Path, header: bytes, fs: FileSystem, *, overwrite: bool = False
) -> IO[bytes]:
    """Durably create a log holding ``header``; returns the append handle.

    The header is fsync'd and so is the parent directory, so the log
    either exists durably with a complete header or (crash mid-create)
    recovery sees nothing. Refuses an existing file unless
    ``overwrite`` (recovery rewriting a log that holds no durable
    header).
    """
    if not overwrite and fs.exists(path):
        raise JournalError(f"{path}: already exists (recover it instead)")
    handle = fs.open(path, "wb" if overwrite else "xb")
    durable_write(handle, header, fs)
    fs.fsync_dir(path.parent)
    return handle


def read_log(path: Path, fs: FileSystem) -> bytes:
    """A log's bytes; a missing, unreadable or empty file raises."""
    try:
        blob = fs.read_bytes(path)
    except OSError as exc:
        raise JournalError(f"{path}: cannot read journal: {exc}") from exc
    if not blob:
        raise JournalError(f"{path}: empty journal (missing header)")
    return blob


def scan_lines(blob: bytes, path: Path) -> Iterator[tuple[dict, int]]:
    """Yield ``(object, end_offset)`` for each durable line of a log.

    Lazy: a caller that stops early (the header probe) decodes only the
    lines it takes. ``end_offset`` is the byte offset just past the line -- the durable
    prefix length if everything after it were torn away. The one
    torn-tail rule: bytes after the last newline are a partial append
    and end the scan; an undecodable (or non-object) complete line is
    tolerated, and ends the scan, only when nothing follows it -- the
    crash window of a partial write whose garbage happened to contain a
    newline. Any other undecodable line raises :class:`JournalError`:
    it was fsync'd before whatever follows it, so dropping it would
    lose an acknowledged record.
    """
    offset = 0
    lineno = 0
    while (newline := blob.find(b"\n", offset)) >= 0:
        end = newline + 1
        lineno += 1
        try:
            decoded = json.loads(blob[offset:newline].decode("utf-8"))
            if not isinstance(decoded, dict):
                raise ValueError(f"record is not an object: {decoded!r}")
        except (ValueError, UnicodeDecodeError) as exc:
            if end == len(blob):
                return
            raise JournalError(f"{path}:{lineno}: corrupt record: {exc}") from exc
        yield decoded, end
        offset = end


def reopen_log(
    path: Path, fs: FileSystem, durable_bytes: int | None = None
) -> IO[bytes]:
    """Open a log for append, first truncating it to ``durable_bytes``."""
    handle = fs.open(path, "r+b")
    if durable_bytes is not None:
        handle.truncate(durable_bytes)
    handle.seek(0, os.SEEK_END)
    return handle


def atomic_write_bytes(
    path: str | Path, blob: bytes, fs: FileSystem = REAL_FS
) -> None:
    """Write ``blob`` to ``path`` atomically and durably.

    tmp file + write + flush + fsync + rename + directory fsync: after
    this returns the bytes are durable under ``path``; a crash at any
    point leaves either the old file or the new one, never a mix. This
    is the one sanctioned whole-file write primitive for
    ``repro.service`` code (lint rule R14).
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp_handle = fs.open(tmp, "wb")
    durable_write(tmp_handle, blob, fs)
    tmp_handle.close()
    fs.replace(tmp, path)
    fs.fsync_dir(path.parent)


@dataclass(frozen=True)
class JournalHeader:
    """Parsed first line of a journal: the config and the base seq."""

    config: StoreConfig
    base_seq: int = 0


@dataclass(frozen=True)
class RecoveryReport:
    """How a recovery reconstructed state (which ladder rung fired).

    ``rung`` is one of:

    * ``"snapshot+tail"`` -- a snapshot restored, journal tail replayed
      on top (the fast path);
    * ``"snapshot-only"`` -- a snapshot restored and the journal held no
      durable header (crash during journal creation/rewrite); the
      journal file was rewritten from the snapshot's seq;
    * ``"full-replay"`` -- no usable snapshot; the whole journal was
      replayed from seq 1;
    * ``"recreate"`` -- nothing durable existed at all (empty/headerless
      journal, no snapshot) and a config was supplied, so recovery
      returned a fresh empty store.
    """

    rung: str
    snapshot_seq: int | None = None
    journal_base_seq: int = 0
    records_replayed: int = 0
    snapshots_rejected: tuple[str, ...] = field(default_factory=tuple)

    def to_json(self) -> dict:
        return {
            "rung": self.rung,
            "snapshot_seq": self.snapshot_seq,
            "journal_base_seq": self.journal_base_seq,
            "records_replayed": self.records_replayed,
            "snapshots_rejected": list(self.snapshots_rejected),
        }


def _parse_header(header: object, path: Path) -> JournalHeader:
    if not isinstance(header, dict) or header.get("format") != JOURNAL_FORMAT:
        raise JournalError(
            f"{path}: not a {JOURNAL_FORMAT} journal "
            f"(header {str(header)[:80]!r})"
        )
    base_seq = header.get("base_seq", 0)
    if not isinstance(base_seq, int) or base_seq < 0:
        raise JournalError(f"{path}: malformed journal base_seq {base_seq!r}")
    return JournalHeader(
        config=StoreConfig.from_json(header.get("config", {})),
        base_seq=base_seq,
    )


def _header_bytes(config: StoreConfig, base_seq: int) -> bytes:
    return encode_line(
        {"format": JOURNAL_FORMAT, "config": config.to_json(), "base_seq": base_seq}
    )


def read_header(path: str | Path, fs: FileSystem = REAL_FS) -> JournalHeader | None:
    """Parse a journal's durable header line, if one exists.

    Returns ``None`` when the file is missing, empty, or holds no
    durable first line under the torn-tail rule of :func:`scan_lines`
    -- the crash window of journal creation, where nothing of the
    journal is durable yet. A foreign header, or an undecodable one
    with anything after it, raises :class:`JournalError` (that file was
    not produced by this code).
    """
    path = Path(path)
    try:
        blob = fs.read_bytes(path)
    except OSError:
        return None
    first = next(scan_lines(blob, path), None)
    return None if first is None else _parse_header(first[0], path)


_LogT = TypeVar("_LogT", bound="AppendLog")


class AppendLog:
    """An open fsync'd JSONL log: its path, append handle and live size.

    The write side :class:`Journal` and
    :class:`~repro.service.sharding.manifest.ShardManifest` share:
    durable appends, whole-file atomic rewrites, and closing.
    """

    def __init__(
        self, path: Path, handle: IO[bytes], *, size_bytes: int, fs: FileSystem
    ) -> None:
        self.path = path
        self.size_bytes = size_bytes
        self._fs = fs
        self._handle: IO[bytes] | None = handle

    @property
    def fs(self) -> FileSystem:
        """The filesystem seam this log writes through.

        Everything that persists alongside the log (snapshots, the
        shard manifest) must go through the same seam so fault-injection
        tests see one coherent world.
        """
        return self._fs

    def _append_record(self, record: dict) -> None:
        """Durably append one record line (on disk when this returns)."""
        if self._handle is None:
            raise JournalError(f"{self.path}: log is closed")
        blob = encode_line(record)
        durable_write(self._handle, blob, self._fs)
        self.size_bytes += len(blob)

    def _rewrite(self, blob: bytes) -> None:
        """Atomically replace the file with ``blob``; reopen for append.

        The handle closes first, so a crash or I/O error mid-rewrite
        leaves the log closed (every later append refuses) rather than
        appending to a file that was just replaced.
        """
        self.close()
        atomic_write_bytes(self.path, blob, self._fs)
        self._handle = reopen_log(self.path, self._fs)
        self.size_bytes = len(blob)

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self: _LogT) -> _LogT:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class Journal(AppendLog):
    """An append-only, fsync'd JSONL write-ahead journal.

    Use :meth:`create` for a fresh journal or :meth:`recover` to open an
    existing one (truncating a torn tail); both return a journal whose
    :attr:`seq` continues the record numbering exactly where the file
    left off. :attr:`base_seq` is the seq of the snapshot this journal
    was last compacted against (0 = full history);
    :attr:`size_bytes` tracks the live file size so the front-end can
    trigger compaction on growth.
    """

    def __init__(
        self,
        path: Path,
        config: StoreConfig,
        seq: int,
        handle: IO[bytes],
        *,
        base_seq: int = 0,
        size_bytes: int = 0,
        fs: FileSystem = REAL_FS,
        last_recovery: RecoveryReport | None = None,
    ):
        super().__init__(path, handle, size_bytes=size_bytes, fs=fs)
        self.config = config
        self.seq = seq
        self.base_seq = base_seq
        self.last_recovery = last_recovery

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def create(
        cls,
        path: str | Path,
        config: StoreConfig,
        *,
        base_seq: int = 0,
        fs: FileSystem = REAL_FS,
    ) -> "Journal":
        """Start a new journal; refuses to overwrite an existing file.

        The header is fsync'd and so is the parent directory, so a
        journal either exists durably with a complete header or (crash
        mid-create) recovery sees nothing and starts over.
        """
        path = Path(path)
        blob = _header_bytes(config, base_seq)
        handle = create_log(path, blob, fs)
        return cls(
            path,
            config,
            seq=base_seq,
            handle=handle,
            base_seq=base_seq,
            size_bytes=len(blob),
            fs=fs,
        )

    @classmethod
    def recover(
        cls,
        path: str | Path,
        *,
        snapshot_dir: str | Path | None = None,
        config: StoreConfig | None = None,
        fs: FileSystem = REAL_FS,
    ) -> tuple["Journal", ArrangementStore]:
        """Reopen ``path``, reconstruct its state, and continue appending.

        Recovery walks the degradation ladder
        (:func:`repro.service.snapshot.recover_state`): newest loadable
        snapshot + journal tail -> older snapshot + tail -> full journal
        replay -> :class:`JournalError` only when nothing durable
        survives. ``snapshot_dir=None`` only means there is no snapshot
        rung: a compacted journal then refuses to recover rather than
        silently dropping its pre-snapshot history.

        ``config`` is the last rung's safety net: when neither journal
        header nor any snapshot is durable -- a crash during the very
        first journal creation, or an empty/zero-length file -- recovery
        returns a fresh empty store under that config instead of
        failing. Without ``config``, that case raises.

        A torn final line is truncated from the file before the journal
        re-opens for append, so the live file never contains garbage in
        the middle. The chosen rung is recorded on
        ``journal.last_recovery``.

        Returns:
            ``(journal, store)`` -- the journal positioned after the
            last durable record, and the store reconstructed from it.
        """
        from repro.service.snapshot import recover_state

        path = Path(path)
        store, durable_bytes, report = recover_state(
            path, snapshot_dir, config=config, fs=fs
        )
        if durable_bytes < 0:
            # No durable header survived: rewrite the journal outright so
            # the file on disk matches the recovered state (base = the
            # recovered seq; there is no tail to preserve).
            blob = _header_bytes(store.config, base_seq=store.seq)
            handle = create_log(path, blob, fs, overwrite=True)
            base_seq = store.seq
            durable_bytes = len(blob)
        else:
            handle = reopen_log(path, fs, durable_bytes)
            base_seq = report.journal_base_seq
        journal = cls(
            path,
            store.config,
            seq=store.seq,
            handle=handle,
            base_seq=base_seq,
            size_bytes=durable_bytes,
            fs=fs,
            last_recovery=report,
        )
        return journal, store

    # ------------------------------------------------------------------
    # The write path
    # ------------------------------------------------------------------

    def append(self, cmd: str, args: dict) -> dict:
        """Durably journal one accepted command; returns the record.

        The record -- ``args`` plus the assigned ``seq`` and ``cmd`` --
        is on disk (written, flushed, fsync'd) when this returns: the
        caller may only then mutate the store.
        """
        record = {"seq": self.seq + 1, "cmd": cmd, **args}
        self._append_record(record)
        self.seq += 1
        return record

    def rewrite_tail(self, base_seq: int) -> None:
        """Atomically trim the journal to records after ``base_seq``.

        The compaction primitive: rewrites the file as a fresh header
        (``base_seq`` recorded) plus the scanned bytes of every record
        with seq > ``base_seq``, via :func:`atomic_write_bytes`. A crash
        anywhere in between leaves either the old journal or the new one
        -- never a mix -- and both replay to the same state given the
        snapshot at ``base_seq`` (which the caller,
        :func:`repro.service.snapshot.compact`, wrote first).
        """
        if self._handle is None:
            raise JournalError(f"{self.path}: log is closed")
        if base_seq < self.base_seq or base_seq > self.seq:
            raise JournalError(
                f"{self.path}: cannot rebase journal to seq {base_seq} "
                f"(live range is [{self.base_seq}, {self.seq}])"
            )
        old = read_log(self.path, self._fs)
        start = end = 0
        for item, end in _journal_lines(old, self.path):
            if isinstance(item, JournalHeader) or item["seq"] <= base_seq:
                start = end
        self._rewrite(_header_bytes(self.config, base_seq) + old[start:end])
        self.base_seq = base_seq

    def __repr__(self) -> str:
        state = "closed" if self._handle is None else "open"
        return (
            f"Journal({self.path}, seq={self.seq}, base={self.base_seq}, {state})"
        )


def iter_records(
    path: str | Path, fs: FileSystem = REAL_FS
) -> Iterator[tuple[JournalHeader | dict, int]]:
    """Yield ``(header | record, end_offset)`` pairs from a journal.

    The first yield is the parsed :class:`JournalHeader`; every later
    yield is a decoded record dict. ``end_offset`` is the byte offset
    just past that line -- the durable prefix length if everything after
    it were torn away. Record seqs are checked contiguous from
    ``header.base_seq + 1``. Torn tails follow :func:`scan_lines`.
    """
    path = Path(path)
    return _journal_lines(read_log(path, fs), path)


def _journal_lines(
    blob: bytes, path: Path
) -> Iterator[tuple[JournalHeader | dict, int]]:
    expected_seq = 1
    for index, (decoded, line_end) in enumerate(scan_lines(blob, path)):
        if index == 0:
            header = _parse_header(decoded, path)
            expected_seq = header.base_seq + 1
            yield header, line_end
            continue
        seq = decoded.get("seq")
        if seq != expected_seq:
            raise JournalError(
                f"{path}:{index + 1}: sequence gap (expected {expected_seq}, "
                f"got {seq!r})"
            )
        expected_seq += 1
        yield decoded, line_end


def replay(
    path: str | Path,
    *,
    base: ArrangementStore | None = None,
    fs: FileSystem = REAL_FS,
) -> tuple[ArrangementStore, int]:
    """Reconstruct the store a journal describes.

    Without ``base``, the journal must start at the beginning of history
    (``base_seq == 0``) and a fresh store is folded from seq 1. With
    ``base`` -- a snapshot-restored store at some seq ``S`` -- the
    journal's ``base_seq`` must be <= ``S`` (its tail must bridge from
    the snapshot), records at or before ``S`` are skipped, and the rest
    are applied **in place** on ``base``.

    Returns:
        ``(store, durable_bytes)`` -- the rebuilt
        :class:`ArrangementStore` and the byte length of the durable
        prefix (everything past it is a torn tail to truncate).

    Raises:
        JournalError: On a corrupt (not merely torn) journal, or a
            ``base``/journal mismatch.
    """
    store: ArrangementStore | None = None
    durable = 0
    for item, end_offset in iter_records(path, fs=fs):
        if store is None:
            if not isinstance(item, JournalHeader):
                raise JournalError(f"{path}: first record is not a header")
            if base is None:
                if item.base_seq:
                    raise JournalError(
                        f"{path}: compacted journal (base seq {item.base_seq}) "
                        "cannot replay without its snapshot"
                    )
                store = ArrangementStore(item.config)
            else:
                if item.config != base.config:
                    raise JournalError(
                        f"{path}: journal config {item.config.to_json()} does not "
                        f"match snapshot config {base.config.to_json()}"
                    )
                if item.base_seq > base.seq:
                    raise JournalError(
                        f"{path}: journal tail starts at seq {item.base_seq + 1}, "
                        f"past the snapshot at seq {base.seq}"
                    )
                store = base
        else:
            assert isinstance(item, dict)
            if item["seq"] > store.seq:
                # Replay folds records that are already durable -- the append
                # this apply answers to happened in the process that wrote the
                # journal, so the write-ahead order is satisfied by construction.
                store.apply(item)  # geacc-lint: disable=R9 reason=replaying records already durable in this journal
        durable = end_offset
    if store is None:
        raise JournalError(f"{path}: journal holds no durable header")
    return store, durable
