"""Write-ahead log for update batches (crash-durable mutations).

FlashGraph-style durability for the dynamic layer: every
:class:`~repro.dynamic.batch.UpdateBatch` is appended to
``<prefix>.wal`` *before* it mutates the in-memory delta state, so a
crash at any point loses at most the batch being written — never a
committed one.

On-disk layout::

    +----------+------------------------------------------+
    | header   | b"GTSWAL02" (8 bytes) | epoch (8 B LE)   |
    +----------+------------------------------------------+
    | record 0 | LEN (4 B LE) | CRC32 (4 B LE) | payload  |
    | record 1 | ...                                      |
    +----------+------------------------------------------+

``payload`` is the UTF-8 JSON of ``UpdateBatch.to_dict()`` and ``CRC32``
is :func:`zlib.crc32` over it.  Append is ``write + flush + fsync``.

``epoch`` pairs the log with the base database it was written against:
:func:`~repro.format.io.save_database` stamps the same number into the
base metadata, and compaction bumps it — the new base is saved with the
bumped epoch *before* the log is reset to match.  A log whose epoch is
*behind* its base is therefore a stale pre-compaction log (the crash hit
between the base save and the WAL reset) whose batches are already
folded into the base pages; :func:`~repro.dynamic.delta.open_dynamic_database`
discards it instead of replaying, because replay is **not** idempotent
(re-applied inserts duplicate parallel edges and re-applied deletes of
folded edges fail validation).

Recovery (:meth:`WriteAheadLog.replay`) reads records until the file
ends.  A record whose length field, payload, or checksum cannot be read
*at the tail* is a **torn tail** — the half-written victim of a crash —
and replay stops cleanly before it (optionally truncating the file back
to the last good record).  A bad checksum *followed by further intact
bytes* means real corruption, which raises
:class:`~repro.errors.WALError` instead of silently dropping data.
"""

import json
import os
import struct
import zlib

from repro.dynamic.batch import UpdateBatch
from repro.errors import WALError

#: File magic; bump the trailing digits when the layout changes.
WAL_MAGIC = b"GTSWAL02"

_FILE_HEADER = struct.Struct("<8sQ")  # magic, base epoch
_HEADER = struct.Struct("<II")        # LEN, CRC32

#: Size of the file header (magic + epoch) preceding the records.
WAL_HEADER_BYTES = _FILE_HEADER.size

#: Refuse absurd record lengths (a corrupt LEN field would otherwise
#: make replay attempt a multi-gigabyte read).
MAX_RECORD_BYTES = 64 * 1024 * 1024


class ReplayReport:
    """What :meth:`WriteAheadLog.replay` found in the log."""

    def __init__(self):
        self.batches = []
        self.good_bytes = WAL_HEADER_BYTES
        self.torn_bytes = 0
        self.truncated = False

    @property
    def num_batches(self):
        return len(self.batches)

    def __iter__(self):
        return iter(self.batches)


class WriteAheadLog:
    """Append-only, checksummed log of update batches.

    Parameters
    ----------
    path:
        The log file; created (with its magic header) if missing.
    fsync:
        Issue ``os.fsync`` after every append (durable by default;
        tests may disable it for speed).
    recorder:
        Optional :class:`~repro.obs.events.TraceRecorder`; appends,
        replays and truncations become instants on the ``host``/``wal``
        lane when one is attached.
    epoch:
        Epoch stamped into the header when *creating* a fresh log (the
        base database's ``wal_epoch``); ignored for an existing file,
        whose header already records the epoch it was written under.
    """

    def __init__(self, path, fsync=True, recorder=None, epoch=0):
        self.path = path
        self.fsync = fsync
        self.recorder = recorder
        self.records_appended = 0
        self.bytes_appended = 0
        self.replays = 0
        self.torn_tail_truncations = 0
        if not os.path.exists(path):
            self.epoch = epoch
            self._write_header(epoch)
        else:
            with open(path, "rb") as handle:
                header = handle.read(_FILE_HEADER.size)
            if (len(header) < _FILE_HEADER.size
                    or header[:len(WAL_MAGIC)] != WAL_MAGIC):
                raise WALError("%s: not a GTS WAL (bad magic %r)"
                               % (path, header[:len(WAL_MAGIC)]))
            self.epoch = _FILE_HEADER.unpack(header)[1]

    # ------------------------------------------------------------------
    # Append path
    # ------------------------------------------------------------------
    @staticmethod
    def encode_record(batch):
        """Serialize one batch to its framed record bytes."""
        payload = json.dumps(batch.to_dict(),
                             separators=(",", ":")).encode("utf-8")
        return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload

    def append(self, batch):
        """Durably append ``batch``; returns its record index (LSN)."""
        record = self.encode_record(batch)
        with open(self.path, "ab") as handle:
            handle.write(record)
            handle.flush()
            if self.fsync:
                os.fsync(handle.fileno())
        lsn = self.records_appended
        self.records_appended += 1
        self.bytes_appended += len(record)
        self._record("wal_append", lsn=lsn, bytes=len(record))
        return lsn

    # ------------------------------------------------------------------
    # Recovery path
    # ------------------------------------------------------------------
    def replay(self, repair=False):
        """Read back every committed batch; returns a :class:`ReplayReport`.

        A torn tail (crash mid-append) ends replay at the last good
        record; with ``repair=True`` the file is truncated back to that
        point so later appends continue from a clean tail.  Corruption
        *before* the tail raises :class:`~repro.errors.WALError`.
        """
        report = ReplayReport()
        with open(self.path, "rb") as handle:
            data = handle.read()
        if (len(data) < _FILE_HEADER.size
                or data[:len(WAL_MAGIC)] != WAL_MAGIC):
            raise WALError("%s: not a GTS WAL" % self.path)
        offset = _FILE_HEADER.size
        total = len(data)
        while offset < total:
            tail = self._decode_at(data, offset, report)
            if tail is None:
                break
            offset = tail
        report.torn_bytes = total - report.good_bytes
        if report.torn_bytes and repair:
            self._truncate_to(report.good_bytes)
            report.truncated = True
            self.torn_tail_truncations += 1
        self.replays += 1
        self._record("wal_replay", batches=report.num_batches,
                      torn_bytes=report.torn_bytes)
        return report

    def _decode_at(self, data, offset, report):
        """Decode one record; returns the next offset or None on a torn
        tail.  Raises :class:`WALError` for mid-log corruption."""
        header = data[offset:offset + _HEADER.size]
        if len(header) < _HEADER.size:
            return None  # torn tail: partial header
        length, checksum = _HEADER.unpack(header)
        if length > MAX_RECORD_BYTES:
            if offset + _HEADER.size == len(data):
                return None  # garbage header right at the tail
            raise WALError(
                "%s: record at byte %d claims %d bytes"
                % (self.path, offset, length))
        start = offset + _HEADER.size
        payload = data[start:start + length]
        if len(payload) < length:
            return None  # torn tail: partial payload
        if zlib.crc32(payload) != checksum:
            if start + length == len(data):
                return None  # torn tail: payload half-flushed
            raise WALError(
                "%s: checksum mismatch at byte %d (mid-log corruption)"
                % (self.path, offset))
        try:
            batch = UpdateBatch.from_dict(json.loads(payload))
        except (ValueError, KeyError) as error:
            raise WALError(
                "%s: undecodable record at byte %d: %s"
                % (self.path, offset, error))
        report.batches.append(batch)
        report.good_bytes = start + length
        return start + length

    def _truncate_to(self, good_bytes):
        with open(self.path, "r+b") as handle:
            handle.truncate(good_bytes)
            handle.flush()
            if self.fsync:
                os.fsync(handle.fileno())

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def reset(self, epoch=None):
        """Empty the log (called after compaction folds it into the base).

        ``epoch`` stamps the fresh header (compaction passes the new
        base's bumped epoch); ``None`` keeps the current one.  The new
        header goes to a temp file and atomically replaces the log, so a
        crash during reset leaves either the old or the new log — never
        a headerless file.
        """
        if epoch is not None:
            self.epoch = epoch
        self._write_header(self.epoch)
        self._record("wal_reset", epoch=self.epoch)

    def _write_header(self, epoch):
        """Atomically (re)write the file as just a header: temp +
        ``os.replace``, so a crash never leaves a torn header."""
        tmp = self.path + ".tmp"
        with open(tmp, "wb") as handle:
            handle.write(_FILE_HEADER.pack(WAL_MAGIC, epoch))
            handle.flush()
            if self.fsync:
                os.fsync(handle.fileno())
        os.replace(tmp, self.path)

    def _record(self, name, **args):
        if self.recorder is not None:
            self.recorder.instant(name, "host", "wal",
                                  0.0, path=self.path, **args)

    def __repr__(self):
        return "WriteAheadLog(%r, %d appended)" % (
            self.path, self.records_appended)
