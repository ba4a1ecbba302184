"""A real block device for the rt substrate: one sparse volume file.

The simulator's :class:`repro.storage.blockdev.BlockDevice` models seek
and transfer *times* but moves no bytes.  The rt substrate inverts that:
:class:`RtBlockDevice` spends no modelled time but performs real
``pwrite``/``pread`` against a shared sparse volume file -- which is what
lets the oracle panel verify, byte for byte, that every committed
extent's data actually reached the right volume offsets before its
commit was sent (the ordered-write property on real hardware).

Writes carry a deterministic per-file pattern (:func:`pattern_byte`), so
the verifier needs no side channel: the volume contents alone prove
which file's data occupies each extent.

Duck-type compatible with the surface :class:`repro.client.client.RedbudClient`
uses: ``submit_write`` / ``submit_read`` / ``expedite_file`` and a
``scheduler`` stub with ``expedite_all_writes`` / ``drop_all``.
"""

from __future__ import annotations

import os
import typing as _t

from repro.core.kernel.events import Event

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.core.effects import Effects

__all__ = ["RtBlockDevice", "pattern_byte", "pattern_bytes"]


def pattern_byte(file_id: int) -> int:
    """The fill byte for ``file_id``'s data (251 is prime: no aliasing
    between files closer than 251 ids apart)."""
    return file_id % 251


def pattern_bytes(file_id: int, length: int) -> bytes:
    return bytes([pattern_byte(file_id)]) * length


class _NullScheduler:
    """Plug/expedite surface of the modelled disk scheduler, as no-ops.

    Real writes are submitted to the OS immediately; there is no plug
    list to expedite and no queue to drop.
    """

    def expedite_all_writes(self) -> None:
        pass

    def drop_all(self) -> int:
        return 0


class RtBlockDevice:
    """Writes file-patterned bytes into a shared sparse volume file."""

    def __init__(self, env: "Effects", volume_path: str, volume_size: int) -> None:
        self.env = env
        self.volume_path = volume_path
        self.volume_size = volume_size
        self.scheduler = _NullScheduler()
        flags = os.O_RDWR | os.O_CREAT
        self._fd = os.open(volume_path, flags, 0o644)
        self.writes = 0
        self.reads = 0
        self.bytes_written = 0

    def close(self) -> None:
        if self._fd >= 0:
            os.close(self._fd)
            self._fd = -1

    def submit_write(
        self,
        volume_offset: int,
        length: int,
        file_id: int = 0,
        sync: bool = False,
        trace_update: _t.Optional[int] = None,
    ) -> Event:
        """Write ``file_id``'s pattern at ``volume_offset``; event fires
        when the data is down.

        ``sync`` additionally fsyncs before completing -- the stability
        guarantee ordered commits rely on.  Completion is delivered
        through the substrate's scheduler (never inline), preserving the
        kernel invariant that a submit's event cannot fire before the
        submitter yields.
        """
        if volume_offset < 0 or volume_offset + length > self.volume_size:
            raise ValueError(
                f"write [{volume_offset}, {volume_offset + length}) "
                f"outside the {self.volume_size}-byte volume"
            )
        os.pwrite(self._fd, pattern_bytes(file_id, length), volume_offset)
        if sync:
            os.fsync(self._fd)
        self.writes += 1
        self.bytes_written += length
        done = Event(self.env)
        done.succeed()
        return done

    def submit_read(
        self, volume_offset: int, length: int, file_id: int = 0
    ) -> Event:
        data = os.pread(self._fd, length, volume_offset)
        self.reads += 1
        done = Event(self.env)
        done.succeed(data)
        return done

    def expedite_file(self, file_id: int) -> None:
        """fsync-kick surface: real writes are already submitted."""

    def fsync_volume(self) -> None:
        os.fsync(self._fd)
