"""The disk abstraction: honest backends and the injectable fault disk.

:class:`SimDisk` and :class:`FileDisk` are *honest*: a write is applied
to the store immediately and ``fsync`` is a (charged) no-op barrier.
All crash-consistency modelling lives in :class:`FaultDisk`, which
buffers data writes like a page cache and only forwards them to the
inner disk at ``fsync`` — or never, or partially, or torn, as its
:class:`DiskFaultPlan` dictates.  Because the buffering is in the
wrapper, the same fault model runs unchanged over the in-sim byte store
and over real files in the netreal backend.

Fault taxonomy (docs/DURABILITY.md):

* **power loss** — ``power_loss()`` drops every unsynced write; with
  torn writes armed, a *prefix* of the pending write stream survives,
  cut at a plan-chosen byte (the classic torn tail ALICE checks for);
* **dropped fsync** — ``fsync`` reports success but persists nothing
  (writeback error swallowed by the cache);
* **partial fsync** — ``fsync`` persists only a prefix of the pending
  writes (reordered writeback crossed by the barrier);
* **bit-rot** — ``flip_bits`` corrupts *durable* bytes in place; the
  WAL's CRC framing must detect it;
* **full disk** — after an armed byte budget, writes raise
  :class:`DiskFullError`.

File names are flat (no directories); metadata operations (create,
rename, delete, truncate) are journalled synchronously — the model's
one simplification, standing in for a journalling file system's
metadata guarantees, so ``rename`` is the atomic-install primitive.
"""

from __future__ import annotations

import os
import random
from typing import Dict, List, Optional, Tuple

__all__ = [
    "Disk",
    "DiskError",
    "DiskFaultPlan",
    "DiskFullError",
    "FaultDisk",
    "FileDisk",
    "SimDisk",
]


class DiskError(Exception):
    """A disk operation failed (missing file, I/O failure)."""


class DiskFullError(DiskError):
    """The (fault-armed) byte budget is exhausted."""


class Disk:
    """Abstract flat-namespace byte store.

    ``write`` at an offset past the current size zero-fills the gap,
    like a sparse file.  ``fsync`` is per-file, as ``fsync(2)`` is.
    """

    def write(self, name: str, offset: int, data: bytes) -> None:
        raise NotImplementedError

    def append(self, name: str, data: bytes) -> int:
        """Write at end-of-file; returns the offset written at."""
        offset = self.size(name) if self.exists(name) else 0
        self.write(name, offset, data)
        return offset

    def read(self, name: str) -> bytes:
        raise NotImplementedError

    def fsync(self, name: str) -> None:
        raise NotImplementedError

    def truncate(self, name: str, size: int) -> None:
        raise NotImplementedError

    def rename(self, old: str, new: str) -> None:
        raise NotImplementedError

    def delete(self, name: str) -> None:
        """Remove a file; missing files are a forgiving no-op."""
        raise NotImplementedError

    def exists(self, name: str) -> bool:
        raise NotImplementedError

    def size(self, name: str) -> int:
        raise NotImplementedError

    def list_files(self) -> List[str]:
        raise NotImplementedError


class SimDisk(Disk):
    """In-sim byte store; charges modelled I/O time to the cost ledger.

    The cost model is deliberately simple — a seek plus per-byte
    transfer per operation, a fixed barrier cost per fsync — and is
    charged under the ``disk_io`` ledger category so the overhead
    breakdown (and the durability bench) can price fsync policies.
    """

    SEEK_US = 120.0
    PER_BYTE_US = 0.02
    FSYNC_US = 400.0

    def __init__(self, ledger=None) -> None:
        self.ledger = ledger
        self._files: Dict[str, bytearray] = {}

    def _charge(self, us: float) -> None:
        if self.ledger is not None:
            self.ledger.charge("disk_io", us)

    def write(self, name: str, offset: int, data: bytes) -> None:
        buf = self._files.setdefault(name, bytearray())
        if offset > len(buf):
            buf.extend(b"\x00" * (offset - len(buf)))
        buf[offset : offset + len(data)] = data
        self._charge(self.SEEK_US + len(data) * self.PER_BYTE_US)

    def read(self, name: str) -> bytes:
        try:
            buf = self._files[name]
        except KeyError:
            raise DiskError(f"no such file: {name!r}") from None
        self._charge(self.SEEK_US + len(buf) * self.PER_BYTE_US)
        return bytes(buf)

    def fsync(self, name: str) -> None:
        self._charge(self.FSYNC_US)

    def truncate(self, name: str, size: int) -> None:
        buf = self._files.setdefault(name, bytearray())
        del buf[size:]
        self._charge(self.SEEK_US)

    def rename(self, old: str, new: str) -> None:
        if old not in self._files:
            raise DiskError(f"no such file: {old!r}")
        self._files[new] = self._files.pop(old)
        self._charge(self.SEEK_US)

    def delete(self, name: str) -> None:
        self._files.pop(name, None)
        self._charge(self.SEEK_US)

    def exists(self, name: str) -> bool:
        return name in self._files

    def size(self, name: str) -> int:
        try:
            return len(self._files[name])
        except KeyError:
            raise DiskError(f"no such file: {name!r}") from None

    def list_files(self) -> List[str]:
        return sorted(self._files)


class FileDisk(Disk):
    """Real files under one directory, for the netreal backend."""

    def __init__(self, root: str) -> None:
        self.root = root
        os.makedirs(root, exist_ok=True)

    def _path(self, name: str) -> str:
        if "/" in name or name.startswith("."):
            raise DiskError(f"bad file name: {name!r}")
        return os.path.join(self.root, name)

    def write(self, name: str, offset: int, data: bytes) -> None:
        path = self._path(name)
        mode = "r+b" if os.path.exists(path) else "w+b"
        with open(path, mode) as handle:
            handle.seek(0, os.SEEK_END)
            end = handle.tell()
            if offset > end:
                handle.write(b"\x00" * (offset - end))
            handle.seek(offset)
            handle.write(data)

    def read(self, name: str) -> bytes:
        try:
            with open(self._path(name), "rb") as handle:
                return handle.read()
        except FileNotFoundError:
            raise DiskError(f"no such file: {name!r}") from None

    def fsync(self, name: str) -> None:
        try:
            fd = os.open(self._path(name), os.O_RDONLY)
        except FileNotFoundError:
            return
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def truncate(self, name: str, size: int) -> None:
        path = self._path(name)
        if not os.path.exists(path):
            open(path, "wb").close()
        os.truncate(path, size)

    def rename(self, old: str, new: str) -> None:
        try:
            os.replace(self._path(old), self._path(new))
        except FileNotFoundError:
            raise DiskError(f"no such file: {old!r}") from None

    def delete(self, name: str) -> None:
        try:
            os.remove(self._path(name))
        except FileNotFoundError:
            pass

    def exists(self, name: str) -> bool:
        return os.path.exists(self._path(name))

    def size(self, name: str) -> int:
        try:
            return os.path.getsize(self._path(name))
        except FileNotFoundError:
            raise DiskError(f"no such file: {name!r}") from None

    def list_files(self) -> List[str]:
        return sorted(os.listdir(self.root))


class DiskFaultPlan:
    """Deterministic storage-fault schedule for :class:`FaultDisk`.

    Probabilities and scripted strikes, mirroring the network
    :class:`~repro.net.errors.FaultPlan`: everything draws from one
    seeded RNG, so a (workload, schedule, seed) chaos cell replays the
    same disk faults byte for byte.
    """

    def __init__(
        self,
        seed: int = 0,
        torn_write_probability: float = 0.0,
        fsync_partial_probability: float = 0.0,
        fsync_drop_next: int = 0,
        full_after_bytes: Optional[int] = None,
    ) -> None:
        for name, value in (
            ("torn_write_probability", torn_write_probability),
            ("fsync_partial_probability", fsync_partial_probability),
        ):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        self.rng = random.Random(seed)
        #: On power loss, chance that a torn prefix of the pending
        #: write stream survives (instead of losing it all).
        self.torn_write_probability = torn_write_probability
        #: Per-fsync chance of persisting only a prefix of the pending
        #: writes while still reporting success.
        self.fsync_partial_probability = fsync_partial_probability
        #: Scripted strike: the next N fsyncs persist nothing (and lie).
        self.fsync_drop_next = fsync_drop_next
        #: Remaining write budget in bytes; writes past it raise
        #: :class:`DiskFullError`.  ``None`` = unbounded.
        self.full_after_bytes = full_after_bytes
        # -- accounting (surfaced in chaos cell reports) ---------------
        self.torn_writes = 0
        self.fsyncs_dropped = 0
        self.fsyncs_partial = 0
        self.bits_flipped = 0
        self.writes_rejected_full = 0

    def counter_snapshot(self) -> Dict[str, int]:
        return {
            "torn_writes": self.torn_writes,
            "fsyncs_dropped": self.fsyncs_dropped,
            "fsyncs_partial": self.fsyncs_partial,
            "bits_flipped": self.bits_flipped,
            "writes_rejected_full": self.writes_rejected_full,
        }


class FaultDisk(Disk):
    """Page-cache-modelling wrapper: writes pend until fsync.

    ``read`` returns the *logical* view (durable bytes overlaid with
    pending writes) — the running program never sees its own writes
    vanish; only a :meth:`power_loss` reveals what was actually
    durable, exactly as with a real page cache.
    """

    def __init__(self, inner: Disk, plan: Optional[DiskFaultPlan] = None) -> None:
        self.inner = inner
        self.plan = plan or DiskFaultPlan()
        #: name -> ordered (offset, bytes) writes since the last fsync.
        self._pending: Dict[str, List[Tuple[int, bytes]]] = {}

    # -- data path -----------------------------------------------------

    def write(self, name: str, offset: int, data: bytes) -> None:
        plan = self.plan
        if plan.full_after_bytes is not None:
            if len(data) > plan.full_after_bytes:
                plan.writes_rejected_full += 1
                raise DiskFullError(
                    f"disk full writing {len(data)} byte(s) to {name!r}"
                )
            plan.full_after_bytes -= len(data)
        if not self.inner.exists(name):
            # Creation is metadata: the empty file becomes durable now,
            # its contents only at fsync.
            self.inner.write(name, 0, b"")
        self._pending.setdefault(name, []).append((offset, bytes(data)))

    def read(self, name: str) -> bytes:
        pending = self._pending.get(name, ())
        if not self.inner.exists(name) and not pending:
            raise DiskError(f"no such file: {name!r}")
        view = bytearray(self.inner.read(name) if self.inner.exists(name) else b"")
        for offset, data in pending:
            if offset > len(view):
                view.extend(b"\x00" * (offset - len(view)))
            view[offset : offset + len(data)] = data
        return bytes(view)

    def fsync(self, name: str) -> None:
        plan = self.plan
        pending = self._pending.pop(name, [])
        if not pending:
            self.inner.fsync(name)
            return
        if plan.fsync_drop_next > 0:
            plan.fsync_drop_next -= 1
            plan.fsyncs_dropped += 1
            self._pending[name] = pending  # still volatile; caller lied to
            return
        if (
            plan.fsync_partial_probability > 0.0
            and plan.rng.random() < plan.fsync_partial_probability
        ):
            keep = plan.rng.randrange(len(pending))
            plan.fsyncs_partial += 1
            for offset, data in pending[:keep]:
                self.inner.write(name, offset, data)
            self.inner.fsync(name)
            self._pending[name] = pending[keep:]
            return
        for offset, data in pending:
            self.inner.write(name, offset, data)
        self.inner.fsync(name)

    def power_loss(self) -> None:
        """Drop the page cache; maybe keep a torn prefix per file."""
        plan = self.plan
        pending, self._pending = self._pending, {}
        for name, writes in pending.items():
            if (
                plan.torn_write_probability <= 0.0
                or plan.rng.random() >= plan.torn_write_probability
            ):
                continue
            total = sum(len(data) for _off, data in writes)
            keep = plan.rng.randrange(total + 1)
            torn = keep < total
            for offset, data in writes:
                if keep <= 0:
                    break
                self.inner.write(name, offset, data[:keep])
                keep -= len(data)
            if torn:
                plan.torn_writes += 1

    # -- fault injection on durable bytes ------------------------------

    def flip_bits(self, match: str, count: int = 1) -> int:
        """Flip ``count`` random bits in durable files matching ``match``.

        Bit-rot strikes what is already on the platter — pending writes
        are untouched.  Returns the number of bits actually flipped
        (zero when nothing durable matches).
        """
        plan = self.plan
        names = [
            name
            for name in self.inner.list_files()
            if match in name and self.inner.size(name) > 0
        ]
        flipped = 0
        for _ in range(count):
            if not names:
                break
            name = plan.rng.choice(names)
            data = bytearray(self.inner.read(name))
            bit = plan.rng.randrange(len(data) * 8)
            data[bit // 8] ^= 1 << (bit % 8)
            self.inner.write(name, 0, bytes(data))
            flipped += 1
        plan.bits_flipped += flipped
        return flipped

    # -- metadata (journalled synchronously) ---------------------------

    def truncate(self, name: str, size: int) -> None:
        view = self.read(name) if self.exists(name) else b""
        self._pending.pop(name, None)
        self.inner.truncate(name, 0)
        if view[:size]:
            self.inner.write(name, 0, view[:size])

    def rename(self, old: str, new: str) -> None:
        if old in self._pending:
            self._pending[new] = self._pending.pop(old)
            if not self.inner.exists(old):
                self.inner.write(old, 0, b"")
        self._pending.pop(new, None)
        self.inner.rename(old, new)

    def delete(self, name: str) -> None:
        self._pending.pop(name, None)
        self.inner.delete(name)

    def exists(self, name: str) -> bool:
        return self.inner.exists(name) or name in self._pending

    def size(self, name: str) -> int:
        return len(self.read(name))

    def list_files(self) -> List[str]:
        return sorted(set(self.inner.list_files()) | set(self._pending))
