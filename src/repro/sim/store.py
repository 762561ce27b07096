"""The one on-disk store under the result cache and the checkpoints.

A :class:`BlobStore` is a directory of content-addressed files sharing
one suffix. Subclasses supply only a key scheme (file name) and an
encoding (what a file's bytes mean and how to verify them):
:class:`~repro.sim.sweep.ResultCache` stores checksummed JSON results,
:class:`~repro.sim.checkpoint.CheckpointStore` pickled machine
snapshots. Everything else lives here, once:

- **atomic publish** — a writer stages into a scratch file named by
  (process, thread, per-store counter), so no two writers of one
  machine ever share one, and publishes it with ``os.replace``;
  readers see an absent or a complete file, never a torn one. Two
  writers racing on one name both publish a complete file and the
  last rename wins; entries for a name are identical by construction,
  so either winner is correct;
- **verification and quarantine** — a file that fails to read,
  decode or verify is renamed to ``<name>.corrupt`` (counted in
  :attr:`quarantined`), so the damage stays inspectable and is never
  re-read;
- **LRU byte budget** — reads touch mtime, and with ``max_mb`` every
  publish evicts oldest-mtime entries until the directory fits
  (counted in :attr:`evicted`). Concurrent stores may race on one
  directory: a file vanishing mid-scan or mid-unlink is someone
  else's eviction, not an error.

Counter updates are lock-protected, so an instance shared by threads
reports exact counts. A store pickles as its directory and budget,
so worker processes rebuild an equivalent handle.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import threading
from pathlib import Path
from typing import Callable, List, Optional, Tuple, TypeVar, Union

from ..errors import TraceError

T = TypeVar("T")

#: what a corrupt file (a bad recording: TraceError) raises decoding
DECODE_ERRORS = (OSError, ValueError, KeyError, TypeError,
                 AttributeError, TraceError)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class BlobStore:
    """Directory of ``*<SUFFIX>`` files with atomic publish,
    verify-or-quarantine reads and an mtime-LRU byte budget."""

    SUFFIX = ""

    def __init__(self, root: Union[str, Path],
                 max_mb: Optional[float] = None):
        self.root = Path(root)
        self.max_mb = max_mb
        self.quarantined = 0
        self.evicted = 0
        self._lock = threading.Lock()
        self._scratch_serial = itertools.count()

    def __reduce__(self):
        return type(self), (self.root, self.max_mb)

    def _publish(self, path: Path, data: bytes) -> None:
        """Atomically make ``path`` hold ``data``."""
        self.root.mkdir(parents=True, exist_ok=True)
        scratch = path.with_suffix(
            f".tmp.{os.getpid()}.{threading.get_ident()}."
            f"{next(self._scratch_serial)}")
        try:
            scratch.write_bytes(data)
            scratch.replace(path)
        finally:
            # A failed write (disk full, interrupt) must not leave
            # scratch litter that later globs could trip over.
            if scratch.exists():
                try:
                    scratch.unlink()
                except OSError:
                    pass

    def _read(self, path: Path, decode: Callable[..., T],
              touch: bool = True) -> Optional[T]:
        """``decode(binary handle)``, or None on a miss. A decode that
        raises (:data:`DECODE_ERRORS`) quarantines the file; a
        successful read with ``touch`` marks it recently used."""
        try:
            with path.open("rb") as handle:
                value = decode(handle)
        except FileNotFoundError:
            return None
        except DECODE_ERRORS:
            self._quarantine(path)
            return None
        if touch:
            try:
                os.utime(path)
            except OSError:
                pass
        return value

    def _quarantine(self, path: Path) -> None:
        try:
            path.replace(path.with_name(path.name + ".corrupt"))
        except OSError:
            return  # already moved or removed by a concurrent reader
        with self._lock:
            self.quarantined += 1

    def _entries(self) -> List[Tuple[float, int, Path]]:
        """``(mtime, size, path)`` of every entry, oldest first."""
        entries = []
        for path in self._paths():
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((stat.st_mtime, stat.st_size, path))
        entries.sort()
        return entries

    def _paths(self, prefix: str = "") -> List[Path]:
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob(f"{prefix}*{self.SUFFIX}"))

    def gc(self) -> int:
        """Evict least-recently-used entries until under ``max_mb``;
        returns how many were evicted."""
        if self.max_mb is None:
            return 0
        entries = self._entries()
        total = sum(size for _mtime, size, _path in entries)
        budget = int(self.max_mb * 1024 * 1024)
        evicted = 0
        for _mtime, size, path in entries:
            if total <= budget:
                break
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            evicted += 1
        if evicted:
            with self._lock:
                self.evicted += evicted
        return evicted

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for path in self._paths():
            try:
                path.unlink()
            except FileNotFoundError:
                continue  # a concurrent clear got there first
            removed += 1
        return removed

    def __len__(self) -> int:
        return len(self._paths())
