"""Group context swap-out/swap-in (section 4.2, "Maintaining the mask").

"When an existing group is swapped out, all processes on all
processors are stopped and the contexts are encrypted before being
written out to the memory."

Each member SHU serializes its group channel state (masks, chained MAC
state, message sequence), encrypts it under the group session key with
a fresh IV, appends a CBC-MAC over the ciphertext (so tampering with
the swapped-out context in memory is caught at swap-in), and writes the
blob to main memory. Swap-in reverses the process; a successful restore
leaves every member in the exact lock step it was in at swap-out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..crypto.aes import AES, BLOCK_BYTES
from ..crypto.cbcmac import cbc_mac
from ..crypto.modes import (cbc_decrypt, cbc_encrypt, pkcs7_pad,
                            pkcs7_unpad)
from ..errors import IntegrityViolation, ReproError
from ..memory.dram import MainMemory
from ..sim.rng import DeterministicRng
from .shu import SecurityHardwareUnit

_CONTEXT_MAC_IV = bytes([0x33] * BLOCK_BYTES)


@dataclass
class SwappedContext:
    """One member's encrypted, authenticated context in memory."""

    pid: int
    group_id: int
    iv: bytes
    base_address: int
    num_lines: int
    mac: bytes


class GroupContextManager:
    """Coordinates swap-out/swap-in of one group across its members."""

    def __init__(self, memory: MainMemory,
                 rng: Optional[DeterministicRng] = None,
                 context_base: int = 0x7000_0000):
        self.memory = memory
        self._rng = rng or DeterministicRng(0xC70)
        self._context_base = context_base
        self._swapped: Dict[tuple, SwappedContext] = {}
        self._next_slot = 0

    def _write_blob(self, blob: bytes) -> tuple:
        """Store a blob into consecutive memory lines; returns
        (base_address, num_lines)."""
        line = self.memory.line_bytes
        num_lines = -(-len(blob) // line)
        base = self._context_base + self._next_slot * line
        self._next_slot += num_lines
        padded = blob.ljust(num_lines * line, b"\x00")
        for index in range(num_lines):
            self.memory.write_line(base + index * line,
                                   padded[index * line:(index + 1)
                                          * line])
        return base, num_lines

    def _read_blob(self, base: int, num_lines: int) -> bytes:
        line = self.memory.line_bytes
        return b"".join(self.memory.read_line(base + index * line)
                        for index in range(num_lines))

    def swap_out(self, shus: Sequence[SecurityHardwareUnit],
                 group_id: int) -> List[SwappedContext]:
        """Encrypt every member's channel state out to memory.

        The group remains *installed* (occupied GID, bit matrix rows)
        but its live masks are scrubbed until swap-in.
        """
        contexts = []
        for shu in shus:
            if not shu.is_member(group_id):
                continue
            channel = shu.channel(group_id)
            key = shu.group_table.entry(group_id).session_key
            if key is None:
                raise ReproError("member has no session key")
            iv = self._rng.random_bytes(BLOCK_BYTES)
            ciphertext = cbc_encrypt(AES(key), iv,
                                     pkcs7_pad(channel.export_state()))
            mac = cbc_mac(AES(key), _CONTEXT_MAC_IV, iv + ciphertext)
            base, num_lines = self._write_blob(ciphertext)
            context = SwappedContext(shu.pid, group_id, iv, base,
                                     num_lines, mac)
            self._swapped[(shu.pid, group_id)] = context
            contexts.append(context)
            # Scrub the on-chip copy: a swapped-out group's masks must
            # not linger in the SHU.
            channel.scrub()
        return contexts

    def swap_in(self, shus: Sequence[SecurityHardwareUnit],
                group_id: int) -> int:
        """Decrypt and restore every member's context; returns count.

        Raises :class:`IntegrityViolation` if any context was tampered
        with while in memory.
        """
        restored = 0
        for shu in shus:
            context = self._swapped.get((shu.pid, group_id))
            if context is None:
                continue
            key = shu.group_table.entry(group_id).session_key
            ciphertext = self._read_blob(context.base_address,
                                         context.num_lines)
            # The blob was line-padded on the way out; the MAC covers
            # the exact ciphertext length.
            exact = len(pkcs7_pad(shu.channel(group_id).export_state()))
            ciphertext = ciphertext[:exact]
            mac = cbc_mac(AES(key), _CONTEXT_MAC_IV,
                          context.iv + ciphertext)
            if mac != context.mac:
                raise IntegrityViolation(
                    f"swapped context of CPU {shu.pid} group "
                    f"{group_id} was tampered with in memory")
            blob = pkcs7_unpad(cbc_decrypt(AES(key), context.iv,
                                           ciphertext), "context")
            shu.channel(group_id).restore_state(blob)
            del self._swapped[(shu.pid, group_id)]
            restored += 1
        return restored

    def swapped_out_count(self) -> int:
        return len(self._swapped)
