"""Bus transaction vocabulary.

Baseline MESI transactions plus the three SENSS message types that
section 7.1 adds to the command bus:

- type "00": bus authentication message (MAC broadcast),
- type "01": pad invalidate message,
- type "10": pad request message.

Hash-tree invalidation and requests ride on the normal coherence
transactions because hashes live in L2 ("Hash invalidation and request
do not need extra signals", section 7.1).
"""

from __future__ import annotations

from enum import Enum
from typing import Optional


class TransactionType(Enum):
    # Baseline coherence traffic.
    BUS_READ = "BusRd"              # read miss
    BUS_READ_EXCLUSIVE = "BusRdX"   # write miss
    BUS_UPGRADE = "BusUpgr"         # S->M, address-only
    WRITEBACK = "WB"                # dirty eviction to memory
    # SENSS additions (section 7.1 command encodings).
    AUTH_MAC = "Auth00"             # MAC broadcast ("00")
    PAD_INVALIDATE = "PadInv01"     # fast-memory-encryption pad inval ("01")
    PAD_REQUEST = "PadReq10"        # pad fetch ("10")
    # Memory-integrity hash tree traffic (normal reads, tagged for stats).
    HASH_FETCH = "HashFetch"
    HASH_WRITEBACK = "HashWB"

    @property
    def command_encoding(self) -> Optional[str]:
        """The SENSS 2-bit extra command encoding, if any (section 7.1)."""
        return {TransactionType.AUTH_MAC: "00",
                TransactionType.PAD_INVALIDATE: "01",
                TransactionType.PAD_REQUEST: "10"}.get(self)


# Per-member classification flags, precomputed once: the bus and the
# security layer consult these on every transaction, so they are plain
# attributes rather than properties recomputing tuple membership.
_DATA_TYPES = frozenset((
    TransactionType.BUS_READ,
    TransactionType.BUS_READ_EXCLUSIVE,
    TransactionType.WRITEBACK,
    TransactionType.AUTH_MAC,
    TransactionType.PAD_REQUEST,
    TransactionType.HASH_FETCH,
    TransactionType.HASH_WRITEBACK,
))
#: address-only (or digest-only) messages with the fixed 2-bus-cycle
#: requester-visible latency (see SharedBus.base_latency)
_SHORT_TYPES = frozenset((
    TransactionType.BUS_UPGRADE,
    TransactionType.PAD_INVALIDATE,
    TransactionType.AUTH_MAC,
))
#: line movement to/from memory (everything the ``bus.with_memory``
#: traffic counter tracks; security messages are counted by type only)
_MEMORY_DATA_TYPES = frozenset((
    TransactionType.BUS_READ,
    TransactionType.BUS_READ_EXCLUSIVE,
    TransactionType.WRITEBACK,
    TransactionType.HASH_FETCH,
    TransactionType.HASH_WRITEBACK,
))
for _member in TransactionType:
    #: whether a data block rides with the transaction
    _member.carries_data = _member in _DATA_TYPES
    #: half of the one protected-message predicate: a transaction is a
    #: *protected message* (rides the SENSS mask path, advances the
    #: authentication interval, counts in the fault injector's stream)
    #: exactly when ``type.protectable and supplied_by_cache`` — data
    #: moving cache to cache, never the MAC broadcast itself
    _member.protectable = (_member in _DATA_TYPES
                           and _member is not TransactionType.AUTH_MAC)
    _member.is_short_message = _member in _SHORT_TYPES
    _member.is_memory_data = _member in _MEMORY_DATA_TYPES
    #: per-type stats counter name; also the key the bus's deferred
    #: traffic accounting buckets by (string hashing is much cheaper
    #: than Enum.__hash__ on the per-transaction issue path)
    _member.counter_name = f"bus.tx.{_member.value}"


class BusTransaction:
    """One atomic transaction granted on the shared bus.

    A plain ``__slots__`` record: transactions are created (or reused)
    on every miss, upgrade, write-back and security message, so the
    slow path wants the cheapest possible construction — no dataclass
    machinery, no ``__dict__``.
    """

    __slots__ = ("type", "address", "source_pid", "group_id",
                 "issue_cycle", "grant_cycle", "complete_cycle",
                 "supplied_by_cache", "payload", "sequence")

    def __init__(self, type: TransactionType, address: int,
                 source_pid: int, group_id: int = 0,
                 issue_cycle: int = 0, grant_cycle: int = 0,
                 complete_cycle: int = 0,
                 supplied_by_cache: bool = False,
                 payload: Optional[bytes] = None,
                 sequence: int = -1):
        self.type = type
        self.address = address
        self.source_pid = source_pid
        self.group_id = group_id
        self.issue_cycle = issue_cycle
        self.grant_cycle = grant_cycle
        self.complete_cycle = complete_cycle
        self.supplied_by_cache = supplied_by_cache  # cache-to-cache vs memory
        self.payload = payload                      # functional mode only
        self.sequence = sequence

    @property
    def is_cache_to_cache(self) -> bool:
        """A data block moved between processor caches on this grant."""
        return self.type.carries_data and self.supplied_by_cache

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"BusTransaction({self.type.value}, addr={self.address:#x}, "
                f"pid={self.source_pid}, gid={self.group_id}, "
                f"seq={self.sequence})")
