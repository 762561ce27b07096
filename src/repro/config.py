"""System configuration for the SENSS reproduction.

The defaults reproduce Figure 5 of the paper ("Architectural
parameters"), which models a Sun E6000-class SMP:

========================================  =========================
Processor clock frequency                 1 GHz
Separate L1 I- and D-cache                64 KB, 2-way, 32 B line
L1 hit latency                            2 cycles
Integrated L2 cache                       4-way, 64 B line
L2 hit latency                            10 cycles
Hashing throughput                        3.2 GB/s
Hashing latency                           160 cycles
Cache-to-cache latency                    120 cycles (uncontended)
Cache-to-memory latency                   180 cycles
Shared bus                                3.2 GB/s, 100 MHz, 32 B line
AES latency                               80 cycles
AES throughput                            3.2 GB/s
========================================  =========================

All latencies are in CPU cycles of the 1 GHz clock unless noted.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Dict, Optional, Tuple

from .errors import ConfigError

KB = 1024
MB = 1024 * KB


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _is_power_of_two(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and timing of one cache level."""

    size_bytes: int
    associativity: int
    line_bytes: int
    hit_latency: int
    write_back: bool = True

    def __post_init__(self) -> None:
        _require(self.size_bytes > 0, "cache size must be positive")
        _require(self.associativity > 0, "associativity must be positive")
        _require(_is_power_of_two(self.line_bytes),
                 "cache line size must be a power of two")
        _require(self.hit_latency >= 0, "hit latency must be non-negative")
        _require(self.size_bytes % (self.associativity * self.line_bytes) == 0,
                 "cache size must be a multiple of associativity * line size")

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.associativity * self.line_bytes)

    @property
    def num_lines(self) -> int:
        return self.size_bytes // self.line_bytes


@dataclass(frozen=True)
class BusConfig:
    """Shared snooping bus parameters (Figure 5 + section 7.1).

    ``cycle_cpu_cycles`` is the bus cycle expressed in CPU cycles: the
    paper models a 100 MHz bus under a 1 GHz CPU clock, i.e. 10 CPU
    cycles per bus cycle. ``data_lines``/``address_lines``/
    ``control_lines`` reproduce the Sun Gigaplane line counts used for
    the 3.1% bus-line overhead computation in section 7.1.
    """

    bandwidth_gb_s: float = 3.2
    frequency_mhz: int = 100
    line_bytes: int = 32
    cycle_cpu_cycles: int = 10
    cache_to_cache_latency: int = 120
    cache_to_memory_latency: int = 180
    data_lines: int = 256
    address_lines: int = 41
    control_lines: int = 81  # 378 total Gigaplane lines - data - address
    # False = atomic bus (default model); True = split-transaction
    # (separate address/data bus occupancy, closer to the real
    # Gigaplane) — an extension ablation, see bench_ext_split_bus.py.
    split_transaction: bool = False

    def __post_init__(self) -> None:
        _require(self.bandwidth_gb_s > 0, "bus bandwidth must be positive")
        _require(self.cycle_cpu_cycles > 0, "bus cycle must be positive")
        _require(self.cache_to_cache_latency > 0,
                 "cache-to-cache latency must be positive")
        _require(self.cache_to_memory_latency > 0,
                 "cache-to-memory latency must be positive")

    @property
    def total_lines(self) -> int:
        return self.data_lines + self.address_lines + self.control_lines


@dataclass(frozen=True)
class CryptoConfig:
    """Latency/throughput model of the SHU crypto hardware (Figure 5)."""

    aes_latency: int = 80
    aes_throughput_gb_s: float = 3.2
    hash_latency: int = 160
    hash_throughput_gb_s: float = 3.2
    key_bits: int = 128

    def __post_init__(self) -> None:
        _require(self.aes_latency > 0, "AES latency must be positive")
        _require(self.key_bits in (128, 192, 256),
                 "AES key size must be 128, 192 or 256 bits")


@dataclass(frozen=True)
class SenssConfig:
    """SENSS security-layer parameters (sections 4, 5, 7.1).

    ``auth_interval`` is the number of cache-to-cache bus transactions
    between MAC broadcasts (paper default for Figure 6/7/8 is 100;
    Figure 9 sweeps 1/10/32/100). ``num_masks`` is the mask array size;
    ``None`` models the "perfect" (infinite) supply of Figure 6.
    ``max_processors``/``max_groups`` size the SHU tables (section 7.1:
    32 processors, 1024 groups).
    """

    enabled: bool = True
    auth_interval: int = 100
    num_masks: Optional[int] = None
    max_processors: int = 32
    max_groups: int = 1024
    counter_bits: int = 8
    sender_xor_cycles: int = 1
    receiver_lookup_xor_cycles: int = 2

    def __post_init__(self) -> None:
        _require(self.auth_interval >= 1,
                 "authentication interval must be >= 1")
        _require(self.num_masks is None or self.num_masks >= 1,
                 "mask count must be >= 1 (or None for perfect)")
        _require(1 <= self.counter_bits <= 32,
                 "counter field is 0..32 bits; experiments use 8")

    @property
    def per_message_overhead_cycles(self) -> int:
        """Extra bus delay per message: 1 sender + 2 receiver cycles."""
        return self.sender_xor_cycles + self.receiver_lookup_xor_cycles


@dataclass(frozen=True)
class MemProtectConfig:
    """Cache-to-memory protection (section 6 / Figure 10)."""

    encryption_enabled: bool = False
    integrity_enabled: bool = False
    pad_cache_entries: Optional[int] = None  # None = perfect SNC (sec 7.7)
    hash_tree_arity: int = 4
    lazy_verification: bool = False  # CHash (False) vs LHash-style (True)
    pad_protocol: str = "write-invalidate"  # or "write-update" (sec 6.1)
    # "otp" = fast memory encryption (pads overlap the fetch, sec 2.1);
    # "direct" = decrypt-after-fetch, the naive baseline whose ~17%
    # slowdown motivated the OTP schemes [25, 29].
    encryption_mode: str = "otp"

    def __post_init__(self) -> None:
        _require(self.pad_protocol in ("write-invalidate", "write-update"),
                 "pad protocol must be write-invalidate or write-update")
        _require(self.hash_tree_arity >= 2, "hash tree arity must be >= 2")
        _require(self.encryption_mode in ("otp", "direct"),
                 "encryption mode must be otp or direct")


@dataclass(frozen=True)
class SystemConfig:
    """Complete configuration of a simulated (SENSS) SMP machine."""

    num_processors: int = 4
    cpu_ghz: float = 1.0
    l1: CacheConfig = field(default_factory=lambda: CacheConfig(
        size_bytes=64 * KB, associativity=2, line_bytes=32, hit_latency=2))
    l2: CacheConfig = field(default_factory=lambda: CacheConfig(
        size_bytes=1 * MB, associativity=4, line_bytes=64, hit_latency=10))
    bus: BusConfig = field(default_factory=BusConfig)
    crypto: CryptoConfig = field(default_factory=CryptoConfig)
    senss: SenssConfig = field(default_factory=SenssConfig)
    memprotect: MemProtectConfig = field(default_factory=MemProtectConfig)
    dram_access_ns: int = 80
    coherence_protocol: str = "MESI"  # or "MSI" / "MOESI" (ablations)

    def __post_init__(self) -> None:
        _require(self.coherence_protocol in ("MESI", "MSI", "MOESI"),
                 "coherence protocol must be MESI, MSI or MOESI")
        _require(self.num_processors >= 1, "need at least one processor")
        _require(self.num_processors <= self.senss.max_processors,
                 "more processors than the SHU bit matrix supports")
        _require(self.l2.line_bytes >= self.l1.line_bytes,
                 "L2 line must be at least as large as L1 line")

    @property
    def max_masks(self) -> int:
        """Maximum useful mask count: AES latency / bus cycle (sec 4.4).

        For the Figure 5 machine this is 80 / 10 = 8.
        """
        return -(-self.crypto.aes_latency // self.bus.cycle_cpu_cycles)

    def with_l2_size(self, size_bytes: int) -> "SystemConfig":
        """Return a copy with a different L2 capacity (Figure 6/8 sweeps)."""
        return replace(self, l2=replace(self.l2, size_bytes=size_bytes))

    def with_processors(self, count: int) -> "SystemConfig":
        return replace(self, num_processors=count)

    def with_auth_interval(self, interval: int) -> "SystemConfig":
        return replace(self, senss=replace(self.senss,
                                           auth_interval=interval))

    def with_masks(self, num_masks: Optional[int]) -> "SystemConfig":
        return replace(self, senss=replace(self.senss, num_masks=num_masks))

    def with_senss(self, enabled: bool) -> "SystemConfig":
        return replace(self, senss=replace(self.senss, enabled=enabled))

    def with_memprotect(self, **kwargs) -> "SystemConfig":
        return replace(self, memprotect=replace(self.memprotect, **kwargs))

    def with_protocol(self, name: str) -> "SystemConfig":
        return replace(self, coherence_protocol=name)

    def describe(self) -> str:
        """Render the Figure 5 parameter table for bench headers."""
        rows = [
            ("Processor clock frequency", f"{self.cpu_ghz:g} GHz"),
            ("Processors", str(self.num_processors)),
            ("L1 I/D cache", f"{self.l1.size_bytes // KB}KB, "
                             f"{self.l1.associativity}-way, "
                             f"{self.l1.line_bytes}B line"),
            ("L1 hit latency", f"{self.l1.hit_latency} cycles"),
            ("L2 cache", f"{self.l2.size_bytes // MB}MB, "
                         f"{self.l2.associativity}-way, "
                         f"{self.l2.line_bytes}B line"),
            ("L2 hit latency", f"{self.l2.hit_latency} cycles"),
            ("Cache-to-cache latency",
             f"{self.bus.cache_to_cache_latency} cycles (uncontended)"),
            ("Cache-to-memory latency",
             f"{self.bus.cache_to_memory_latency} cycles"),
            ("Shared bus", f"{self.bus.bandwidth_gb_s:g} GB/s, "
                           f"{self.bus.frequency_mhz}MHz, "
                           f"{self.bus.line_bytes}B line"),
            ("AES latency", f"{self.crypto.aes_latency} cycles"),
            ("AES throughput", f"{self.crypto.aes_throughput_gb_s:g} GB/s"),
            ("Hashing latency", f"{self.crypto.hash_latency} cycles"),
            ("SENSS", "enabled" if self.senss.enabled else "disabled"),
            ("Auth interval",
             f"{self.senss.auth_interval} bus transactions"),
            ("Masks", "perfect" if self.senss.num_masks is None
             else str(self.senss.num_masks)),
        ]
        width = max(len(name) for name, _ in rows)
        return "\n".join(f"{name:<{width}}  {value}" for name, value in rows)


#: section name -> nested config dataclass, for wire round-trips
_NESTED_SECTIONS = {
    "l1": CacheConfig,
    "l2": CacheConfig,
    "bus": BusConfig,
    "crypto": CryptoConfig,
    "senss": SenssConfig,
    "memprotect": MemProtectConfig,
}


#: config class -> its field names in declaration order, so encoding
#: walks a tuple instead of calling ``dataclasses.fields`` per object
_FIELD_NAMES: Dict[type, Tuple[str, ...]] = {
    cls: tuple(f.name for f in fields(cls))
    for cls in (SystemConfig, *_NESTED_SECTIONS.values())}


def config_to_dict(config: SystemConfig) -> dict:
    """Serialize a config to plain JSON-safe dicts (wire format).

    The output round-trips through :func:`config_from_dict`; it is the
    shape ``repro.serve`` jobs carry per sweep point, and the config
    part of every point and family key. It equals
    ``dataclasses.asdict(config)``, key order included, without the
    deep copy: every leaf field is already a JSON atom (int, float,
    bool, str or None), so only the nested sections need a new dict.
    """
    encoded = {}
    for name in _FIELD_NAMES[type(config)]:
        value = getattr(config, name)
        if type(value) in _FIELD_NAMES:
            value = config_to_dict(value)
        encoded[name] = value
    return encoded


def _section_from_dict(cls, name: str, payload) -> object:
    if not isinstance(payload, dict):
        raise ConfigError(f"config section {name!r} must be an object, "
                          f"got {type(payload).__name__}")
    allowed = {f.name for f in fields(cls)}
    unknown = set(payload) - allowed
    if unknown:
        raise ConfigError(f"config section {name!r} has unknown "
                          f"fields {sorted(unknown)}")
    return cls(**payload)


def config_from_dict(payload: dict) -> SystemConfig:
    """Rebuild a :class:`SystemConfig` from its dict serialization.

    Accepts partial dicts — omitted fields (and omitted nested
    sections) take their defaults, so clients may send just the knobs
    they changed. Unknown field names raise :class:`ConfigError`
    (mapped to HTTP 400 by the service) rather than being silently
    dropped: a typoed knob must not simulate the wrong machine.
    """
    if not isinstance(payload, dict):
        raise ConfigError("config must be an object, "
                          f"got {type(payload).__name__}")
    allowed = {f.name for f in fields(SystemConfig)}
    unknown = set(payload) - allowed
    if unknown:
        raise ConfigError(f"config has unknown fields {sorted(unknown)}")
    kwargs = {}
    for name, value in payload.items():
        section = _NESTED_SECTIONS.get(name)
        kwargs[name] = value if section is None else \
            _section_from_dict(section, name, value)
    try:
        return SystemConfig(**kwargs)
    except TypeError as exc:
        raise ConfigError(f"invalid config: {exc}") from None


def e6000_config(num_processors: int = 4,
                 l2_mb: int = 1,
                 senss_enabled: bool = True,
                 auth_interval: int = 100) -> SystemConfig:
    """The paper's default machine (Figure 5) with common knobs exposed."""
    config = SystemConfig(num_processors=num_processors)
    config = config.with_l2_size(l2_mb * MB)
    config = config.with_auth_interval(auth_interval)
    return config.with_senss(senss_enabled)
