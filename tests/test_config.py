"""Configuration dataclass tests."""

from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import (KB, MB, BusConfig, CacheConfig, MemProtectConfig,
                          SenssConfig, SystemConfig, config_from_dict,
                          config_to_dict, e6000_config)
from repro.errors import ConfigError


class TestCacheConfig:
    def test_geometry(self):
        cache = CacheConfig(size_bytes=1 * MB, associativity=4,
                            line_bytes=64, hit_latency=10)
        assert cache.num_sets == 4096
        assert cache.num_lines == 16384

    def test_validation(self):
        with pytest.raises(ConfigError):
            CacheConfig(0, 4, 64, 10)
        with pytest.raises(ConfigError):
            CacheConfig(1 * MB, 0, 64, 10)
        with pytest.raises(ConfigError):
            CacheConfig(1 * MB, 4, 48, 10)  # not a power of two
        with pytest.raises(ConfigError):
            CacheConfig(1000, 3, 64, 10)  # not divisible


class TestBusConfig:
    def test_gigaplane_line_count(self):
        assert BusConfig().total_lines == 378

    def test_validation(self):
        with pytest.raises(ConfigError):
            BusConfig(bandwidth_gb_s=0)
        with pytest.raises(ConfigError):
            BusConfig(cycle_cpu_cycles=0)


class TestSenssConfig:
    def test_per_message_overhead(self):
        assert SenssConfig().per_message_overhead_cycles == 3

    def test_validation(self):
        with pytest.raises(ConfigError):
            SenssConfig(auth_interval=0)
        with pytest.raises(ConfigError):
            SenssConfig(num_masks=0)
        with pytest.raises(ConfigError):
            SenssConfig(counter_bits=40)


class TestMemProtectConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            MemProtectConfig(pad_protocol="broadcast")
        with pytest.raises(ConfigError):
            MemProtectConfig(hash_tree_arity=1)


class TestSystemConfig:
    def test_figure5_defaults(self):
        config = SystemConfig()
        assert config.l1.size_bytes == 64 * KB
        assert config.l1.hit_latency == 2
        assert config.l2.hit_latency == 10
        assert config.bus.cache_to_cache_latency == 120
        assert config.bus.cache_to_memory_latency == 180
        assert config.crypto.aes_latency == 80
        assert config.max_masks == 8

    def test_with_helpers_are_pure(self):
        config = e6000_config()
        bigger = config.with_l2_size(4 * MB)
        assert config.l2.size_bytes == 1 * MB
        assert bigger.l2.size_bytes == 4 * MB
        assert config.with_processors(2).num_processors == 2
        assert config.with_auth_interval(1).senss.auth_interval == 1
        assert config.with_masks(2).senss.num_masks == 2
        assert not config.with_senss(False).senss.enabled
        assert config.with_memprotect(
            encryption_enabled=True).memprotect.encryption_enabled

    def test_validation(self):
        with pytest.raises(ConfigError):
            SystemConfig(num_processors=0)
        with pytest.raises(ConfigError):
            SystemConfig(num_processors=33)  # exceeds the bit matrix

    def test_l2_line_at_least_l1_line(self):
        small_l2 = CacheConfig(64 * KB, 4, 16, 10)
        with pytest.raises(ConfigError):
            SystemConfig(l2=small_l2)

    def test_describe_renders_figure5(self):
        text = e6000_config().describe()
        assert "1 GHz" in text
        assert "120 cycles (uncontended)" in text
        assert "80 cycles" in text
        assert "3.2 GB/s" in text

    def test_configs_are_hashable_and_comparable(self):
        assert e6000_config() == e6000_config()
        assert hash(e6000_config()) == hash(e6000_config())
        assert e6000_config(l2_mb=1) != e6000_config(l2_mb=4)

    def test_e6000_knobs(self):
        config = e6000_config(num_processors=2, l2_mb=4,
                              senss_enabled=False, auth_interval=10)
        assert config.num_processors == 2
        assert config.l2.size_bytes == 4 * MB
        assert not config.senss.enabled
        assert config.senss.auth_interval == 10


@st.composite
def configs(draw):
    """Configs from the ``e6000_config`` knobs and the ``with_*``
    modifiers, optionally through a wire round trip."""
    config = e6000_config(
        num_processors=draw(st.integers(1, 32)),
        l2_mb=draw(st.sampled_from([1, 2, 4])),
        senss_enabled=draw(st.booleans()),
        auth_interval=draw(st.integers(1, 1000)))
    if draw(st.booleans()):
        config = config.with_masks(
            draw(st.one_of(st.none(), st.integers(1, 8))))
    if draw(st.booleans()):
        config = config.with_memprotect(
            encryption_enabled=draw(st.booleans()),
            integrity_enabled=draw(st.booleans()),
            pad_cache_entries=draw(
                st.one_of(st.none(), st.integers(1, 4096))),
            hash_tree_arity=draw(st.integers(2, 16)),
            lazy_verification=draw(st.booleans()),
            pad_protocol=draw(
                st.sampled_from(["write-invalidate", "write-update"])),
            encryption_mode=draw(st.sampled_from(["otp", "direct"])))
    if draw(st.booleans()):
        config = config.with_protocol(
            draw(st.sampled_from(["MESI", "MSI", "MOESI"])))
    if draw(st.booleans()):
        config = config.with_l2_size(
            draw(st.sampled_from([64 * KB, 256 * KB, 2 * MB])))
    if draw(st.booleans()):
        config = config_from_dict(config_to_dict(config))
    return config


class TestConfigToDict:
    @settings(max_examples=200, deadline=None)
    @given(configs())
    def test_equals_asdict_with_key_order(self, config):
        encoded = config_to_dict(config)
        expected = asdict(config)
        assert encoded == expected
        assert list(encoded) == list(expected)
        for name, section in expected.items():
            if isinstance(section, dict):
                assert list(encoded[name]) == list(section)
        assert config_from_dict(encoded) == config

    def test_sections_are_fresh_dicts(self):
        config = e6000_config()
        encoded = config_to_dict(config)
        encoded["senss"]["auth_interval"] = 1
        assert config_to_dict(config)["senss"]["auth_interval"] == 100
