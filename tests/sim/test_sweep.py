"""The sweep runner and its content-addressed result cache."""

import json
import os
import pickle
import subprocess
import sys
from dataclasses import replace

import pytest

from repro.config import e6000_config
from repro.faults.plan import FaultKind, FaultPlan
from repro.sim import sweep
from repro.sim.checkpoint import family_key
from repro.sim.sweep import (ENGINE_VERSION, ResultCache, SweepPoint,
                             SweepTimings, point_key, run_point,
                             run_sweep)


def point(name="fft", seed=0, scale=0.05, **config_kwargs):
    config = e6000_config(num_processors=2, l2_mb=1, **config_kwargs)
    return SweepPoint(name, config, scale=scale, seed=seed)


class TestPointKey:
    def test_stable(self):
        assert point_key(point()) == point_key(point())

    def test_sensitive_to_every_input(self):
        base = point_key(point())
        assert point_key(point(name="lu")) != base
        assert point_key(point(seed=1)) != base
        assert point_key(point(scale=0.1)) != base
        assert point_key(point(senss_enabled=False)) != base
        assert point_key(point(auth_interval=10)) != base

    def test_engine_version_is_part_of_the_key(self, monkeypatch):
        before = point_key(point())
        monkeypatch.setattr("repro.sim.sweep.ENGINE_VERSION",
                            ENGINE_VERSION + 1)
        assert point_key(point()) != before

    def test_replace_gets_a_new_key(self):
        base = point()
        assert base.key == point_key(base)
        moved = replace(base, scale=0.1)
        assert point_key(moved) != point_key(base)
        assert point_key(moved) == point_key(point(scale=0.1))

    def test_pickle_keeps_the_key_and_ignores_it_in_eq_and_hash(self):
        fresh, keyed = point(), point()
        key = point_key(keyed)
        restored = pickle.loads(pickle.dumps(keyed))
        assert restored.__dict__["key"] == key  # carried, not recomputed
        assert restored == keyed == fresh
        assert hash(restored) == hash(keyed) == hash(fresh)
        assert "key" not in fresh.__dict__
        assert {restored, fresh} == {keyed}

    def test_engine_version_covers_memprotect_rewrite(self):
        """The flattened hash tree / fused memprotect node path shipped
        as engine 3; any cache written by an older engine must miss.
        (Floor, not equality: later bumps must not un-bust this one.)"""
        assert ENGINE_VERSION >= 3


class TestKeyIdentity:
    """Point and family keys name every result-cache entry, recording
    and snapshot written so far: they must never change silently.
    Each row is ``(point, point_key, family_key, family_key(recorded=
    True))`` at ``e6000_config``, scale 0.5. Family keys fold in
    ``CHECKPOINT_VERSION`` and change, deliberately, with each bump
    (last: 5 -> 6, plain-int stats registries); point keys never do."""

    ROWS = [
        (SweepPoint("fft", e6000_config(2, 1, senss_enabled=False),
                    0.5, 0),
         "f332deeb153e113a48d8ea29cff95ed959e98e8aa0270f240168c38119e43ab1",
         "0f651808f5c83032d73defa042a6dcbd6f27e94d56368325d232d65a7c45ad42",
         "2a341b83bf55f860019799703cf08f5f1d0cbf7816eee05a454ddda99bfe971d"),
        (SweepPoint("ocean", e6000_config(4, 4).with_masks(2), 0.5, 0),
         "cc1598dc07a64be9b943c6e144eddae3ea6e11dd4189ada1f3fb90da702fc56a",
         "6902be223a10e3625a8b47272d749dfb5f4256f55923f677537e855d6fd7b6e3",
         "c3ab59ccd92861ab533be2ef80b2c789e5f7733371f8cdae572250de6f5e35df"),
        (SweepPoint("lu", e6000_config(4, 1).with_memprotect(
            encryption_enabled=True, integrity_enabled=True), 0.5, 1),
         "afaf0d2f6d52bbdbe96d4d6ca4a6098b94bc8bdd2c5e86dac82fbd8aaeb27fc0",
         "7fb95cc228821c831f796bfca0b129701093ddf771f7b03ae98a91cb863bc9de",
         "480c4c7a46bf38abfe8babb4278611ec540e5b1e25d95dedf32a43965bfee1d8"),
        # a campaign cell: plan and policy join the point key, and the
        # family key carries the "armed" flag but no plan or policy
        (SweepPoint("radix", e6000_config(2, 1), 0.5, 0,
                    plan=FaultPlan.single(FaultKind.DROP, trigger=300),
                    policy="rekey-replay"),
         "c89e47b4abc65a129e8ce5b9fb6d0c4013b0cc13f7853fb17a05710c65ef7cd8",
         "e731f8f80dc461c3115689b5c65506d5a5eda76b85c1666e33c66928edd2a807",
         "e3b821ba65dd27bbbd9e0f26458e2b65a661576691e3ffd7dc2f7f9125318306"),
        # an armed point: a campaign's fault-free prefix (empty plan)
        (SweepPoint("barnes", e6000_config(4, 1).with_memprotect(
            encryption_enabled=True, integrity_enabled=True), 0.5, 0,
            plan=FaultPlan()),
         "7367af5d9e634d9815f3b1e3b26324cf7568748b64cea31923edd35a3de0fcfb",
         "8bdb529a56af4391966505fcd0a2d114c4f1b40ea3435d033a81009c0d2a1365",
         "a6cdeddac71d430927bd42e2abcd6f60d274d359e99c7351f90d7e8ca555b6b1"),
    ]

    @pytest.mark.parametrize("row", ROWS,
                             ids=[row[0].workload for row in ROWS])
    def test_keys_are_pinned(self, row):
        target, key, family, recorded_family = row
        assert point_key(target) == key
        assert family_key(target) == family
        assert family_key(target, recorded=True) == recorded_family


def test_simulation_never_imports_numpy():
    """The package is stdlib-only: importing it and running a point
    must leave numpy unloaded (checked in a fresh interpreter, since
    test plugins may have imported it into this one)."""
    script = (
        "import sys, repro\n"
        "from repro.config import e6000_config\n"
        "from repro.sim.sweep import SweepPoint, run_point\n"
        "point = SweepPoint('fft', e6000_config(num_processors=2), "
        "scale=0.02)\n"
        "assert run_point(point).cycles > 0\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n")
    src = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                       "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    completed = subprocess.run([sys.executable, "-c", script], env=env,
                               capture_output=True, text=True,
                               timeout=120)
    assert completed.returncode == 0, completed.stderr


class TestResultCache:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        target = point()
        assert cache.load(target) is None
        result = run_point(target)
        cache.store(target, result)
        assert len(cache) == 1
        loaded = cache.load(target)
        assert loaded.cycles == result.cycles
        assert list(loaded.per_cpu_cycles) == list(result.per_cpu_cycles)
        assert loaded.stats == result.stats

    def test_torn_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        target = point()
        cache.store(target, run_point(target))
        path = cache._path(point_key(target))
        path.write_text(path.read_text()[:20])  # simulate a torn write
        assert cache.load(target) is None

    def test_wrong_shape_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        target = point()
        cache._path(point_key(target)).parent.mkdir(parents=True,
                                                    exist_ok=True)
        cache._path(point_key(target)).write_text(json.dumps({"x": 1}))
        assert cache.load(target) is None

    def test_entry_bytes_are_pinned(self, tmp_path):
        """The entry format is part of the cache contract: caches
        written at ENGINE_VERSION 5 must keep hitting, so a codec
        change has to keep these bytes or bump the version."""
        from repro.smp.metrics import SimulationResult
        result = SimulationResult("fft", 2, 1234, [1234, 1200],
                                  {"bus.transactions": 7, "l1.hits": 3})
        pinned = (
            b'{"checksum": "c1cda26c4780bb85fbea77a5122978228f0dc7de5498'
            b'7e798ad2e64eb4f0ce13", "cycles": 1234, "num_cpus": 2, '
            b'"per_cpu_cycles": [1234, 1200], "stats": '
            b'{"bus.transactions": 7, "l1.hits": 3}, "workload": "fft"}')
        assert ENGINE_VERSION == 5
        cache = ResultCache(tmp_path)
        cache.store(point(), result)
        path = cache._path(point_key(point()))
        assert path.read_bytes() == pinned
        path.write_bytes(pinned)
        assert cache.load(point()) == result

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store(point(), run_point(point()))
        assert cache.clear() == 1
        assert len(cache) == 0


class TestRunSweep:
    def test_results_in_input_order_with_duplicates(self, tmp_path):
        points = [point(seed=0), point(seed=1), point(seed=0)]
        results = run_sweep(points, cache=ResultCache(tmp_path),
                            parallel=False)
        assert len(results) == 3
        assert results[0].cycles == results[2].cycles
        assert results[0].stats == results[2].stats

    def test_second_sweep_hits_the_cache(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)
        first = run_sweep([point()], cache=cache, parallel=False)
        assert len(cache) == 1
        # Poison run_point: a cache hit must not simulate again.
        monkeypatch.setattr(
            "repro.sim.sweep.run_point",
            lambda _: (_ for _ in ()).throw(AssertionError("re-ran")))
        second = run_sweep([point()], cache=cache, parallel=False)
        assert second[0].cycles == first[0].cycles
        assert second[0].stats == first[0].stats

    def test_warm_sweep_encodes_each_point_once(self, tmp_path,
                                                monkeypatch):
        """A point's key is computed once: the first sweep over a
        filled cache encodes each point's config once (not once for
        the key list and again per cache load), the second none."""
        cache = ResultCache(tmp_path)
        run_sweep([point(seed=seed) for seed in range(3)], cache=cache,
                  parallel=False)
        encoded = []
        real = sweep.config_to_dict
        monkeypatch.setattr(
            "repro.sim.sweep.config_to_dict",
            lambda config: (encoded.append(config), real(config))[1])
        points = [point(seed=seed) for seed in range(3)]
        first = run_sweep(points, cache=cache, parallel=False)
        assert len(encoded) == len(points)
        encoded.clear()
        assert run_sweep(points, cache=cache, parallel=False) == first
        assert encoded == []

    def test_engine_version_bump_misses_the_cache(self, tmp_path,
                                                  monkeypatch):
        """Results cached under an older engine are never returned."""
        cache = ResultCache(tmp_path)
        run_sweep([point()], cache=cache, parallel=False)
        assert len(cache) == 1
        monkeypatch.setattr("repro.sim.sweep.ENGINE_VERSION",
                            ENGINE_VERSION + 1)
        reran = []
        real_run_point = run_point
        monkeypatch.setattr(
            "repro.sim.sweep.run_point",
            lambda target: (reran.append(target),
                            real_run_point(target))[1])
        run_sweep([point()], cache=cache, parallel=False)
        assert reran, "old-version cache entry was wrongly reused"
        assert len(cache) == 2  # stored under the new version's key

    def test_cache_miss_reruns(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)
        run_sweep([point()], cache=cache, parallel=False)
        cache.clear()
        assert run_sweep([point()], cache=cache,
                         parallel=False)[0].cycles > 0
        assert len(cache) == 1

    def test_parallel_env_opt_out(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_SWEEP_PARALLEL", "0")
        results = run_sweep([point(seed=0), point(seed=1)],
                            cache=ResultCache(tmp_path))
        assert len(results) == 2


def test_empty_sweep():
    assert run_sweep([]) == []


class TestSweepTimings:
    def test_fresh_run_accounts_worker_seconds(self, tmp_path):
        timings = SweepTimings()
        run_sweep([point(seed=0), point(seed=1)],
                  cache=ResultCache(tmp_path), parallel=False,
                  timings=timings)
        assert timings.points_run == 2
        assert timings.points_cached == 0
        assert timings.workers == 1
        assert timings.run_s > 0
        assert timings.wall_s >= timings.run_s
        assert 0 < timings.slowest_point_s <= timings.run_s

    def test_cached_run_skips_simulation_time(self, tmp_path,
                                              monkeypatch):
        cache = ResultCache(tmp_path)
        run_sweep([point()], cache=cache, parallel=False)
        monkeypatch.setattr(
            "repro.sim.sweep.run_point",
            lambda _: (_ for _ in ()).throw(AssertionError("re-ran")))
        timings = SweepTimings()
        run_sweep([point()], cache=cache, parallel=False,
                  timings=timings)
        assert timings.points_run == 0
        assert timings.points_cached == 1
        assert timings.run_s == 0.0
        assert timings.wall_s > 0

    def test_timed_wrapper_honors_monkeypatched_run_point(
            self, tmp_path, monkeypatch):
        """Per-point timing goes through the module-global run_point
        so test doubles (and profiling wrappers) still intercept."""
        calls = []
        real = run_point
        monkeypatch.setattr(
            "repro.sim.sweep.run_point",
            lambda target: (calls.append(target), real(target))[1])
        timings = SweepTimings()
        run_sweep([point()], parallel=False, timings=timings)
        assert len(calls) == 1
        assert timings.points_run == 1

    def test_accumulates_across_sweeps(self, tmp_path):
        timings = SweepTimings()
        cache = ResultCache(tmp_path)
        run_sweep([point()], cache=cache, parallel=False,
                  timings=timings)
        run_sweep([point()], cache=cache, parallel=False,
                  timings=timings)
        assert timings.points_run == 1
        assert timings.points_cached == 1

    def test_as_dict_is_json_ready(self, tmp_path):
        import json
        timings = SweepTimings()
        run_sweep([point()], cache=ResultCache(tmp_path),
                  parallel=False, timings=timings)
        as_dict = timings.as_dict()
        assert json.loads(json.dumps(as_dict)) == as_dict
        assert as_dict["sweep.points_run"] == 1
        assert as_dict["sweep.wall_s"] > 0


class TestSweepCrashes:
    """Worker failures must not abort the sweep or lose results."""

    def test_serial_crash_returns_partial_results(self, tmp_path,
                                                  monkeypatch):
        real = run_point
        def crashy(target):
            if target.seed == 1:
                raise ValueError("simulated point crash")
            return real(target)
        monkeypatch.setattr("repro.sim.sweep.run_point", crashy)
        cache = ResultCache(tmp_path)
        timings = SweepTimings()
        results = run_sweep([point(seed=0), point(seed=1)],
                            cache=cache, parallel=False, retries=0,
                            on_error="none", timings=timings)
        assert results[0] is not None and results[0].cycles > 0
        assert results[1] is None
        assert timings.points_failed == 1
        assert timings.points_run == 1
        assert len(cache) == 1  # the good point was cached anyway

    def test_serial_crash_raises_sweep_error(self, tmp_path,
                                             monkeypatch):
        from repro.errors import SweepError
        monkeypatch.setattr(
            "repro.sim.sweep.run_point",
            lambda target: (_ for _ in ()).throw(
                ValueError("simulated point crash")))
        with pytest.raises(SweepError) as excinfo:
            run_sweep([point()], parallel=False, retries=0)
        failures = excinfo.value.failures
        assert len(failures) == 1
        assert failures[0].workload == "fft"
        assert "simulated point crash" in failures[0].error
        assert failures[0].attempts == 1

    def test_failure_index_is_the_first_position(self, monkeypatch):
        from repro.errors import SweepError
        real = run_point

        def odd_seeds_crash(target):
            if target.seed % 2:
                raise ValueError("odd seed")
            return real(target)
        monkeypatch.setattr("repro.sim.sweep.run_point", odd_seeds_crash)
        points = [point(seed=0), point(seed=1), point(seed=0),
                  point(seed=1), point(seed=3)]
        with pytest.raises(SweepError) as excinfo:
            run_sweep(points, parallel=False, retries=0)
        assert [failure.index for failure in excinfo.value.failures] \
            == [1, 4]

    def test_crash_retried_with_backoff_then_succeeds(self, tmp_path,
                                                      monkeypatch):
        real = run_point
        attempts = []
        def flaky(target):
            attempts.append(target)
            if len(attempts) == 1:
                raise ValueError("transient")
            return real(target)
        monkeypatch.setattr("repro.sim.sweep.run_point", flaky)
        timings = SweepTimings()
        results = run_sweep([point()], parallel=False, retries=1,
                            backoff_s=0.001, timings=timings)
        assert results[0].cycles > 0
        assert len(attempts) == 2
        assert timings.points_retried == 1
        assert timings.points_failed == 0

    def test_parallel_worker_crash_is_captured(self, monkeypatch,
                                               tmp_path):
        """A crash inside a worker process surfaces as a failure
        record, not an aborted pool (run with REPRO_SWEEP_PARALLEL=1
        in CI)."""
        monkeypatch.setenv("REPRO_SWEEP_PARALLEL", "1")
        bad = SweepPoint("no-such-workload", point().config,
                         scale=0.05)
        timings = SweepTimings()
        results = run_sweep([point(seed=0), bad, point(seed=1)],
                            cache=ResultCache(tmp_path),
                            parallel=True, max_workers=2, retries=0,
                            on_error="none", timings=timings)
        assert results[0] is not None
        assert results[1] is None
        assert results[2] is not None
        assert timings.points_failed == 1

    def test_invalid_on_error_rejected(self):
        from repro.errors import ConfigError
        with pytest.raises(ConfigError):
            run_sweep([point()], on_error="explode")


class TestBackoff:
    def test_formula(self):
        """The keyed rule the sweep, the scheduler and the client
        share, pinned so no caller's retry schedule drifts."""
        from repro.sim.sweep import backoff_delay
        assert backoff_delay(0.05, 1, "k", 0) == 0.08721721301997142
        assert backoff_delay(0.05, 3, "k", 0) == 0.20003480145675667
        assert backoff_delay(0.001, 2, "j", 1) == 0.0021025123313249995
        assert backoff_delay(0.2, 1, "GET /v1/jobs", 7) \
            == 0.2546397658655809

    def test_sweep_retry_sleeps_on_the_seeded_schedule(self,
                                                      monkeypatch):
        from repro.sim.store import sha256
        from repro.sim.sweep import backoff_delay
        real = run_point
        attempts = []

        def flaky(target):
            attempts.append(target)
            if len(attempts) < 3:
                raise ValueError("transient")
            return real(target)
        slept = []
        monkeypatch.setattr("repro.sim.sweep.run_point", flaky)
        monkeypatch.setattr("repro.sim.sweep.time.sleep", slept.append)
        run_sweep([point()], parallel=False, retries=2,
                  backoff_s=0.25, backoff_seed=3)
        key = sha256(point_key(point()).encode())
        assert slept == [backoff_delay(0.25, 1, key, 3),
                         backoff_delay(0.25, 2, key, 3)]


class TestCacheQuarantine:
    def test_corrupt_entry_quarantined_not_retried(self, tmp_path):
        cache = ResultCache(tmp_path)
        target = point()
        cache.store(target, run_point(target))
        path = cache._path(point_key(target))
        path.write_text("{ not json")
        assert cache.load(target) is None
        assert cache.quarantined == 1
        assert not path.exists()
        corrupt = path.with_name(path.name + ".corrupt")
        assert corrupt.exists()
        assert corrupt.read_text() == "{ not json"
        # A second probe is a plain miss, not another quarantine.
        assert cache.load(target) is None
        assert cache.quarantined == 1

    def test_checksum_tamper_quarantined(self, tmp_path):
        cache = ResultCache(tmp_path)
        target = point()
        cache.store(target, run_point(target))
        path = cache._path(point_key(target))
        payload = json.loads(path.read_text())
        payload["cycles"] += 1  # bit-rot / tampering
        path.write_text(json.dumps(payload, sort_keys=True))
        assert cache.load(target) is None
        assert cache.quarantined == 1
        assert path.with_name(path.name + ".corrupt").exists()

    def test_entry_without_checksum_quarantined_and_rerun(
            self, tmp_path):
        """Every entry must verify: one carrying no checksum at all
        is quarantined like a tampered one, and the point re-runs."""
        cache = ResultCache(tmp_path)
        target = point()
        cache.store(target, run_point(target))
        path = cache._path(point_key(target))
        payload = json.loads(path.read_text())
        del payload["checksum"]
        payload["cycles"] += 1
        path.write_text(json.dumps(payload, sort_keys=True))
        assert cache.load(target) is None
        assert cache.quarantined == 1
        assert path.with_name(path.name + ".corrupt").exists()
        path.write_text(json.dumps(payload, sort_keys=True))
        timings = SweepTimings()
        results = run_sweep([target], cache=cache, parallel=False,
                            timings=timings)
        assert results[0] == run_point(target)
        assert timings.points_run == 1
        assert cache.load(target) == results[0]

    def test_missing_entry_is_not_quarantined(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.load(point()) is None
        assert cache.quarantined == 0

    def test_sweep_counts_quarantines_and_reruns_once(self, tmp_path):
        cache = ResultCache(tmp_path)
        target = point()
        run_sweep([target], cache=cache, parallel=False)
        cache._path(point_key(target)).write_text("garbage")
        timings = SweepTimings()
        results = run_sweep([target], cache=cache, parallel=False,
                            timings=timings)
        assert results[0].cycles > 0
        assert timings.cache_quarantined == 1
        assert timings.points_run == 1  # re-simulated and re-cached
        assert len(cache) == 1
