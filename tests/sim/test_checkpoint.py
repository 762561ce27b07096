"""Checkpoint/fork execution: bit-identity is the whole contract.

Every test here reduces to one claim: a run that pauses, snapshots,
restores and continues — possibly in a different process, possibly
under a different point of the same family — produces *exactly* the
result a cold run produces: same cycles, same per-CPU cycles, same
stats, same recording bytes. The speedup is worthless without that.
"""

import hashlib
import io
import os
import pickle
import pickletools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.cache import SetAssociativeCache
from repro.config import e6000_config
from repro.errors import CheckpointError, ConfigError, ReproError
from repro.faults import (HALT, POLICIES, REKEY_REPLAY, FaultInjector,
                          FaultKind, FaultPlan)
from repro.faults.campaign import (_pick_snapshot, _simulate_prefix,
                                   campaign_config, default_spec,
                                   run_campaign)
from repro.obs.recording import Recording, record_run
from repro.sim import checkpoint
from repro.sim.checkpoint import (CHECKPOINT_VERSION, CheckpointStore,
                                  MachineSnapshot, capture, family_key,
                                  fork_point, restore, run_chain,
                                  trace_digests, validates_against)
from repro.sim.store import sha256
from repro.sim.sweep import (ENGINE_VERSION, PointRunner, ResultCache,
                             SweepPoint, build_system, point_key,
                             run_point, run_sweep)
from repro.smp.fastpath import _finish_run, _run_loop, new_counters
from repro.workloads.registry import generate


def point(name="radix", seed=0, scale=0.02, cpus=2, **config_kwargs):
    config = e6000_config(num_processors=cpus, l2_mb=1,
                          **config_kwargs)
    return SweepPoint(name, config, scale=scale, seed=seed)


def assert_same_result(lhs, rhs):
    assert lhs.cycles == rhs.cycles
    assert list(lhs.per_cpu_cycles) == list(rhs.per_cpu_cycles)
    assert lhs.stats == rhs.stats


def run_paused(target, pauses, recorded=False, store=None):
    """Run ``target`` cold but pause ``pauses`` times, snapshotting
    and restoring through a full pickle round-trip at each pause."""
    workload = generate(target.workload,
                        target.config.num_processors,
                        scale=target.scale, seed=target.seed)
    system = build_system(target.config)
    if recorded:
        from repro.obs.recording import Recorder
        Recorder().attach(system)
    num_cpus = workload.num_cpus
    clocks, cursors = [0] * num_cpus, [0] * num_cpus
    counters = new_counters(num_cpus)
    for index, chunk in enumerate(pauses):
        running = _run_loop(system, workload, clocks, cursors,
                            counters, stop_accesses=chunk)
        snapshot = capture(system, workload, target, clocks, cursors,
                           counters, tag=f"pause-{index}",
                           recorded=recorded)
        if store is not None:
            store.store(snapshot)
        # Restore into *fresh* objects: the continued run must owe
        # nothing to the pre-pause machine.
        system, clocks, cursors, counters = restore(snapshot)
        if not running:
            break
    _run_loop(system, workload, clocks, cursors, counters)
    return _finish_run(system, workload, clocks, counters), system


class TestFamilyKey:
    def test_scale_is_not_part_of_the_family(self):
        assert family_key(point(scale=0.02)) \
            == family_key(point(scale=0.2))

    def test_sensitive_to_workload_seed_and_config(self):
        base = family_key(point())
        assert family_key(point(name="ocean")) != base
        assert family_key(point(seed=1)) != base
        assert family_key(point(auth_interval=10)) != base
        assert family_key(point(senss_enabled=False)) != base

    def test_recorded_partitions_the_space(self):
        """A snapshot with a recorder pickled inside must never be
        forked into a plain run, and vice versa."""
        assert family_key(point(), recorded=True) \
            != family_key(point(), recorded=False)

    def test_engine_and_checkpoint_versions_bust_the_store(self,
                                                           monkeypatch):
        base = family_key(point())
        monkeypatch.setattr("repro.sim.checkpoint.ENGINE_VERSION",
                            ENGINE_VERSION + 1)
        assert family_key(point()) != base
        monkeypatch.undo()
        monkeypatch.setattr(
            "repro.sim.checkpoint.CHECKPOINT_VERSION",
            CHECKPOINT_VERSION + 1)
        assert family_key(point()) != base

    def test_engine_version_covers_checkpoint_fork_executor(
            self, tmp_path, monkeypatch):
        """The checkpoint/fork executor shipped as engine 5; result
        caches and checkpoint stores written by older engines must
        miss. (Floor, not equality: later bumps must not un-bust.)

        Checkpoint layout 3 retires stores whose pickled machines
        still carry an engine-backend selector and ``config.engine``;
        layout 4 retires stores whose caches pickle their ways as
        ``CacheLine`` lists (no compact columns, no block index). A
        store written under either older version must miss cleanly
        and the point run cold — and a version-3 blob cannot restore
        into an index-less cache even when handed to ``restore``."""
        assert ENGINE_VERSION >= 5
        assert CHECKPOINT_VERSION >= 4
        target = point(scale=0.04)
        workload = generate(target.workload,
                            target.config.num_processors,
                            scale=target.scale, seed=target.seed)
        cold = run_point(target)
        for stale_version in (2, 3):
            store = CheckpointStore(tmp_path / str(stale_version))
            with monkeypatch.context() as patch:
                patch.setattr("repro.sim.checkpoint.CHECKPOINT_VERSION",
                              stale_version)
                if stale_version == 3:
                    # the version-3 layout: the cache's attribute dict,
                    # ways as pickled CacheLine lists
                    patch.setattr(
                        SetAssociativeCache, "__getstate__",
                        lambda cache: {name: value for name, value
                                       in vars(cache).items()
                                       if name != "_lines"})
                stale_family = family_key(target)
                run_chain([point(scale=0.02), target], store)
            stale = store.metas(stale_family)
            assert stale and all(meta["version"] == stale_version
                                 for meta in stale)
            assert not any(validates_against(meta, workload)
                           for meta in stale)
            assert family_key(target) != stale_family
            assert store.best(family_key(target), workload) is None
            assert store.best(stale_family, workload) is None
            snapshot = store.load(stale_family, str(stale[0]["tag"]))
            if stale_version == 3:
                with pytest.raises(CheckpointError):
                    restore(snapshot)
            outcome = fork_point(target, snapshot, workload=workload)
            assert not outcome.forked
            assert_same_result(outcome.result, cold)


class TestSnapshotRoundTrip:
    @settings(max_examples=8, deadline=None)
    @given(st.integers(1, 400), st.integers(1, 3),
           st.sampled_from(["radix", "ocean"]),
           st.sampled_from([2, 4]))
    def test_pause_restore_continue_is_bit_identical(
            self, chunk, pauses, name, cpus):
        """Snapshot anywhere — including mid-auth-interval, since
        ``chunk`` is arbitrary and the secured config authenticates
        every 10 accesses — restore, continue: identical to cold."""
        target = point(name=name, cpus=cpus, auth_interval=10)
        cold = run_point(target)
        resumed, _ = run_paused(target, [chunk] * pauses)
        assert_same_result(cold, resumed)

    def test_roundtrip_with_memory_protection(self):
        """Merkle digests and pad caches survive the pickle."""
        target = point()
        target = SweepPoint(
            target.workload,
            target.config.with_memprotect(encryption_enabled=True,
                                          integrity_enabled=True),
            scale=target.scale, seed=target.seed)
        cold = run_point(target)
        resumed, _ = run_paused(target, [97, 311])
        assert_same_result(cold, resumed)

    def test_roundtrip_with_recorder_attached(self, tmp_path):
        """A recorder pickled inside the snapshot keeps appending
        through the tail: the recording equals a cold recording."""
        target = point()
        cold = record_run(target)
        resumed, system = run_paused(target, [123], recorded=True)
        recording = Recording.build(target, system._obs, resumed)
        a = tmp_path / "cold.json"
        b = tmp_path / "resumed.json"
        cold.save(a)
        recording.save(b)
        assert hashlib.sha256(a.read_bytes()).hexdigest() \
            == hashlib.sha256(b.read_bytes()).hexdigest()

    def test_corrupt_blob_raises(self):
        target = point()
        workload = generate(target.workload, 2, scale=target.scale)
        system = build_system(target.config)
        snapshot = capture(system, workload, target, [0, 0], [0, 0],
                           new_counters(2), tag="t")
        snapshot.blob = snapshot.blob[:-1] + b"\x00"
        with pytest.raises(CheckpointError, match="checksum"):
            restore(snapshot)


def pickled_globals(blob):
    """Every ``(module, name)`` a protocol-4 pickle names, read with
    ``pickletools``: a STACK_GLOBAL takes the last two strings pushed,
    directly or from the memo."""
    names, strings, memo, last = set(), [], {}, None
    for opcode, arg, _pos in pickletools.genops(blob):
        if opcode.name in ("SHORT_BINUNICODE", "BINUNICODE",
                           "BINUNICODE8", "UNICODE"):
            strings.append(arg)
        elif opcode.name == "MEMOIZE":
            if last in ("SHORT_BINUNICODE", "BINUNICODE",
                        "BINUNICODE8", "UNICODE"):
                memo[len(memo)] = strings[-1]
            else:
                memo[len(memo)] = None
        elif opcode.name in ("BINGET", "LONG_BINGET") \
                and memo.get(arg) is not None:
            strings.append(memo[arg])
        elif opcode.name == "STACK_GLOBAL":
            names.add((strings[-2], strings[-1]))
        elif opcode.name == "GLOBAL":
            names.add(tuple(arg.split(" ")))
        last = opcode.name
    return names


class _RunsShell:
    """Pickles as a call to ``os.system``."""

    def __init__(self, command):
        self.command = command

    def __reduce__(self):
        return os.system, (self.command,)


class _WalksGlobals:
    """Pickles as ``getattr(<bound method>, "__globals__")``: the first
    step from an admitted object to every builtin."""

    def __init__(self, method):
        self.method = method

    def __reduce__(self):
        return getattr, (self.method, "__globals__")


def tampered(snapshot, payload):
    """``snapshot`` with its blob replaced by ``payload`` pickled, and
    a checksum that matches: the file an attacker would write."""
    blob = pickle.dumps({"system": payload, "clocks": [0, 0],
                         "cursors": [0, 0],
                         "counters": [[0, 0]] * 4}, protocol=4)
    meta = dict(snapshot.meta, blob_sha256=sha256(blob))
    return MachineSnapshot(meta=meta, blob=blob)


class TestRestrictedUnpickler:
    def blank_snapshot(self):
        target = point()
        workload = generate(target.workload, 2, scale=target.scale)
        return capture(build_system(target.config), workload, target,
                       [0, 0], [0, 0], new_counters(2), tag="t")

    def test_stdlib_list_is_what_snapshots_name(self, tmp_path,
                                                monkeypatch):
        """The admitted stdlib globals are exactly those named by
        snapshots of baseline, SENSS, mask-limited, integrated,
        recorded and fault-campaign machines, and every one of those
        snapshots restores."""
        blobs = []
        real_capture = checkpoint.capture

        def keep(*args, **kwargs):
            snapshot = real_capture(*args, **kwargs)
            blobs.append(snapshot.blob)
            return snapshot
        monkeypatch.setattr("repro.sim.checkpoint.capture", keep)
        base = e6000_config(num_processors=2)
        integrated = base.with_memprotect(encryption_enabled=True,
                                          integrity_enabled=True)
        flavours = [(base.with_senss(False), False), (base, False),
                    (base.with_masks(2), False), (integrated, False),
                    (integrated, True)]
        for index, (config, recorded) in enumerate(flavours):
            run_chain([SweepPoint("radix", config, scale=scale)
                       for scale in (0.02, 0.04)],
                      CheckpointStore(tmp_path / str(index)),
                      record_dir=tmp_path / "rec" if recorded else None)
        for kind in ("drop", "merkle-flip"):
            report = run_campaign(kinds=(kind,), policies=("halt",),
                                  workload="fft", cpus=2, scale=0.02,
                                  trigger=deep_trigger(kind),
                                  record_diff=True)
            assert all(entry["triggered"] and entry["forked"]
                       for entry in report["entries"])
        named = set()
        for blob in blobs:
            named |= pickled_globals(blob)
            restore(MachineSnapshot(meta={"blob_sha256": sha256(blob)},
                                    blob=blob))
        outside = {name for name in named if name[0] != "repro"
                   and not name[0].startswith("repro.")}
        assert outside == set(checkpoint._STDLIB_GLOBALS) \
            | {("builtins", "getattr")}
        assert all(checkpoint._admitted_name(*name)
                   for name in named - outside)

    @pytest.mark.parametrize("module,name", [
        ("posix", "system"), ("builtins", "eval"),
        ("repro.sim.store", "BlobStore"),
        ("repro.sim.sweep", "ResultCache"),
        ("repro.obs.recording", "Recording"),
        ("repro.serve.scheduler", "Scheduler"),
        ("repro.config", "replace"),           # a function, imported
        ("repro.smp.system", "SmpSystem.__init__"),
        ("repro.__main__", "main"),
    ])
    def test_refuses_globals(self, module, name):
        unpickler = checkpoint._SnapshotUnpickler(io.BytesIO(b""))
        with pytest.raises(pickle.UnpicklingError):
            unpickler.find_class(module, name)

    def test_os_system_payload_raises_without_running(self, tmp_path):
        marker = tmp_path / "ran"
        snapshot = tampered(self.blank_snapshot(),
                            _RunsShell(f"touch {marker}"))
        with pytest.raises(CheckpointError, match="forbidden global"):
            restore(snapshot)
        assert not marker.exists()

    def test_globals_walk_payload_raises(self):
        system = build_system(point().config)
        snapshot = tampered(self.blank_snapshot(),
                            _WalksGlobals(system._flush_stats))
        with pytest.raises(CheckpointError, match="__globals__"):
            restore(snapshot)

    def test_bound_methods_still_round_trip(self):
        system = build_system(point().config)
        snapshot = tampered(self.blank_snapshot(), system._flush_stats)
        method = restore(snapshot)[0]
        assert method.__func__ is type(system)._flush_stats
        assert type(method.__self__) is type(system)

    def test_tampered_store_entry_runs_cold(self, tmp_path, monkeypatch):
        """A store entry that validates but whose blob calls
        ``os.system`` is refused: the sweep point runs cold, the entry
        is quarantined, and a later point forks from the shallower
        valid snapshot instead of re-reading the refused one."""
        tiny, small = point(scale=0.01), point(scale=0.02)
        store = CheckpointStore(tmp_path / "ckpt")
        run_chain([tiny, small], store)
        meta = next(meta for meta in store.metas(family_key(small))
                    if meta["tag"] == "0.02")
        marker = tmp_path / "ran"
        path = store.store(tampered(MachineSnapshot(meta=meta, blob=b""),
                                    _RunsShell(f"touch {marker}")))
        refused, restored = [], []
        real_restore = checkpoint.restore

        def watch(snapshot):
            try:
                state = real_restore(snapshot)
            except CheckpointError as exc:
                refused.append(exc)
                raise
            restored.append(snapshot.tag)
            return state
        monkeypatch.setattr("repro.sim.checkpoint.restore", watch)
        larger, middle = point(scale=0.04), point(scale=0.03)
        results = run_sweep([larger], cache=None, parallel=False,
                            checkpoint_dir=tmp_path / "ckpt")
        assert len(refused) == 1
        assert not marker.exists()
        assert_same_result(results[0], run_point(larger))
        assert not path.exists()
        assert path.with_name(path.name + ".corrupt").exists()
        results = run_sweep([middle], cache=None, parallel=False,
                            checkpoint_dir=tmp_path / "ckpt")
        assert len(refused) == 1
        assert restored == ["0.01"]
        assert_same_result(results[0], run_point(middle))


class TestValidation:
    def make_snapshot(self, target, chunk=200):
        workload = generate(target.workload,
                            target.config.num_processors,
                            scale=target.scale, seed=target.seed)
        system = build_system(target.config)
        num = workload.num_cpus
        clocks, cursors = [0] * num, [0] * num
        counters = new_counters(num)
        _run_loop(system, workload, clocks, cursors, counters,
                  stop_accesses=chunk)
        return capture(system, workload, target, clocks, cursors,
                       counters, tag=f"c{chunk}"), workload

    def test_validates_against_larger_scale_of_same_family(self):
        snapshot, _ = self.make_snapshot(point(scale=0.02))
        bigger = generate("radix", 2, scale=0.06, seed=0)
        assert validates_against(snapshot.meta, bigger)

    def test_rejects_divergent_prefixes(self):
        """A snapshot whose consumed prefix is not literally a prefix
        of the target's traces must fail validation — simulated here
        by tampering with one digest, since every registry workload
        happens to be prefix-stable across scale today. If a future
        workload generator reshapes traces with scale, this is the
        check that keeps forks sound."""
        snapshot, _ = self.make_snapshot(point())
        bigger = generate("radix", 2, scale=0.06, seed=0)
        assert validates_against(snapshot.meta, bigger)
        snapshot.meta["digests"] = list(snapshot.meta["digests"])
        snapshot.meta["digests"][0] = "0" * 64
        assert not validates_against(snapshot.meta, bigger)

    def test_rejects_wrong_seed_and_wrong_cpus(self):
        snapshot, _ = self.make_snapshot(point())
        assert not validates_against(
            snapshot.meta, generate("radix", 2, scale=0.06, seed=1))
        assert not validates_against(
            snapshot.meta, generate("radix", 4, scale=0.06, seed=0))

    def test_digests_cover_the_consumed_prefix_only(self):
        workload = generate("radix", 2, scale=0.04, seed=0)
        assert trace_digests(workload, [0, 0]) \
            == trace_digests(workload, [0, 0])
        assert trace_digests(workload, [5, 9]) \
            != trace_digests(workload, [5, 10])

    def test_mismatched_fork_falls_back_to_cold(self):
        snapshot, _ = self.make_snapshot(point())
        snapshot.meta["digests"] = ["0" * 64] * 2
        bigger = point(scale=0.06)
        outcome = fork_point(bigger, snapshot)
        assert not outcome.forked
        assert_same_result(outcome.result, run_point(bigger))


class TestCheckpointStore:
    def test_roundtrip_and_best_prefers_deepest(self, tmp_path):
        store = CheckpointStore(tmp_path)
        family = family_key(point())
        workload = generate("radix", 2, scale=0.08, seed=0)
        for scale, chunk in [(0.02, 150), (0.04, 400)]:
            snapshot, _ = TestValidation().make_snapshot(
                point(scale=scale), chunk=chunk)
            store.store(snapshot)
        assert len(store) == 2
        best = store.best(family, workload)
        assert best is not None
        assert best.accesses >= 400

    def test_corrupt_entry_is_quarantined_not_fatal(self, tmp_path):
        store = CheckpointStore(tmp_path)
        snapshot, _ = TestValidation().make_snapshot(point())
        path = store.store(snapshot)
        path.write_bytes(path.read_bytes()[:40])  # torn write
        assert store.load(snapshot.family, snapshot.tag) is None
        assert list(tmp_path.glob("*.corrupt"))
        # and best() falls through to cold, not an exception
        workload = generate("radix", 2, scale=0.06, seed=0)
        assert store.best(snapshot.family, workload) is None

    def test_max_mb_evicts_least_recently_used(self, tmp_path):
        probe = CheckpointStore(tmp_path / "probe")
        snapshot, _ = TestValidation().make_snapshot(point())
        one_size = probe.store(snapshot).stat().st_size
        store = CheckpointStore(tmp_path / "bounded",
                                max_mb=2.5 * one_size / 1e6)
        tags = []
        for index, scale in enumerate([0.02, 0.03, 0.04, 0.05]):
            shot, _ = TestValidation().make_snapshot(
                point(scale=scale), chunk=100 + index)
            store.store(shot)
            tags.append(shot.tag)
        assert store.evicted > 0
        assert len(store) < 4
        survivors = {p.name
                     for p in (tmp_path / "bounded").glob("*.ckpt")}
        # newest entries survive; the oldest was evicted first
        assert any(tags[-1] in name for name in survivors)
        assert not any(tags[0] in name for name in survivors)

    def test_best_validates_only_the_deepest_candidate(
            self, tmp_path, monkeypatch):
        """Validation hashes a candidate's whole consumed prefix, so
        ``best`` validates deepest-first, stops at the first candidate
        that validates, and reads only that candidate's blob."""
        store = CheckpointStore(tmp_path)
        shots = []
        for scale, chunk in [(0.02, 100), (0.03, 200), (0.04, 300)]:
            shot, _ = TestValidation().make_snapshot(
                point(scale=scale), chunk=chunk)
            shots.append(shot)
            store.store(shot)
        bigger = generate("radix", 2, scale=0.08, seed=0)
        calls, loads = [], []
        real_validate = checkpoint.validates_against
        real_load = store.load
        monkeypatch.setattr(
            checkpoint, "validates_against",
            lambda meta, workload: (calls.append(meta),
                                    real_validate(meta, workload))[1])
        monkeypatch.setattr(
            store, "load",
            lambda family, tag: (loads.append(tag),
                                 real_load(family, tag))[1])
        best = store.best(shots[0].family, bigger)
        assert best.meta == shots[-1].meta
        assert len(calls) == 1
        assert loads == [shots[-1].tag]

    def test_stats_track_hits_misses_stores(self, tmp_path):
        store = CheckpointStore(tmp_path)
        snapshot, _ = TestValidation().make_snapshot(point())
        store.store(snapshot)
        assert store.load(snapshot.family, snapshot.tag) is not None
        assert store.load(snapshot.family, "nope") is None
        stats = store.stats()
        assert stats["count"] == 1
        assert stats["bytes"] > 0
        assert stats["stores"] == 1
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["hit_rate"] == 0.5


class TestResultCacheBound:
    def test_max_mb_evicts_lru_entries(self, tmp_path):
        cache = ResultCache(tmp_path, max_mb=0.0)  # evict everything
        target = point()
        cache.store(target, run_point(target))
        assert cache.evicted >= 1
        assert len(cache) == 0

    def test_unbounded_cache_never_evicts(self, tmp_path):
        cache = ResultCache(tmp_path)
        target = point()
        cache.store(target, run_point(target))
        assert cache.gc() == 0
        assert len(cache) == 1


class TestForkChain:
    SCALES = [0.02, 0.04, 0.06]

    def test_chain_results_identical_to_cold(self, tmp_path):
        points = [point(scale=scale) for scale in self.SCALES]
        cold = [run_point(target) for target in points]
        outcomes = run_chain(points, CheckpointStore(tmp_path))
        assert all(error is None for _, _, error in outcomes)
        for reference, (result, _, _) in zip(cold, outcomes):
            assert_same_result(reference, result)

    def test_second_chain_forks_from_the_store(self, tmp_path):
        points = [point(scale=scale) for scale in self.SCALES]
        store = CheckpointStore(tmp_path)
        first = run_chain(points, store)
        again = run_chain(points, store)
        assert store.stats()["hits"] > 0
        for (a, _, _), (b, _, _) in zip(first, again):
            assert_same_result(a, b)

    def test_forked_recordings_equal_cold_recordings(self, tmp_path):
        points = [point(scale=scale) for scale in self.SCALES]
        record_dir = tmp_path / "rec"
        outcomes = run_chain(points, CheckpointStore(tmp_path / "c"),
                             record_dir=record_dir)
        assert all(error is None for _, _, error in outcomes)
        for target in points:
            cold_path = tmp_path / f"cold-{target.scale:g}.json"
            record_run(target).save(cold_path)
            forked_path = record_dir \
                / f"{point_key(target)}.rec.json"
            assert hashlib.sha256(
                cold_path.read_bytes()).hexdigest() \
                == hashlib.sha256(
                    forked_path.read_bytes()).hexdigest()

    def test_run_sweep_checkpoint_dir_serial_and_parallel(
            self, tmp_path):
        points = [point(scale=scale) for scale in self.SCALES]
        cold = run_sweep(points, parallel=False)
        serial = run_sweep(points,
                           cache=ResultCache(tmp_path / "c1"),
                           checkpoint_dir=tmp_path / "k1",
                           parallel=False)
        parallel = run_sweep(points,
                             cache=ResultCache(tmp_path / "c2"),
                             checkpoint_dir=tmp_path / "k2",
                             parallel=True, max_workers=2)
        for reference, a, b in zip(cold, serial, parallel):
            assert_same_result(reference, a)
            assert_same_result(reference, b)

    def test_checkpoint_sweep_stores_each_point_once(
            self, tmp_path, monkeypatch):
        """The runner that executed a point is its only cache writer:
        one store() per executed point, none by run_sweep again."""
        stored = []
        real_store = ResultCache.store
        monkeypatch.setattr(
            ResultCache, "store",
            lambda cache, target, result: (
                stored.append(target), real_store(cache, target,
                                                  result))[1])
        points = [point(scale=scale) for scale in self.SCALES]
        run_sweep(points, cache=ResultCache(tmp_path / "cache"),
                  checkpoint_dir=tmp_path / "ckpt", parallel=False)
        assert sorted(p.scale for p in stored) == self.SCALES

    def test_bounded_cache_under_checkpoint_dir_stays_within_budget(
            self, tmp_path):
        """Pool workers write the caller's cache with its budget."""
        points = [point(seed=seed, scale=scale) for seed in (0, 1)
                  for scale in self.SCALES]
        cold = run_sweep(points, parallel=False)
        probe = ResultCache(tmp_path / "probe")
        probe.store(points[0], cold[0])
        entry_bytes = probe._path(point_key(points[0])).stat().st_size
        budget_mb = 2.5 * entry_bytes / (1024 * 1024)
        cache = ResultCache(tmp_path / "bounded", max_mb=budget_mb)
        results = run_sweep(points, cache=cache,
                            checkpoint_dir=tmp_path / "ckpt",
                            parallel=True, max_workers=2)
        assert results == cold
        sizes = [path.stat().st_size
                 for path in (tmp_path / "bounded").glob("*.json")]
        assert 0 < len(sizes) < len(points)
        assert sum(sizes) <= budget_mb * 1024 * 1024

    def test_mixed_families_stay_separate(self, tmp_path):
        """Points from different families interleaved in one sweep
        each chain within their own family only."""
        points = [point(scale=0.02), point(seed=1, scale=0.02),
                  point(scale=0.04), point(seed=1, scale=0.04)]
        cold = [run_point(target) for target in points]
        results = run_sweep(points, checkpoint_dir=tmp_path,
                            parallel=False)
        for reference, result in zip(cold, results):
            assert_same_result(reference, result)


class TestChaosMidFork:
    def test_worker_killed_mid_chain_retries_identically(
            self, tmp_path, monkeypatch):
        """A worker SIGKILLed while executing a chain point dies with
        snapshots already on disk; the retried chain must fork from
        them and still produce bit-identical results."""
        from repro.chaos.plan import ChaosPlan
        points = [point(scale=scale)
                  for scale in TestForkChain.SCALES]
        cold = [run_point(target) for target in points]
        plan = ChaosPlan(
            seed=0, marker_dir=str(tmp_path / "markers"),
            faults=[{"kind": "worker-kill",
                     "point": point_key(points[1])}])
        monkeypatch.setenv("REPRO_CHAOS_PLAN",
                           str(plan.save(tmp_path / "plan.json")))
        # One family -> one chain -> one worker executes it; the pool
        # needs >1 workers or run_sweep degrades to in-process serial
        # (and the SIGKILL would hit the test process itself).
        results = run_sweep(points,
                            cache=ResultCache(tmp_path / "cache"),
                            checkpoint_dir=tmp_path / "ckpt",
                            parallel=True, max_workers=2, retries=2)
        assert os.listdir(tmp_path / "markers")  # the kill fired
        for reference, result in zip(cold, results):
            assert_same_result(reference, result)


class TestCampaignFork:
    STRIP = ("fork", "forked", "forked_cells")

    def stripped(self, report):
        clean = {key: value for key, value in report.items()
                 if key not in self.STRIP}
        clean["entries"] = [
            {key: value for key, value in entry.items()
             if key not in self.STRIP}
            for entry in report["entries"]]
        return clean

    def deep_pairs(self, **kwargs):
        """(forked, cold) reports of a ``drop`` and a ``merkle-flip``
        campaign on fft 2P, each at its kind's deep trigger: past the
        prefix's first snapshot, so the forked cell forks, and early
        enough that every cell fires."""
        for kind in ("drop", "merkle-flip"):
            campaign = dict(kinds=(kind,), policies=("halt",),
                            workload="fft", cpus=2, scale=0.02,
                            trigger=deep_trigger(kind), **kwargs)
            forked = run_campaign(fork=True, **campaign)
            cold = run_campaign(fork=False, **campaign)
            assert all(entry["triggered"] for report in (forked, cold)
                       for entry in report["entries"])
            yield forked, cold

    def test_fork_matches_cold_at_deep_trigger(self):
        for forked, cold in self.deep_pairs():
            assert all(entry["forked"] for entry in forked["entries"])
            assert self.stripped(forked) == self.stripped(cold)

    def test_fork_matches_cold_at_default_triggers(self):
        kwargs = dict(kinds=("drop",), policies=("halt",),
                      workload="radix", cpus=2, scale=0.02)
        forked = run_campaign(fork=True, **kwargs)
        cold = run_campaign(fork=False, **kwargs)
        assert self.stripped(forked) == self.stripped(cold)

    def test_record_diff_reuses_the_forked_prefix(self):
        for forked, cold in self.deep_pairs(record_diff=True):
            assert all(entry["forked"] for entry in forked["entries"])
            assert self.stripped(forked) == self.stripped(cold)

    def test_refused_snapshot_runs_its_cell_cold(self, monkeypatch):
        """A prefix snapshot that ``restore`` refuses (here: the
        unpickler no longer admits the fault injector inside it)
        starts its cell cold, like every other fork, instead of
        raising."""
        injector = (FaultInjector.__module__, FaultInjector.__qualname__)
        real_admitted = checkpoint._admitted_name
        monkeypatch.setattr(
            checkpoint, "_admitted_name",
            lambda module, name: (module, name) != injector
            and real_admitted(module, name))
        monkeypatch.delitem(checkpoint._ADMITTED, injector,
                            raising=False)
        for forked, cold in self.deep_pairs():
            assert forked["forked_cells"] == 0
            assert self.stripped(forked) == self.stripped(cold)

    @pytest.mark.parametrize("kind", FaultKind.ALL)
    @pytest.mark.parametrize("policy", POLICIES)
    def test_every_kind_and_policy_forks_to_the_cold_cell(
            self, deep_campaigns, kind, policy):
        """Forked == cold for every fault kind under every recovery
        policy, recordings included: the forked pad cursors (pad and
        seq corruption), the bus stream cursors and MAC chains
        (reorder, spoof, bit-flip, mask-desync, drop), the verify
        cursor (merkle-flip) and the MAC checkpoints a
        ``rekey-replay`` window reads all cross the fork."""
        forked, cold = deep_campaigns[kind]
        assert forked["forked_cells"] == len(forked["entries"])
        assert cold["forked_cells"] == 0
        cells = [{**entry, "forked": None}
                 for report in (forked, cold)
                 for entry in report["entries"]
                 if (entry["kind"], entry["policy"]) == (kind, policy)]
        assert len(cells) == 2 and cells[0]["triggered"]
        assert cells[0] == cells[1]

    def test_forked_injector_starts_at_the_cold_cursors(self):
        """A restored prefix snapshot carries the prefix injector
        (labelled with its cursors). Re-armed with a cell's plan, it
        holds the cursors, MAC chains and MAC checkpoints a cold
        injector with that plan has at the same access count, and the
        machine still registers exactly one injector flusher."""
        config = campaign_config(cpus=2)
        target = SweepPoint("fft", config, scale=0.02)
        workload = generate("fft", 2, scale=0.02)
        specs = [default_spec(kind, 2, deep_trigger(kind))
                 for kind in FaultKind.ALL]
        snapshots, _ = _simulate_prefix(workload, target, specs,
                                        record_diff=False)
        assert len(snapshots) > 1
        never = FaultPlan.single(FaultKind.DROP, trigger=1 << 40)
        for snapshot in snapshots:
            system = restore(snapshot)[0]
            forked = FaultInjector.attached_to(system)
            assert forked.cursors() == snapshot.meta["extra"]
            forked.arm(never, REKEY_REPLAY)
            cold_system = build_system(config)
            cold = FaultInjector(never, REKEY_REPLAY).attach(cold_system)
            cursors = [0, 0]
            _run_loop(cold_system, workload, [0, 0], cursors,
                      new_counters(2), stop_accesses=snapshot.accesses)
            assert sum(cursors) == snapshot.accesses
            assert forked.cursors() == cold.cursors()
            assert forked._chains == cold._chains
            assert forked.recovery.checkpoints \
                == cold.recovery.checkpoints
            assert forked.recovery.policy == REKEY_REPLAY
            flushers = [flush for flush in system.stats._flushers
                        if isinstance(getattr(flush, "__self__", None),
                                      FaultInjector)]
            assert flushers == [forked._flush_stats]
            with pytest.raises(ConfigError, match="already has"):
                FaultInjector(never).attach(system)


def deep_trigger(kind):
    """A trigger on fft (2 CPUs, scale 0.02, campaign machine) past the
    campaign prefix's first snapshot in the kind's stream, yet early
    enough to fire — bus messages are far sparser than pad
    consultations and hash-tree verifies. At the bus and merkle
    triggers a ``rekey-replay`` recovery (an immediate spoof, a
    merkle verify) comes before the cell's first own MAC checkpoint,
    so its replay window reads the one carried across the fork."""
    if kind in FaultKind.BUS:
        return 56
    if kind == FaultKind.MERKLE_FLIP:
        return 350
    return 150


@pytest.fixture(scope="module")
def deep_campaigns():
    """kind -> (forked report, cold report) of a recorded campaign over
    every policy, one campaign per stream at its deep trigger."""
    reports = {}
    for kinds in (FaultKind.BUS,
                  (FaultKind.PAD_CORRUPT, FaultKind.SEQ_CORRUPT),
                  (FaultKind.MERKLE_FLIP,)):
        kwargs = dict(kinds=kinds, policies=POLICIES, workload="fft",
                      cpus=2, scale=0.02, record_diff=True,
                      trigger=deep_trigger(kinds[0]))
        pair = (run_campaign(fork=True, **kwargs),
                run_campaign(fork=False, **kwargs))
        reports.update((kind, pair) for kind in kinds)
    return reports


#: the fault plans every start state of the run driver is checked
#: under: none, one that never fires, one that fires and halts
DRIVER_PLANS = {
    "none": None,
    "never": FaultPlan.single(FaultKind.DROP, trigger=1 << 40),
    "halting": FaultPlan.single(FaultKind.DROP,
                                trigger=deep_trigger(FaultKind.DROP)),
}


@pytest.fixture(scope="module")
def driver_references():
    """The fft campaign point, its workload, the campaign prefix's
    snapshots (plain and recorded), and per plan the cold reference
    ``(result, halted, scoreboard, recording bytes)``: result, halt
    and scoreboard from ``SmpSystem.run`` on a fresh machine with a
    plain injector attached, the recording from ``record_run``."""
    target = SweepPoint("fft", campaign_config(cpus=2), scale=0.02)
    workload = generate("fft", 2, scale=0.02)
    firing = DRIVER_PLANS["halting"].specs
    snapshots = {recorded: _simulate_prefix(workload, target, firing,
                                            record_diff=recorded)[0]
                 for recorded in (False, True)}
    references = {}
    for name, plan in DRIVER_PLANS.items():
        system = build_system(target.config)
        injector = None if plan is None \
            else FaultInjector(plan, HALT).attach(system)
        result = halted = None
        try:
            result = system.run(workload)
        except ReproError as exc:
            halted = f"{type(exc).__name__}: {exc}"
        scoreboard = None if injector is None \
            else injector.finalize().as_dict()
        recording = record_run(target, fault_plan=plan,
                               fault_policy=HALT).to_bytes()
        references[name] = (result, halted, scoreboard, recording)
    assert references["halting"][1] is not None
    assert_same_result(references["none"][0], run_point(target))
    return target, workload, snapshots, references


class TestOneDriver:
    @pytest.mark.parametrize("plan_name", list(DRIVER_PLANS))
    @pytest.mark.parametrize("recorded", [False, True],
                             ids=["plain", "recorded"])
    @pytest.mark.parametrize("start", ["cold", "forked", "refused"])
    def test_every_start_mode_and_plan_matches_the_cold_reference(
            self, driver_references, start, recorded, plan_name):
        """``fork_point`` from a cold start, from a valid campaign
        prefix snapshot, or from one the unpickler refuses; plain or
        recorded; with no plan, a plan that never fires or one that
        halts: result, halt, scoreboard and recording bytes all equal
        the cold reference."""
        target, workload, snapshots, references = driver_references
        plan = DRIVER_PLANS[plan_name]
        snapshot = None
        if start != "cold":
            snapshot = _pick_snapshot(snapshots[recorded],
                                      DRIVER_PLANS["halting"].specs[0])
            assert snapshot is not None
            if start == "refused":
                snapshot = tampered(snapshot, _RunsShell("false"))
        outcome = fork_point(target, snapshot, workload=workload,
                             recorded=recorded, plan=plan, policy=HALT)
        result, halted, scoreboard, recording = references[plan_name]
        assert outcome.forked == (start == "forked")
        assert not outcome.emitted
        assert outcome.halted == halted
        if result is None:
            assert outcome.result is None
        else:
            assert_same_result(outcome.result, result)
        assert scoreboard == (None if outcome.scoreboard is None
                              else outcome.scoreboard.as_dict())
        if recorded:
            assert Recording.build(
                target, outcome.recorder, outcome.result,
                halted=outcome.halted, fault_plan=plan,
                fault_policy=None if plan is None else HALT,
            ).to_bytes() == recording
        else:
            assert outcome.recorder is None


def serve_runner(root):
    """The serve plane's checkpoint-mode worker runner."""
    return PointRunner(checkpoints=CheckpointStore(root))


class TestServeRunner:
    def test_second_call_forks_and_reports_counters(self, tmp_path):
        target_a = point(scale=0.02, seed=7)
        target_b = point(scale=0.04, seed=7)
        cold_b = run_point(target_b)
        result_a, _, counters_a = serve_runner(tmp_path)(target_a)
        result_b, _, counters_b = serve_runner(tmp_path)(target_b)
        assert counters_a["serve.checkpoint_misses"] == 1
        assert counters_a["serve.checkpoint_stores"] == 1
        assert counters_b["serve.checkpoint_hits"] == 1
        assert_same_result(cold_b, result_b)

    def test_resubmit_then_larger_scale_is_bit_identical(
            self, tmp_path):
        """Snapshot-poisoning regression, the serve-plane pattern: one
        scale submitted twice (the second forks from the first's seam
        snapshot, so a cursor starts already at its trace end), then a
        larger scale of the same family. The resumed run's *later*
        exhaustion must not be re-emitted under the same scale tag —
        its machine state is unreachable by a cold run of the larger
        scale (one CPU idled at a trace end the larger trace extends),
        and the larger fork would silently diverge (lu exposes this;
        the per-CPU prefix digests alone cannot catch it)."""
        small = point(name="lu", scale=0.02)
        big = point(name="lu", scale=0.06)
        cold_small = run_point(small)
        cold_big = run_point(big)
        first, _, _ = serve_runner(tmp_path)(small)
        second, _, counters = serve_runner(tmp_path)(small)
        assert counters["serve.checkpoint_hits"] == 1
        # The seam snapshot for this scale is already stored; the
        # resumed run must emit nothing, not overwrite it.
        assert counters["serve.checkpoint_stores"] == 0
        forked_big, _, _ = serve_runner(tmp_path)(big)
        assert_same_result(cold_small, first)
        assert_same_result(cold_small, second)
        assert_same_result(cold_big, forked_big)
