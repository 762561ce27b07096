"""ResultCache under concurrent writers and readers.

The serving path (repro.serve) shares one cache between an asyncio
loop, completion-callback threads and sweep worker processes, so
store/load must be torn-read-free: writers stage into uniquely-named
temp files and publish with atomic ``os.replace``. These tests hammer
one cache directory from many threads and assert readers only ever
see absent or complete, checksum-valid entries — never quarantine a
file a concurrent writer was publishing.
"""

import sys
import threading

from repro.sim.sweep import ResultCache, SweepPoint, point_key
from repro.smp.metrics import SimulationResult

from repro.config import e6000_config


def _point(seed=0):
    return SweepPoint("fft", e6000_config(num_processors=2),
                      scale=0.05, seed=seed)


def _result(cycles=1234):
    return SimulationResult(workload="fft", num_cpus=2, cycles=cycles,
                            per_cpu_cycles=[cycles, cycles - 7],
                            stats={"bus.transactions": 42,
                                   "l2.misses": 7})


class TestConcurrentWriters:
    def test_same_key_many_threads_never_torn(self, tmp_path):
        """N threads storing the same key: every interleaved load is
        either a miss or a complete entry; nothing gets quarantined."""
        cache = ResultCache(tmp_path)
        target = _point()
        result = _result()
        errors = []
        stop = threading.Event()

        def writer():
            try:
                for _ in range(50):
                    cache.store(target, result)
            except Exception as exc:  # pragma: no cover - fail path
                errors.append(exc)

        def reader():
            try:
                while not stop.is_set():
                    loaded = cache.load(target)
                    if loaded is not None:
                        assert loaded.cycles == result.cycles
                        assert loaded.stats == result.stats
            except Exception as exc:  # pragma: no cover - fail path
                errors.append(exc)

        writers = [threading.Thread(target=writer) for _ in range(4)]
        readers = [threading.Thread(target=reader) for _ in range(2)]
        for thread in readers + writers:
            thread.start()
        for thread in writers:
            thread.join()
        stop.set()
        for thread in readers:
            thread.join()
        assert not errors
        assert cache.quarantined == 0
        assert not list(tmp_path.glob("*.corrupt"))
        # No scratch litter left behind by any writer.
        assert not list(tmp_path.glob("*.tmp.*"))
        assert cache.load(target).cycles == result.cycles

    def test_distinct_keys_many_threads(self, tmp_path):
        cache = ResultCache(tmp_path)
        points = [_point(seed=seed) for seed in range(16)]

        def writer(chunk):
            for target in chunk:
                cache.store(target, _result(cycles=1000 + target.seed))

        threads = [threading.Thread(target=writer,
                                    args=(points[i::4],))
                   for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(cache) == len(points)
        for target in points:
            assert cache.load(target).cycles == 1000 + target.seed

    def test_scratch_names_unique_within_process(self, tmp_path):
        """Successive stores use distinct scratch names (the serial
        suffix), so same-thread and same-pid writers cannot collide
        on a staging file the way the old bare-pid suffix could."""
        cache = ResultCache(tmp_path)
        first = next(cache._scratch_serial)
        second = next(cache._scratch_serial)
        assert first != second
        cache.store(_point(), _result())
        assert cache.load(_point()) is not None


class TestConcurrentQuarantine:
    def test_concurrent_quarantine_counts_once(self, tmp_path):
        """Many threads loading one corrupt entry quarantine it exactly
        once (the rename race is benign) and count it exactly once."""
        cache = ResultCache(tmp_path)
        target = _point()
        cache.store(target, _result())
        path = cache._path(point_key(target))
        path.write_text("{ torn json")

        threads = [threading.Thread(target=cache.load, args=(target,))
                   for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert cache.quarantined == 1
        assert len(list(tmp_path.glob("*.corrupt"))) == 1
        assert cache.load(target) is None  # miss after quarantine

    def test_clear_races_are_benign(self, tmp_path):
        cache = ResultCache(tmp_path)
        for seed in range(8):
            cache.store(_point(seed=seed), _result())
        removed = []
        threads = [threading.Thread(
            target=lambda: removed.append(cache.clear()))
            for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert sum(removed) == 8
        assert len(cache) == 0


class TestConcurrentCheckpointWriters:
    def test_same_snapshot_many_threads(self, tmp_path):
        """Threads of one process storing one snapshot: each publish
        (and each stats-sidecar bump) stages into its own scratch
        file, so no writer renames another's file out from under it,
        nothing is left behind, and the entry loads."""
        from repro.sim.checkpoint import CheckpointStore, capture
        from repro.sim.sweep import build_system
        from repro.smp.fastpath import new_counters
        from repro.workloads.registry import generate
        target = SweepPoint("radix", e6000_config(num_processors=2),
                            scale=0.02)
        workload = generate("radix", 2, scale=0.02)
        snapshot = capture(build_system(target.config), workload,
                           target, [0, 0], [0, 0], new_counters(2),
                           tag="t")
        store = CheckpointStore(tmp_path)
        errors = []

        def writer():
            try:
                for _ in range(30):
                    store.store(snapshot)
            except Exception as exc:  # pragma: no cover - fail path
                errors.append(exc)

        threads = [threading.Thread(target=writer) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the writers densely
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert not list(tmp_path.glob("*.tmp.*"))
        assert not list(tmp_path.glob("*.corrupt"))
        loaded = store.load(snapshot.family, snapshot.tag)
        assert loaded is not None and loaded.blob == snapshot.blob
