"""SPLASH-2-like synthetic trace generators.

Each generator models the *communication structure* of its namesake:

- **fft** — tiled butterfly computation over a shared matrix chunk
  punctuated by all-to-all transposes (bursty cache-to-cache traffic).
- **radix** — streaming reads of private keys with writes into dense
  bucket runs of shared histogram space (write invalidations,
  migratory lines).
- **barnes** — irregular, read-mostly walks over a shared tree with a
  hot upper level, strong path reuse, and occasional updates (wide
  read sharing).
- **lu** — blocked dense factorization: a rotating owner produces the
  pivot row that every other processor consumes
  (single-producer, all-consumer sharing).
- **ocean** — nearest-neighbour stencil on a strip-partitioned grid
  (boundary-row sharing between adjacent processors).

``scale`` multiplies the reference count (benches use ~1.0; unit tests
use ~0.05). The generators are tuned for realistic cache behaviour on
the Figure-5 machine: L2 miss rates of a few percent, bus utilisation
well below saturation, and a cache-to-cache share of bus traffic in
the tens of percent — the regime in which the paper's numbers live.

**Scale families.** ``scale`` only sets how many *units* of work a
program runs (:attr:`Program.units`): radix keys, barnes walks, lu and
ocean iterations. Those four bodies are resumable unit loops, so a
program's trace at *n* units is, CPU by CPU, a prefix of its trace at
any larger count. A :class:`Family` — one (program, CPUs, seed) — runs
its loops only as far as the largest count asked for and serves every
scale as per-CPU prefix copies. fft's tiles per phase reshape its whole
body, so an fft family is generated whole for one unit count.
"""

from __future__ import annotations

from array import array
from itertools import count
from typing import Callable, Iterator, List, NamedTuple, Tuple

from ..smp.trace import ColumnarTrace, Workload
from .base import (SHARED_BASE, WORD_BYTES, TraceBuilder, conflict_block,
                   make_builders, private_base)


def _words(num_bytes: int) -> int:
    return num_bytes // WORD_BYTES


class Program(NamedTuple):
    """How one SPLASH-2 model is seeded, sized and grown."""

    name: str
    #: builder seed = seed * salt[0] + salt[1]
    salt: Tuple[int, int]
    #: units of work at a scale
    units: Callable[[float], int]
    #: (num_cpus, units) -> the size metadata after ``scale``/``seed``
    fields: Callable[[int, int], dict]
    #: the body: a resumable loop yielding after each unit, called as
    #: ``loop(builder, cpu, num_cpus)`` per CPU or ``loop(builders)``
    #: once; or, if not prefix-stable, ``loop(builders, units)`` run
    #: whole
    loop: Callable[..., object]
    per_cpu: bool = False
    prefix_stable: bool = True


class Family:
    """One program's traces for a (num_cpus, seed), grown on demand.

    :meth:`workload` returns copies of the columns, never the live
    arrays: growing the family later must not change a trace a run or
    snapshot already holds. Not thread-safe; the registry serialises
    access under its lock.
    """

    def __init__(self, program: Program, num_cpus: int, seed: int,
                 units: int):
        self.program = program
        self.seed = seed
        self._builders: List[TraceBuilder] = make_builders(
            num_cpus, seed * program.salt[0] + program.salt[1])
        self._columns = [builder.build().columns()
                         for builder in self._builders]
        #: _ends[cpu][n]: length of ``cpu``'s trace after ``n`` units
        self._ends = [array("q", [0]) for _ in self._builders]
        self._loops: List[Iterator[None]] = []
        if not program.prefix_stable:
            program.loop(self._builders, units)
            self._validate([0] * num_cpus)
        elif program.per_cpu:
            self._loops = [program.loop(builder, cpu, num_cpus)
                           for cpu, builder in enumerate(self._builders)]
        else:
            self._loops = [program.loop(self._builders)]

    def _grow(self, units: int) -> None:
        """Run the unit loops until ``units`` units exist."""
        ends = self._ends
        done = len(ends[0]) - 1
        if units <= done:
            return
        addresses = [columns[1] for columns in self._columns]
        starts = [len(column) for column in addresses]
        for _ in range(done, units):
            for loop in self._loops:
                next(loop)
            for cpu_ends, column in zip(ends, addresses):
                cpu_ends.append(len(column))
        self._validate(starts)

    def _validate(self, starts: List[int]) -> None:
        """Validate each CPU's trace from ``starts[cpu]`` on (once per
        access, as it is generated)."""
        for cpu, (columns, start) in enumerate(zip(self._columns, starts)):
            ColumnarTrace(*(column[start:] for column in columns)) \
                .validate(cpu)

    def workload(self, scale: float) -> Workload:
        """The program at ``scale``: fresh per-CPU prefix copies."""
        units = self.program.units(scale)
        if self.program.prefix_stable:
            self._grow(units)
        traces = []
        for columns, ends in zip(self._columns, self._ends):
            end = ends[units] if self.program.prefix_stable \
                else len(columns[1])
            traces.append(ColumnarTrace(*(column[:end]
                                          for column in columns)))
        metadata = dict(scale=scale, seed=self.seed,
                        **self.program.fields(len(traces), units))
        return Workload(self.program.name, traces, metadata, validate=False)


# -- fft ---------------------------------------------------------------------

FFT_MATRIX_BYTES = int(1.5 * (1 << 20))          # shared matrix ~1.5 MB
FFT_PHASES = 10


def _fft_body(builders: List[TraceBuilder], tiles_per_phase: int) -> None:
    """Tiled butterfly phases + all-to-all transpose of a shared matrix."""
    num_cpus = len(builders)
    chunk_words = _words(FFT_MATRIX_BYTES) // num_cpus
    tile_words = 256                             # 2 KB tiles
    passes_per_tile = 4

    for phase in range(FFT_PHASES):
        for cpu, builder in enumerate(builders):
            base_private = private_base(cpu) + 4096
            my_chunk = SHARED_BASE + cpu * chunk_words * WORD_BYTES
            # Butterfly compute: several passes over each tile of our
            # chunk (reads of twiddle factors from private memory).
            for tile in range(tiles_per_phase):
                tile_base = (my_chunk
                             + ((phase * tiles_per_phase + tile)
                                * tile_words % chunk_words) * WORD_BYTES)
                for tile_pass in range(passes_per_tile):
                    for word in range(0, tile_words, 2):
                        builder.read(base_private
                                     + (word * WORD_BYTES) % (1 << 14))
                        builder.read(tile_base + word * WORD_BYTES)
                        builder.write(tile_base + word * WORD_BYTES)
            # Rotating twiddle-factor table in the capacity-sensitive
            # region: the owner of this phase refreshed block
            # (phase % 12) earlier; everyone re-reads the previous few
            # blocks. A 4 MB L2 retains them (hits / cache-to-cache);
            # a 1 MB L2 conflict-evicts them (memory refetches).
            if cpu == phase % num_cpus:
                for line in range(8):
                    builder.write(conflict_block(phase % 12) + line * 64)
            if cpu == (phase + 1) % num_cpus:
                block = conflict_block((phase - 6) % 12)
                for line in range(8):
                    builder.read(block + line * 64)
            # Transpose: read a slice of every other CPU's chunk — the
            # words its butterfly just produced — and write into our
            # own chunk (the all-to-all exchange).
            slice_words = max(8, (tiles_per_phase * tile_words)
                              // (4 * num_cpus))
            for other in range(num_cpus):
                if other == cpu:
                    continue
                their_chunk = (SHARED_BASE
                               + other * chunk_words * WORD_BYTES)
                for word in range(slice_words):
                    source = ((phase * tiles_per_phase * tile_words)
                              + cpu * slice_words + word) % chunk_words
                    builder.read(their_chunk + source * WORD_BYTES)
                    builder.write(my_chunk
                                  + ((other * slice_words + word)
                                     % chunk_words) * WORD_BYTES)


FFT = Program(
    "fft", (7919, 11),
    units=lambda scale: max(1, int(2.4 * scale)),     # tiles per phase
    fields=lambda num_cpus, units: dict(shared_bytes=FFT_MATRIX_BYTES,
                                        phases=FFT_PHASES),
    loop=_fft_body, prefix_stable=False)


# -- radix -------------------------------------------------------------------

# Dense histogram space: small enough that CPUs collide on bucket lines
# (the migratory read-modify-write sharing radix is known for) while the
# streamed key arrays provide the memory-bound traffic.
RADIX_BUCKET_BYTES = 256 << 10


def _radix_keys(builder: TraceBuilder, cpu: int,
                num_cpus: int) -> Iterator[None]:
    """Streaming key reads with dense-run shared-bucket writes; one
    unit per key."""
    bucket_words = _words(RADIX_BUCKET_BYTES)
    run_words = 8                                # one line per bucket run
    keys_per_run = 24
    rng = builder._rng
    key_base = private_base(cpu) + 8192
    run_start = 0
    for key_index in count():
        builder.read(key_base + (key_index * WORD_BYTES) % (1 << 20))
        # Radix scatters into bucket runs: a fresh random run every
        # two dozen keys, line-dense read-modify-writes within it.
        if key_index % keys_per_run == 0:
            run_start = rng.randint(
                0, bucket_words // run_words - 1) * run_words
        bucket = run_start + rng.randint(0, run_words - 1)
        address = SHARED_BASE + bucket * WORD_BYTES
        builder.read(address)
        builder.write(address)
        if key_index % 64 == 63:
            # Rank exchange: peek at a neighbour's dense counters.
            neighbour = (cpu + 1) % num_cpus
            counter = (SHARED_BASE + RADIX_BUCKET_BYTES
                       + neighbour * 4096
                       + rng.randint(0, 63) * WORD_BYTES)
            builder.read(counter)
        yield


RADIX = Program(
    "radix", (104729, 13),
    units=lambda scale: max(1, int(9000 * scale)),    # keys per CPU
    fields=lambda num_cpus, units: dict(shared_bytes=RADIX_BUCKET_BYTES,
                                        keys_per_cpu=units),
    loop=_radix_keys, per_cpu=True)


# -- barnes ------------------------------------------------------------------

BARNES_TREE_BYTES = 2 << 20                      # shared tree ~2 MB


def _barnes_walks(builder: TraceBuilder, cpu: int,
                  num_cpus: int) -> Iterator[None]:
    """Read-mostly tree walks with hot upper levels and path reuse; one
    unit per walk."""
    tree_words = _words(BARNES_TREE_BYTES)
    hot_words = tree_words // 256                # upper tree levels
    walk_length = 8
    reuse_probability = 0.95
    rng = builder._rng
    body_base = private_base(cpu) + 16384
    recent: list = []
    for walk in count():
        for depth in range(walk_length):
            if depth < 3 or (recent
                             and rng.random() < reuse_probability):
                if depth < 3:
                    node = rng.randint(0, hot_words - 1)
                else:
                    node = rng.choice(recent)
            else:
                node = rng.randint(0, tree_words - 4)
                recent.append(node)
                if len(recent) > 192:
                    recent.pop(0)
            address = SHARED_BASE + node * WORD_BYTES
            # A tree node spans several words: read a few fields.
            builder.read(address)
            builder.read(address + WORD_BYTES)
            builder.read(address + 2 * WORD_BYTES)
        if walk % 64 == 0:
            # Periodic centre-of-mass summary exchange through the
            # capacity-sensitive region (rotating writer).
            epoch = walk // 64
            if cpu == epoch % num_cpus:
                for line in range(8):
                    builder.write(conflict_block(epoch % 12)
                                  + line * 64)
            if cpu == (epoch + 1) % num_cpus:
                block = conflict_block((epoch - 6) % 12)
                for line in range(8):
                    builder.read(block + line * 64)
        # Update our body's fields (private) and occasionally the
        # shared cell the body hangs off (5% of walks).
        body = body_base + (walk % 128) * 64
        builder.read(body)
        builder.write(body)
        if rng.random() < 0.05:
            node = rng.randint(0, hot_words - 1)
            builder.write(SHARED_BASE + node * WORD_BYTES)
        yield


BARNES = Program(
    "barnes", (6151, 17),
    units=lambda scale: max(1, int(900 * scale)),     # walks per CPU
    fields=lambda num_cpus, units: dict(shared_bytes=BARNES_TREE_BYTES,
                                        walks_per_cpu=units),
    loop=_barnes_walks, per_cpu=True)


# -- lu ----------------------------------------------------------------------

LU_MATRIX_BYTES = 2 << 20                        # shared matrix ~2 MB


def _lu_iterations(builders: List[TraceBuilder]) -> Iterator[None]:
    """Rotating pivot-row producer with all-consumer readers; one unit
    per iteration."""
    num_cpus = len(builders)
    row_bytes = 2048
    rows = LU_MATRIX_BYTES // row_bytes
    row_words = _words(row_bytes)
    block_rows = 8                               # each CPU's warm block

    for iteration in count():
        owner = iteration % num_cpus
        pivot_row = SHARED_BASE + (iteration % rows) * row_bytes
        # Producer updates the pivot row at the head of the iteration.
        for word in range(row_words):
            builders[owner].write(pivot_row + word * WORD_BYTES)
        # Rotating U-diagonal blocks in the capacity-sensitive region:
        # the owner refreshes one block per iteration; consumers later
        # re-read blocks from several iterations back (retained by a
        # 4 MB L2, conflict-evicted from a 1 MB L2).
        for line in range(8):
            builders[owner].write(conflict_block(iteration % 12)
                                  + line * 64)
        consumer = builders[(owner + 1) % num_cpus]
        stale_block = conflict_block((iteration - 6) % 12)
        for line in range(8):
            consumer.read(stale_block + line * 64)
        # Every processor first updates its own (revisited, so warm
        # after the first sweep) block rows — which doubles as the
        # barrier slack that lets the producer finish — then consumes
        # the pivot row.
        for cpu, builder in enumerate(builders):
            block_base = (SHARED_BASE
                          + (rows - (cpu + 1) * block_rows) * row_bytes)
            block_row = block_base + (iteration % block_rows) * row_bytes
            for word in range(0, row_words, 2):
                builder.read(block_row + word * WORD_BYTES)
                builder.write(block_row + word * WORD_BYTES)
            if cpu != owner:
                builder.compute(400)  # barrier slack
                for word in range(0, row_words, 2):
                    builder.read(pivot_row + word * WORD_BYTES)
        yield


LU = Program(
    "lu", (3571, 19),
    units=lambda scale: max(2, int(55 * scale)),      # iterations
    fields=lambda num_cpus, units: dict(shared_bytes=LU_MATRIX_BYTES,
                                        iterations=units),
    loop=_lu_iterations)


# -- ocean -------------------------------------------------------------------

OCEAN_ROW_BYTES = 4096
OCEAN_ROWS_PER_CPU = 32


def _ocean_iterations(builders: List[TraceBuilder]) -> Iterator[None]:
    """Strip-partitioned stencil with boundary-row exchange; one unit
    per iteration."""
    grid_rows = OCEAN_ROWS_PER_CPU * len(builders)
    row_words = _words(OCEAN_ROW_BYTES)
    sweep_step = 2

    def row_address(row: int) -> int:
        return SHARED_BASE + (row % grid_rows) * OCEAN_ROW_BYTES

    while True:
        for cpu, builder in enumerate(builders):
            first = cpu * OCEAN_ROWS_PER_CPU
            last = first + OCEAN_ROWS_PER_CPU - 1
            for row in range(first, last + 1):
                mine = row_address(row)
                # Neighbour rows: interior rows read within the strip,
                # boundary rows read the adjacent CPU's edge row.
                above = row_address(row - 1) if row > 0 else mine
                below = (row_address(row + 1)
                         if row < grid_rows - 1 else mine)
                for word in range(0, row_words, 4 * sweep_step):
                    builder.read(above + word * WORD_BYTES)
                    builder.read(below + word * WORD_BYTES)
                    builder.read(mine + word * WORD_BYTES)
                    builder.write(mine + word * WORD_BYTES)
        yield


OCEAN = Program(
    "ocean", (2887, 23),
    units=lambda scale: max(2, int(8 * scale)),       # iterations
    fields=lambda num_cpus, units: dict(
        shared_bytes=OCEAN_ROWS_PER_CPU * num_cpus * OCEAN_ROW_BYTES,
        iterations=units),
    loop=_ocean_iterations)


#: every model by name, in the paper's order
PROGRAMS = {program.name: program
            for program in (FFT, RADIX, BARNES, LU, OCEAN)}


# -- one-shot generation -----------------------------------------------------


def _one_shot(program: Program, num_cpus: int, scale: float,
              seed: int) -> Workload:
    return Family(program, num_cpus, seed,
                  program.units(scale)).workload(scale)


def fft(num_cpus: int, scale: float = 1.0, seed: int = 1) -> Workload:
    """Tiled butterfly phases + all-to-all transpose of a shared matrix."""
    return _one_shot(FFT, num_cpus, scale, seed)


def radix(num_cpus: int, scale: float = 1.0, seed: int = 2) -> Workload:
    """Streaming key reads with dense-run shared-bucket writes."""
    return _one_shot(RADIX, num_cpus, scale, seed)


def barnes(num_cpus: int, scale: float = 1.0, seed: int = 3) -> Workload:
    """Read-mostly tree walks with hot upper levels and path reuse."""
    return _one_shot(BARNES, num_cpus, scale, seed)


def lu(num_cpus: int, scale: float = 1.0, seed: int = 4) -> Workload:
    """Rotating pivot-row producer with all-consumer readers."""
    return _one_shot(LU, num_cpus, scale, seed)


def ocean(num_cpus: int, scale: float = 1.0, seed: int = 5) -> Workload:
    """Strip-partitioned stencil with boundary-row exchange."""
    return _one_shot(OCEAN, num_cpus, scale, seed)
