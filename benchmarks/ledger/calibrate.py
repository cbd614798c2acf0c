"""Machine-speed calibration: report timings at a fixed reference speed.

The ledger runs on shared two-core sandboxes whose speed moves by 30 % and
more from one second to the next and from one minute to the next (a busy
sibling hyper-thread, a neighbour's memory traffic) -- wider than any bound
worth gating on: the same replay measured 2.7 s and 4.4 s a minute apart.
So every timed region is interleaved with a fixed kernel that does what the
program's hot paths do (LRU-dictionary hits with ``move_to_end``, small
object allocation, a sort, dictionary accumulation) but shares no code with
it.  The ratio of the kernel's reference duration to its measured duration
is the machine's speed at that moment, and the region's wall time is scaled
by it.  A timing reported by the ledger therefore reads "seconds on a
machine on which the kernel takes ``REFERENCE_S``": a change to the program
moves it exactly as it moves the wall time, a change of machine speed mostly
does not (the replay-to-replay quartile spread falls from 15 % to 6 %).  The
raw wall times are kept beside the scaled ones in the ledger's JSON.
"""

from __future__ import annotations

import random
import statistics
import threading
import time
from collections import OrderedDict

#: What one kernel run takes at reference speed (about what it takes on the
#: builder's container, so scaled and raw times read alike there).
REFERENCE_S = 1.4e-3


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: float) -> None:
        self.key = key
        self.value = value


class Kernel:
    """The fixed calibration workload; ``run()`` returns its wall seconds."""

    ENTRIES = 60_000
    LOOKUPS = 750

    def __init__(self) -> None:
        rng = random.Random(1)
        self._cache: OrderedDict[tuple[int, int], float] = OrderedDict(
            ((rng.randrange(3000), rng.randrange(3000)), rng.random())
            for _ in range(self.ENTRIES)
        )
        self._keys = list(self._cache)
        rng.shuffle(self._keys)
        self._cursor = 0

    def run(self) -> float:
        start = time.perf_counter()
        keys = self._keys[self._cursor: self._cursor + self.LOOKUPS]
        self._cursor = (self._cursor + self.LOOKUPS) % (
            len(self._keys) - self.LOOKUPS
        )
        get, touch = self._cache.get, self._cache.move_to_end
        cells = []
        for key in keys:
            value = get(key)
            touch(key)
            cells.append(_Cell(key[0], value))
        cells.sort(key=lambda cell: cell.key)
        totals: dict[int, float] = {}
        for cell in cells:
            totals[cell.key] = totals.get(cell.key, 0.0) + cell.value
        return time.perf_counter() - start


def speed_factor(samples: list[float]) -> float:
    """Scale that turns wall seconds into reference seconds, from the median."""
    return REFERENCE_S / statistics.median(samples)


class SpeedGauge:
    """``after_tick`` hook for ``replay``: one kernel run after every tick."""

    #: Kernel runs around a tick whose median gives that tick's speed.
    WINDOW = 5

    def __init__(self, kernel: Kernel) -> None:
        self._kernel = kernel
        self.samples: list[float] = []

    def __call__(self) -> None:
        self.samples.append(self._kernel.run())

    def factors(self) -> list[float]:
        """One scale per tick, from the kernel runs closest to it."""
        half = self.WINDOW // 2
        return [
            speed_factor(self.samples[max(0, index - half): index + half + 1])
            for index in range(len(self.samples))
        ]


class BackgroundGauge:
    """Samples the kernel on a thread while one long region runs.

    For regions the ledger cannot interleave by hand (``import repro``, one
    whole set-up): ``with BackgroundGauge(kernel) as gauge: ...`` then
    ``gauge.scale(wall_seconds)``.  A kernel run is shorter than the
    interpreter's switch interval, so a sample measures the machine, not the
    wait for the interpreter lock; the runs themselves are taken out of the
    region's wall time.
    """

    INTERVAL_S = 0.015

    def __init__(self, kernel: Kernel) -> None:
        self._kernel = kernel
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        while not self._stop.is_set():
            self.samples.append(self._kernel.run())
            self._stop.wait(self.INTERVAL_S)

    def __enter__(self) -> "BackgroundGauge":
        self._thread.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._stop.set()
        self._thread.join()

    def scale(self, wall_s: float) -> float:
        """``wall_s`` of the watched region, at reference speed."""
        return (wall_s - sum(self.samples)) * speed_factor(self.samples)
