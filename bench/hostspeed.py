"""The host's current speed, from a fixed reference computation.

The benchmark runs on shared machines whose speed drifts with the load of
their other tenants: on a 2-vCPU VM (Intel Xeon, 2.0 GHz nominal) the same
pass took anywhere from one to two times as long from one minute to the next,
and every timing moved together.  So the worker runs this reference
computation between requests, outside the timed region, and divides each
pass's request times by the pass's host factor: the mean reference time over
the pass divided by ``REFERENCE_S``, the reference time on that VM when quiet.
A reported second is then a second of that quiet host.

The reference uses the standard library only, so no change to gridperc can
change it, and it runs with the garbage collector off, so the size of
gridperc's heap does not change it either.  It mixes the kinds of work the
package does: big-integer bit operations (a 3-neighbour bootstrap on a
10x10x10 grid), tuple-keyed dict updates and sorting, and string building.
"""

from __future__ import annotations

import gc
import random
from statistics import mean
from time import perf_counter

REFERENCE_S = 0.0063  # one reference() on the quiet VM named above (2nd percentile)
SAMPLE_EVERY_S = 0.2  # of request time, between two samples in a pass

_SIDE = 10
_CELLS = _SIDE**3
_FULL = (1 << _CELLS) - 1
# cells with a neighbour one step up along z, and along y
_KEEP_Z = sum(((1 << (_SIDE - 1)) - 1) << (i * _SIDE) for i in range(_SIDE * _SIDE))
_KEEP_Y = sum(((1 << ((_SIDE - 1) * _SIDE)) - 1) << (i * _SIDE * _SIDE) for i in range(_SIDE))
_STARTS = [random.Random(k).sample(range(_CELLS), 340) for k in range(6)]


def reference() -> int:
    """The fixed computation; returns a checksum so no step can be skipped."""
    out = 0
    for start in _STARTS:
        mask = 0
        for i in start:
            mask |= 1 << i
        while True:
            s1 = s2 = s3 = 0  # cells with at least one, two, three infected neighbours
            for nb in ((mask >> 1) & _KEEP_Z, (mask << 1) & (_KEEP_Z << 1),
                       (mask >> _SIDE) & _KEEP_Y, (mask << _SIDE) & (_KEEP_Y << _SIDE),
                       mask >> (_SIDE * _SIDE), (mask << (_SIDE * _SIDE)) & _FULL):
                s3 |= s2 & nb
                s2 |= s1 & nb
                s1 |= nb
            grown = mask | s3
            if grown == mask:
                break
            mask = grown
        out += mask.bit_count()
    table: dict[tuple[int, int, int], int] = {}
    for i in range(20000):
        key = (i % 13, i % 11, i & 7)  # 1144 keys: the reference adds little to peak memory
        table[key] = table.get(key, 0) + i
    out += len(sorted(table.items(), key=lambda kv: kv[1]))
    out += len("".join(str(v) for v in table.values()))
    return out


def sample() -> float:
    """Seconds one reference() takes now, with the garbage collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        reference()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def factor(samples: list[float]) -> float:
    """How many times slower than the quiet host the samples say this host ran."""
    return mean(samples) / REFERENCE_S
