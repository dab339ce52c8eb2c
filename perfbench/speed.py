"""The host's speed, measured between passes, to put timings on one scale.

On a shared virtual machine the speed of the same CPU drifts by a fifth or
more from one minute to the next, with no steal time to show for it, and a
pass speeds up or slows down with the seconds just around it.  So the
benchmark times a fixed
calibration unit, which is its own code and never the program's, just before
and just after each pass, and multiplies the pass's wall time by
``REFERENCE_UNIT_S / unit_s``, where ``unit_s`` is the mean of the two
calibrations.  A timing then reads in seconds on a host where one unit takes
``REFERENCE_UNIT_S``, close to wall seconds on the 2-vCPU Xeon host the
reference was measured on.  A change to the program moves the pass's wall
time and not the unit, so it shows in full.

The unit does what most of a pass on the gated workloads does, in the
benchmark's own frozen code: kNN look-ups over a car-like table of 6,912
records, each an overlap-distance scan of numpy arrays, a lexsort of the
candidates and a vote over the neighbours' Python records.  Measured against
each other between the same passes, it tracked their wall time more closely
than a unit of plain numpy scans and dict loops.
"""

from __future__ import annotations

import random
import time

import numpy as np

# Median seconds of one unit between passes on a 2-vCPU Intel Xeon virtual
# machine with Python 3.11 and numpy 2.4.
REFERENCE_UNIT_S = 0.048
CALIBRATION_S = 0.3  # how long one calibration runs units for

_ROWS = 6912
_LEVELS = [("a", "b", "c", "d")] * 6 + [("u", "v", "w", "x")]
_RANDOM = random.Random(0)
# records of a car-like table, a few cells missing, and their encoded columns
_RECORDS = [
    tuple(_RANDOM.choice(levels) if _RANDOM.random() > 0.03 else None for levels in _LEVELS)
    for _ in range(_ROWS)
]
_CODES = [{level: code for code, level in enumerate(levels)} for levels in _LEVELS]
_COLUMNS = [
    np.array([_CODES[j][r[j]] if r[j] is not None else -1 for r in _RECORDS], dtype=np.int64)
    for j in range(len(_LEVELS))
]
_PRESENT = [column >= 0 for column in _COLUMNS]
_IDS = np.arange(_ROWS, dtype=np.int64)
_PROBES = range(0, 40 * (_ROWS // 40), _ROWS // 40)


def _unit() -> int:
    """Forty kNN look-ups: an overlap-distance scan, then two neighbour votes each."""
    votes = 0
    for probe in _PROBES:
        record = _RECORDS[probe]
        total = np.zeros(_ROWS)
        for j, column in enumerate(_COLUMNS):
            if record[j] is None:
                total += 1.0
                continue
            term = np.where(column == _CODES[j][record[j]], 0.0, 1.0)
            total += term * term
        for target in (0, 3):
            candidates = np.flatnonzero(_PRESENT[target] & (_IDS != probe))
            order = np.lexsort((_IDS[candidates], total[candidates]))
            tally: dict = {}
            for row in candidates[order[:10]]:
                value = _RECORDS[int(row)][target]
                tally[value] = tally.get(value, 0) + 1
            votes += len(tally)
    return votes


def unit_seconds(seconds: float = CALIBRATION_S) -> float:
    """Mean wall seconds of one calibration unit, over about ``seconds``."""
    units = 0
    start = time.perf_counter()
    while True:
        _unit()
        units += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            return elapsed / units


def factor(before: float, after: float) -> float:
    """What a wall time between calibrations ``before`` and ``after`` is multiplied by."""
    return REFERENCE_UNIT_S / ((before + after) / 2.0)
