"""The benchmark's own seeded trace generator; it imports no roamsim code, so
the compare-dense input bytes do not depend on the code under test."""

from __future__ import annotations

import json
import random


def dense_trace_lines(seed: int, steps: int, aps: int):
    """Canonical JSONL lines of a clipped Gaussian walk.

    Base -65 dBm, step stddev 2, clipped to [-95, -30]; candidates sorted by
    descending RSSI then BSSID, keys in the order roamsim serialises them,
    so sha256 of the file equals roamsim's content hash of the parsed trace.
    """
    rng = random.Random(f"perfbench-dense:{seed}")
    macs = [f"02:00:00:00:{(i >> 8) & 0xFF:02X}:{i & 0xFF:02X}" for i in range(1, aps + 1)]
    levels = [-65.0] * aps
    for t in range(steps):
        if t:
            levels = [min(-30.0, max(-95.0, v + rng.gauss(0.0, 2.0))) for v in levels]
        scan = sorted(zip(macs, levels), key=lambda p: (-p[1], p[0]))
        rec = {"t": t, "scan": [{"bssid": m, "rssi_dbm": r} for m, r in scan], "activity": "active"}
        yield json.dumps(rec) + "\n"
