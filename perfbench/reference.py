"""Host-speed reference: fixed work in the benchmark's own code (500 steps of
its 32-AP trace generator; no roamsim code), timed in a process of its own so
that nothing the measured process leaves behind (heap, garbage, sockets) can
change it.

Run as a script, it runs one pass for each line it reads on stdin and prints
that pass's seconds on one line; it ends when stdin closes.
"""

from __future__ import annotations

import gc
import sys
import time

from walk import dense_trace_lines

STEPS = 500
APS = 32


def one_pass() -> float:
    gc.collect()
    start = time.perf_counter()
    for _line in dense_trace_lines(0, STEPS, APS):
        pass
    return time.perf_counter() - start


def main() -> int:
    one_pass()  # warm-up
    for _request in sys.stdin:
        print(repr(one_pass()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
