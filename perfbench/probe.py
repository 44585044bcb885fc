"""The speed probe: a tiny fixed loop at the lowest priority, counting its rounds.

``python perfbench/probe.py <counter file>`` lowers its own priority to
nice 19, then runs rounds of a small integer loop for ever, storing the
number of finished rounds in the first eight bytes of the counter file
(mapped shared, so the benchmark reads it without a system call).  It exits
when its parent does.  ``common.SpeedProbe`` starts, reads and stops it.
"""

from __future__ import annotations

import mmap
import os
import struct
import sys


def main() -> int:
    parent = os.getppid()
    os.nice(19)
    with open(sys.argv[1], "r+b") as handle:
        counter = mmap.mmap(handle.fileno(), 8)
    rounds = 0
    value = 0
    while True:
        for step in range(500):
            value = (value * 31 + step) & 0xFFFF
        rounds += 1
        struct.pack_into("Q", counter, 0, rounds)
        if rounds % 4096 == 0 and os.getppid() != parent:
            return 0


if __name__ == "__main__":
    sys.exit(main())
