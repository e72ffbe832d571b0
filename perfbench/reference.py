"""Reference kernel: a fixed pure-Python job shaped like pair enumeration.

    python3 perfbench/reference.py      # prints its own run time in seconds

Modular products packed into tuples and deduplicated in a set of about
200k entries, with no matgrowth code.  Each timed pass runs it, in a
child process so that its memory stays out of the pass's peak RSS, about
once a second; run.py scales every reported time by how long it took.
On a shared machine whose speed drifts, the kernel and the workload slow
down together and the drift cancels.
"""

import time


def kernel() -> float:
    start = time.perf_counter()
    p = 101
    s = {
        ((a * b) % p, (a * c + b) % p, (b * c) % p)
        for a in range(1, 60)
        for b in range(60)
        for c in range(1, 60)
    }
    del s
    return time.perf_counter() - start


if __name__ == "__main__":
    print(kernel())
