"""A fixed kernel that measures how fast the machine runs right now.

The benchmark's host is a few cores of a shared machine whose speed drifts:
the same solve takes 1.5-2x longer for stretches of seconds to minutes, and
process CPU time drifts with wall time, so neither removes it.  Each
execution therefore runs a pass of this kernel just before and just after
the command, in the same process, and ``wall_norm_s`` rescales the command's
wall time to a machine on which the kernel takes ``REFERENCE_S``.  The
kernel does not touch ``snmesh``, so a change to the program cannot move it.

Its mix follows the solver's: small dense products and transcendentals,
Python loops over small array slices, and dict and list work, with BLAS on
one thread.  Each part tracks a different kind of slowdown best; together
they follow the solver's speed closer than any one of them.
"""

import time

import numpy as np

# Kernel seconds that ``wall_norm_s`` is stated against; about what one pass
# takes on the 2-vCPU Xeon the benchmark was tuned on.
REFERENCE_S = 0.25
ROUNDS = 1100
_A = np.linspace(0.0, 1.0, 64 * 64).reshape(64, 64) / 64.0
_V = np.linspace(-1.0, 1.0, 4096)


def _round(x, v, table):
    x = np.tanh(_A @ x)
    v = np.exp(-v * v) + 0.5 * v[::-1]
    for j in range(8):
        v[j::8] = np.sin(v[j::8]) + x[j, j]
    for i in range(200):
        table[i] = table.get(i - 1, 0.0) * 0.5 + i
    return x, v


def kernel_seconds(rounds=ROUNDS):
    """Wall seconds of one pass of the kernel."""
    start = time.perf_counter()
    x, v, table = _A.copy(), _V.copy(), {}
    for _ in range(rounds):
        x, v = _round(x, v, table)
    elapsed = time.perf_counter() - start
    if not (np.isfinite(x).all() and np.isfinite(v).all()):
        raise RuntimeError("calibration kernel produced a non-finite value")
    return elapsed
