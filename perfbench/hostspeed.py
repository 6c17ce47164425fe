"""The host's speed, measured next to every timed call.

The benchmark runs on a few vCPUs of a shared machine.  Each vCPU
switches, every fraction of a second to every few tens of seconds,
between a fast state and one about 1.7 times slower, in CPU time as
well as wall time; a slow state can last a whole run.  Taking the best
of several passes removes the short slow phases, not the long ones, so
wall times alone spread by 20-30% between runs of the same code.

So every timed call is bracketed by probes: a fixed pure-Python job of
the same kind as the package's own work (dict updates keyed by tuples,
small sorts, integer arithmetic), run on the same vCPU just before and
just after the call.  A call's scaled time is

    wall time * NOMINAL_MS / (mean of the two probe times)

the time it would have taken with the host at the probe's nominal
speed.  Probing costs about 1.5-2.5 ms a call, outside every timed
window.  A change to the program moves the wall time and not the
probes, so it moves the scaled time in full; a change of the host's
state moves both and cancels.  The bracket follows the state closely
for calls of up to some tens of milliseconds; longer calls can straddle
a switch, and the medians over passes take that out.
"""

from __future__ import annotations

from time import perf_counter

# The probe's time in the fast state of a 2-vCPU KVM guest on a Xeon
# (Sapphire Rapids) host.  Only a scale: metrics are compared between
# runs on one machine.
NOMINAL_MS = 0.75


def _job() -> int:
    acc: dict = {}
    total = 0
    for i in range(300):
        key = (i % 11, i % 7, i % 5)
        acc[key] = acc.get(key, 0) + i * 3
        perm = [(i * 7 + j) % 9 for j in range(9)]
        perm.sort()
        total += sum(v for v in perm if v & 1)
    for key, value in sorted(acc.items()):
        total ^= hash(key) + value
    return total


def probe() -> float:
    """Milliseconds the fixed job takes now, on this vCPU: the lower of
    two runs, so that one interrupt does not pass for a slow state."""
    times = []
    for _ in range(2):
        start = perf_counter()
        _job()
        times.append(perf_counter() - start)
    return min(times) * 1000.0


def scale(ms: float, before: float, after: float) -> float:
    """A call's time at nominal speed, from the probes around it."""
    return ms * NOMINAL_MS * 2.0 / (before + after)
