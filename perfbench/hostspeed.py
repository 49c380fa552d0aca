"""How fast the host runs Python right now, from a fixed reference kernel.

On a shared host the same work can take up to twice as long, in bursts
of a second or stretches of minutes, while neighbours load the machine.
The end-to-end run times this kernel between every two timed phases and
scales each phase by ``REFERENCE_S`` ÷ the mean of the kernel times on
either side of it.  The figures then read as on the unloaded reference
host, and a slow stretch moves the kernel and the program together
instead of moving the metrics.  A run prints the measured medians next
to the scaled ones.

The kernel is the benchmark's own code and never calls the program, so
no change to the program can move it.  It is pure Python (shortest paths
with ``heapq`` over a fixed graph, dict and list work), which is what
most of the program's time goes to: DEM extraction, decoder compiles,
blossom matching and per-chunk engine code.
"""

from __future__ import annotations

import heapq
import time

#: CPU seconds of one ``kernel()`` call on the unloaded reference host
#: (2 vCPUs of an Intel Xeon at 2.0 GHz, CPython 3, measured as the
#: median of 200 calls).  Only the ratio to it matters.
REFERENCE_S = 0.040

#: Nodes and out-edges per node of the kernel's graph.
NODES = 2_000
DEGREE = 4


def _graph() -> list[list[tuple[int, int]]]:
    """A fixed random graph from a linear congruential generator, so it
    depends on nothing outside this file."""
    state = 12_345
    adjacency: list[list[tuple[int, int]]] = []
    for _ in range(NODES):
        edges = []
        for _ in range(DEGREE):
            state = (state * 1_103_515_245 + 12_345) % 2**31
            edges.append((state % NODES, 1 + (state >> 16) % 97))
        adjacency.append(edges)
    return adjacency


GRAPH = _graph()


def kernel() -> int:
    """Shortest-path distances from 16 sources; returns a checksum."""
    total = 0
    for source in range(0, NODES, 125):
        dist = {source: 0}
        heap = [(0, source)]
        while heap:
            d, node = heapq.heappop(heap)
            if d > dist[node]:
                continue
            for neighbour, weight in GRAPH[node]:
                nd = d + weight
                if nd < dist.get(neighbour, 1 << 60):
                    dist[neighbour] = nd
                    heapq.heappush(heap, (nd, neighbour))
        total += sum(dist.values())
    return total


def time_kernel() -> float:
    """CPU seconds of one kernel call."""
    started = time.process_time()
    kernel()
    return time.process_time() - started


def scaled(
    times: list[float], before: list[float], after: list[float]
) -> list[float]:
    """Each time scaled to the reference host's speed by the kernel
    times measured just before and just after it."""
    return [
        t * 2.0 * REFERENCE_S / (b + a) for t, b, a in zip(times, before, after)
    ]
