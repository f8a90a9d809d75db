import struct
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from linkgraph import DirectedGraph

# 8-node fixture: a 3-cycle core with one feeder, one drain, a tendril,
# a tube, and an isolated node. Hand-classified:
#   SCC {1,2,3}, IN {0}, OUT {4}, TENDRIL {5}, TUBE {6}, DISC {7}
TOY8_EDGES = [(0, 1), (1, 2), (2, 3), (3, 1), (3, 4), (0, 5), (0, 6), (6, 4)]
TOY8_N = 8


@pytest.fixture
def toy8():
    src = np.array([u for u, _ in TOY8_EDGES])
    dst = np.array([v for _, v in TOY8_EDGES])
    return DirectedGraph.from_edges(TOY8_N, src, dst)


def graph_of(n, edges):
    src = np.array([u for u, _ in edges], dtype=np.int64)
    dst = np.array([v for _, v in edges], dtype=np.int64)
    return DirectedGraph.from_edges(n, src, dst)


@pytest.fixture
def make_graph():
    return graph_of


# cache v2 layout: 32-byte header (crc32 of the payload at bytes 12..16),
# then fwd_offsets (n+1)*i64, fwd_targets m*i32 and the optional ids
CACHE_HEADER = 32


def cache_targets_at(n: int) -> int:
    """Byte offset of the first forward target in an n-node cache."""
    return CACHE_HEADER + 8 * (n + 1)


def v1_cache(g) -> bytes:
    """The graph in the version 1 layout: both CSR directions, 64-bit
    flags and no checksum."""
    arrays = ((g.fwd_offsets, "<i8"), (g.rev_offsets, "<i8"),
              (g.fwd_targets, "<i4"), (g.rev_sources, "<i4"))
    return struct.pack("<4sIQQQ", b"WGLB", 1, 0, g.node_count, g.edge_count) + b"".join(
        np.ascontiguousarray(a, dtype=dt).tobytes() for a, dt in arrays
    )


def reseal(blob) -> bytes:
    """The cache bytes with the header checksum recomputed, so that a
    mutated payload reaches the structural check it is aimed at."""
    blob = bytearray(blob)
    blob[12:16] = zlib.crc32(bytes(blob[CACHE_HEADER:])).to_bytes(4, "little")
    return bytes(blob)
