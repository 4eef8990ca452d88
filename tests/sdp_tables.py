"""Canonical SDP tables built from and read as entry tuples, for the tests.

An entry tuple is (block, row, col, value) with row <= col.
"""

import numpy as np

from tssos.solver import CanonicalSdp

COLUMNS = ("b", "k", "blk", "r", "c", "v")


def canonical_sdp(block_sizes, c_entries, a_entries, b):
    """The table of C's entries and of one entry tuple per constraint."""
    rows = [c_entries, *a_entries]
    k = np.repeat(np.arange(len(rows)), [len(row) for row in rows])
    table = np.array([e for row in rows for e in row], dtype=float).reshape(-1, 4)
    blk, r, c = (table[:, j].astype(np.int64) for j in range(3))
    return CanonicalSdp(tuple(block_sizes), np.array(b, dtype=float), k, blk, r, c, table[:, 3])


def entry_rows(prob):
    """The entry tuples of F_0 = C, F_1 = A_1, ..., F_m = A_m, one list each."""
    rows = [[] for _ in range(prob.n_constraints + 1)]
    for k, *entry in zip(*(getattr(prob, col).tolist() for col in COLUMNS[1:])):
        rows[k].append(tuple(entry))
    return rows


def assert_same_table(got, want):
    """Equal block sizes, and every column equal bit for bit (so -0.0 is not 0.0)."""
    assert got.block_sizes == want.block_sizes
    for col in COLUMNS:
        a, b = getattr(got, col), getattr(want, col)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), col
