"""The Schur build with a scatter index for every chunk, M's rows the constraints in order.

Each chunk's index into M's buffer is formed here from the layout's rows,
read back into constraint order; the whole buffer, spare cell included,
is zeroed, and each chunk's readout is added in through its index.  The
tests hold the package's build to this.  That build holds an index only
for the chunks that are not strips, adds the strip block's readout
straight into rows of M and may number M's rows by that block's slots,
yet fills the same cells of M's lower triangle, bit for bit, once read
through M's order (the layout's mat.order).
"""

import numpy as np

from tssos.solver import _readout


def scatter_index(rows, i0, i1, m):
    """The index of a chunk: rows (nb, k) of its blocks, its slots i0..i1, m constraints.

    The lower-triangle cell of each pair (j, i) of the readout when j is
    not below i in slot order and both are real, the spare cell m*m
    otherwise.
    """
    rows = rows.astype(np.int64)
    ci, cj = rows[:, None, i0:i1], rows[:, i0:, None]
    lo, hi = np.minimum(ci, cj), np.maximum(ci, cj)
    upper = np.arange(rows.shape[1] - i0)[:, None] >= np.arange(i1 - i0)
    return np.where(upper & (hi < m), hi * m + lo, m * m).ravel()


def held_index_schur(lay, xs, sinvs):
    """M, its rows the constraints in order, built by lay's chunks into a fresh zeroed buffer."""
    m = lay.m
    held = []
    for cl in lay.classes:
        # the classes hold rows of M; padding slots hold m
        rows = np.append(lay.mat.order, m)[cl.rows]
        held.append([scatter_index(rows[ch.blocks], ch.slots.start, ch.slots.stop, m)
                     for ch in cl.chunks])
    acc = np.zeros(m * m + 1)
    for cl, dests, x, sinv in zip(lay.classes, held, xs, sinvs):
        s = cl.size
        xf, sf = x.reshape(-1, s), sinv.reshape(-1, s)  # the chunks' rows index the whole class
        for ch, dest in zip(cl.chunks, dests):
            nb, kc = ch.v.shape[:2]
            xg = xf[ch.xrow] * ch.v
            t = np.matmul(xg.swapaxes(-1, -2), sf[ch.srow])
            tt = np.ascontiguousarray(t.reshape(nb, kc, s * s).swapaxes(1, 2))
            out = np.empty((ch.w.shape[0], kc))
            _readout(ch.w, tt.reshape(-1, kc), out)
            np.add.at(acc, dest, out.ravel())
    return acc[:m * m].reshape(m, m)
