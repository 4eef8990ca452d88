"""Reading and writing SDPA sparse (.dat-s) files.

The exported problem is the canonicalized standard form

    min <C, X>  s.t.  <A_i, X> = b_i,  X >= 0 block diagonal,

encoded with the usual .dat-s conventions: mDIM, nBLOCK, block sizes, the
right-hand sides, then one ``k blk i j v`` line per upper-triangle entry with
1-based indices, where k = 0 carries F_0 = -C (the sign swap accounts for the
format's maximize-vs-minimize orientation) and k >= 1 carries A_k.  Numbers
are %g-style with enough digits to round-trip a double exactly, and entries
keep the problem's order, so a re-imported problem is the same data summed
in the same order.

A leading comment line records the constant offset and the readout side so a
re-imported file reproduces the same bound; foreign solvers ignore comments.
Negative block sizes (the format's diagonal-block convention) are accepted on
import and treated as ordinary PSD blocks, which changes nothing when every
data entry on such a block is diagonal.

Entry lines are written and read a column at a time: each distinct number is
formatted once on export, and numpy parses and range-checks the entry
section on import.  A malformed file, a header offset that is not a number
and a header side other than sos or moment included, raises SdpaFormatError
naming the first bad line.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

import numpy as np

from .solver import _INT64_MAX, CanonicalSdp, _capped_sizes

_FMT = "{:.17g}"


class SdpaFormatError(ValueError):
    pass


@dataclass
class ImportedSdp:
    """A problem read back from a .dat-s file, solvable like a BlockSdp."""

    problem: CanonicalSdp
    offset: float
    side: str

    def canonical(self) -> Tuple[CanonicalSdp, float, str]:
        readout = "primal" if self.side == "sos" else "dual"
        return self.problem, self.offset, readout

    @property
    def block_sizes(self) -> List[int]:
        return list(self.problem.block_sizes)

    @property
    def n_equalities(self) -> int:
        return self.problem.n_constraints


def _text_column(values: np.ndarray, fmt: Callable[[object], str]) -> List[str]:
    """fmt of every value, each distinct value formatted once."""
    distinct, inverse = np.unique(values, return_inverse=True)
    text = list(map(fmt, distinct.tolist()))
    return list(map(text.__getitem__, inverse.ravel().tolist()))


def export_sdpa(problem, path: str) -> None:
    """Write a relaxation (BlockSdp or ImportedSdp) as a .dat-s file."""
    prob, offset, readout = problem.canonical()
    side = "sos" if readout == "primal" else "moment"
    m = prob.n_constraints
    lines = [f"* tssos offset=" + _FMT.format(offset) + f" side={side}"]
    lines.append(str(m))
    lines.append(str(len(prob.block_sizes)))
    lines.append(" ".join(str(s) for s in prob.block_sizes))
    lines.append(" ".join(map(_FMT.format, prob.b.tolist())))
    # one "k blk i j v" line per nonzero entry: F_0 = -C first, then A_1, ..., A_m
    v = np.where(prob.k == 0, -prob.v, prob.v)
    keep = v != 0.0
    columns = [_text_column(col[keep], str) for col in (prob.k, prob.blk + 1, prob.r + 1, prob.c + 1)]
    columns.append(_text_column(v[keep], _FMT.format))
    lines.extend(map(" ".join, zip(*columns)))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


_SPLIT = re.compile(r"[\s,(){}]+")
_DELIMS = str.maketrans(",(){}", "     ")
_HEADER = re.compile(r"offset=([^\s]+)\s+side=(\w+)")
_ENTRY = np.dtype([("k", np.int64), ("blk", np.int64), ("i", np.int64), ("j", np.int64), ("v", np.float64)])


def _tokens(line: str) -> List[str]:
    return [t for t in _SPLIT.split(line.strip()) if t]


def _parse_entry(ln: int, line: str, m: int, sizes: Sequence[int]) -> Tuple[int, int, int, int, float]:
    """One 'k blk i j v' line as (k, blk, i, j, v), checked; raises SdpaFormatError."""
    toks = _tokens(line)
    if len(toks) != 5:
        raise SdpaFormatError(f"line {ln}: expected 'k blk i j v', got {line!r}")
    try:
        k, blk, i, j = (int(t) for t in toks[:4])
        v = float(toks[4])
    except ValueError:
        raise SdpaFormatError(f"line {ln}: bad entry {line!r}") from None
    if not 0 <= k <= m:
        raise SdpaFormatError(f"line {ln}: matrix index {k} out of range 0..{m}")
    if not 1 <= blk <= len(sizes):
        raise SdpaFormatError(f"line {ln}: block index {blk} out of range 1..{len(sizes)}")
    if min(i, j) < 1 or max(i, j) > sizes[blk - 1]:
        raise SdpaFormatError(f"line {ln}: entry ({i},{j}) outside block of size {sizes[blk - 1]}")
    if max(i, j) > _INT64_MAX:
        raise SdpaFormatError(f"line {ln}: entry ({i},{j}) beyond 64-bit indices")
    return k, blk, i, j, v


def _entry_columns(lines: List[Tuple[int, str]], m: int, sizes: Sequence[int]) -> List[np.ndarray]:
    """The k, blk, i, j, v columns of the entry lines [(line number, text)].

    numpy parses and range-checks the whole section at once; should anything
    be off, the lines are parsed one by one instead, which names the first
    bad line, or accepts what numpy's stricter number syntax refused.
    """
    if not lines:
        return [np.zeros(0, dtype=_ENTRY[f]) for f in _ENTRY.names]
    texts = [line for _, line in lines]
    joined = "\n".join(texts)
    if any(ch in joined for ch in ",(){}"):
        texts = joined.translate(_DELIMS).split("\n")
    try:
        table = np.loadtxt(texts, dtype=_ENTRY, comments=None, ndmin=1)
    except (ValueError, OverflowError):
        table = None
    if table is not None and len(table) == len(lines):
        k, blk, i, j = (table[f] for f in _ENTRY.names[:4])
        ok = (0 <= k) & (k <= m) & (1 <= blk) & (blk <= len(sizes))
        size = _capped_sizes(sizes)[np.where(ok, blk - 1, 0)] if sizes else 0
        if (ok & (np.minimum(i, j) >= 1) & (np.maximum(i, j) <= size)).all():
            return [table[f] for f in _ENTRY.names]
    parsed = [_parse_entry(ln, line, m, sizes) for ln, line in lines]
    return [np.array(col, dtype=_ENTRY[f]) for f, col in zip(_ENTRY.names, zip(*parsed))]


def import_sdpa(path: str) -> ImportedSdp:
    """Read a .dat-s file back into a solvable problem."""
    offset = 0.0
    side = "sos"
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise SdpaFormatError(f"line {line}: not UTF-8 text") from None
    data_lines: List[Tuple[int, str]] = []
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for ln, line in enumerate(map(str.strip, lines), start=1):
        if not line:
            continue
        if line[0] in "\"*":
            header = _HEADER.search(line)
            if header:
                try:
                    offset = float(header.group(1))
                except ValueError:
                    raise SdpaFormatError(f"line {ln}: bad offset {header.group(1)!r}") from None
                side = header.group(2)
                if side not in ("sos", "moment"):
                    raise SdpaFormatError(f"line {ln}: side must be sos or moment, got {side!r}")
            continue
        data_lines.append((ln, line))

    if len(data_lines) < 2:
        last = data_lines[-1][0] if data_lines else 0
        raise SdpaFormatError(f"line {last}: file ends before the nBLOCK line")

    def parse_int(pos: int, what: str) -> int:
        ln, line = data_lines[pos]
        toks = _tokens(line)
        try:
            return int(toks[0])
        except (ValueError, IndexError):
            raise SdpaFormatError(f"line {ln}: expected {what}, got {line!r}") from None

    m = parse_int(0, "the constraint count mDIM")
    nblock = parse_int(1, "the block count nBLOCK")
    if nblock == 0:
        sizes: Tuple[int, ...] = ()
        cursor = 2
    else:
        if len(data_lines) < 3:
            raise SdpaFormatError(f"line {data_lines[-1][0]}: file ends before the block size line")
        ln_sizes, sizes_line = data_lines[2]
        try:
            raw_sizes = [int(t) for t in _tokens(sizes_line)]
        except ValueError:
            raise SdpaFormatError(f"line {ln_sizes}: bad block size line {sizes_line!r}") from None
        if len(raw_sizes) != nblock:
            raise SdpaFormatError(f"line {ln_sizes}: expected {nblock} block sizes, got {len(raw_sizes)}")
        sizes = tuple(abs(s) for s in raw_sizes)
        cursor = 3
    b: List[float] = []
    while len(b) < m and cursor < len(data_lines):
        ln, line = data_lines[cursor]
        try:
            b.extend(float(t) for t in _tokens(line))
        except ValueError:
            raise SdpaFormatError(f"line {ln}: bad right-hand side line {line!r}") from None
        cursor += 1
    if len(b) < m:
        raise SdpaFormatError(f"line {data_lines[-1][0]}: expected {m} right-hand sides, found {len(b)}")
    if len(b) > m:
        raise SdpaFormatError(f"line {data_lines[cursor - 1][0]}: {len(b)} right-hand sides for mDIM {m}")

    k, blk, i, j, v = _entry_columns(data_lines[cursor:], m, sizes)
    order = np.argsort(k, kind="stable")
    k, blk, i, j, v = (col[order] for col in (k, blk, i, j, v))
    counts = np.bincount(k, minlength=m + 1)[1:]
    if not counts.all():
        raise SdpaFormatError(f"constraint {int(np.argmin(counts)) + 1} has no entries")
    prob = CanonicalSdp(sizes, np.array(b, dtype=float), k, blk - 1, np.minimum(i, j) - 1,
                        np.maximum(i, j) - 1, np.where(k == 0, -v, v))
    return ImportedSdp(problem=prob, offset=offset, side=side)
