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
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Tuple

from .solver import CanonicalSdp

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


def _format_entry(k: int, blk: int, r: int, c: int, v: float) -> str:
    return f"{k} {blk + 1} {r + 1} {c + 1} " + _FMT.format(v)


def export_sdpa(problem, path: str) -> None:
    """Write a relaxation (BlockSdp or ImportedSdp) as a .dat-s file."""
    prob, offset, readout = problem.canonical()
    side = "sos" if readout == "primal" else "moment"
    m = prob.n_constraints
    lines = [f"* tssos offset=" + _FMT.format(offset) + f" side={side}"]
    lines.append(str(m))
    lines.append(str(len(prob.block_sizes)))
    lines.append(" ".join(str(s) for s in prob.block_sizes))
    lines.append(" ".join(_FMT.format(v) for v in prob.b))
    for blk, r, c, v in prob.c_entries:
        if v != 0.0:
            lines.append(_format_entry(0, blk, r, c, -v))
    for i, row in enumerate(prob.a_entries, start=1):
        for blk, r, c, v in row:
            if v != 0.0:
                lines.append(_format_entry(i, blk, r, c, v))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


_SPLIT = re.compile(r"[\s,(){}]+")


def _tokens(line: str) -> List[str]:
    return [t for t in _SPLIT.split(line.strip()) if t]


def import_sdpa(path: str) -> ImportedSdp:
    """Read a .dat-s file back into a solvable problem."""
    offset = 0.0
    side = "sos"
    data_lines: List[Tuple[int, str]] = []
    with open(path) as fh:
        for ln, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith('"') or line.startswith("*"):
                m = re.search(r"offset=([^\s]+)\s+side=(\w+)", line)
                if m:
                    offset = float(m.group(1))
                    side = m.group(2)
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

    c_entries: List[Tuple[int, int, int, float]] = []
    a_entries: List[List[Tuple[int, int, int, float]]] = [[] for _ in range(m)]
    for ln, line in data_lines[cursor:]:
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
        if not 1 <= blk <= nblock:
            raise SdpaFormatError(f"line {ln}: block index {blk} out of range 1..{nblock}")
        r, c = min(i, j) - 1, max(i, j) - 1
        if r < 0 or c >= sizes[blk - 1]:
            raise SdpaFormatError(f"line {ln}: entry ({i},{j}) outside block of size {sizes[blk - 1]}")
        if k == 0:
            c_entries.append((blk - 1, r, c, -v))
        else:
            a_entries[k - 1].append((blk - 1, r, c, v))

    for i, row in enumerate(a_entries):
        if not row:
            raise SdpaFormatError(f"constraint {i + 1} has no entries")
    prob = CanonicalSdp(
        block_sizes=sizes,
        c_entries=tuple(c_entries),
        a_entries=tuple(tuple(r) for r in a_entries),
        b=tuple(b),
    )
    return ImportedSdp(problem=prob, offset=offset, side=side)
