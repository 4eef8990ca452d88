import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tssos.assembly import assemble, solve_relaxation
from tssos.basis import standard_basis
from tssos.bench import RunOptions, build_relaxation
from tssos.graphs import CliqueDecomposition
from tssos.poly import PopProblem, parse_polynomial, parse_pop
from tssos.sdpa import ImportedSdp, SdpaFormatError, export_sdpa, import_sdpa
from tssos.solver import solve_canonical

from sdp_tables import assert_same_table, canonical_sdp, entry_rows

DATA = os.path.join(os.path.dirname(__file__), "data")


def quadratic_sdp(side="sos"):
    f = parse_polynomial("x1^2 - 2*x1 + 3", 1)
    return assemble(PopProblem(f), [CliqueDecomposition.whole(standard_basis(1, 1))], side=side)


def test_export_matches_golden_file(tmp_path):
    path = tmp_path / "out.dat-s"
    export_sdpa(quadratic_sdp(), str(path))
    with open(os.path.join(DATA, "quadratic_1d.dat-s"), "rb") as fh:
        golden = fh.read()
    assert path.read_bytes() == golden


@pytest.mark.parametrize("side", ["sos", "moment"])
def test_round_trip_preserves_problem(tmp_path, side):
    sdp = quadratic_sdp(side)
    prob, offset, readout = sdp.canonical()
    path = tmp_path / "rt.dat-s"
    export_sdpa(sdp, str(path))
    back = import_sdpa(str(path))
    assert back.side == side
    assert back.offset == offset
    assert tuple(back.block_sizes) == prob.block_sizes
    for col in ("b", "k", "blk", "r", "c", "v"):
        assert np.array_equal(getattr(back.problem, col), getattr(prob, col)), col
    assert back.canonical()[2] == readout


@pytest.mark.parametrize("side, a_entries, b", [
    ("sos", (((0, 0, 1, 1.0),), ((0, 1, 1, 1.0),)), (-2.0, 1.0)),
    ("moment", (((0, 0, 1, -1.0),), ((0, 1, 1, -1.0),)), (2.0, -1.0)),
])
def test_entry_tuples_read_by_the_tracer(side, a_entries, b):
    # perfbench/spans.py counts blocks, rows and entries off these tuples
    prob = quadratic_sdp(side).canonical()[0]
    assert prob.c_entries == ((0, 0, 0, 1.0),)
    assert prob.a_entries == a_entries
    assert prob.b.tolist() == list(b)


def test_round_trip_reproduces_bound(tmp_path):
    pop = parse_pop("vars 2\nx1^2*x2^2 - x1*x2 + 1\nsubject to\n1 - x1^2 - x2^2\n")
    sdp = assemble(pop, build_relaxation(pop, RunOptions(order=2, dense=True)).cliques(1))
    direct = solve_relaxation(sdp)
    path = tmp_path / "ball.dat-s"
    export_sdpa(sdp, str(path))
    back = import_sdpa(str(path))
    prob, offset, readout = back.canonical()
    sol = solve_canonical(prob)
    value = sol.primal_obj if readout == "primal" else sol.dual_obj
    assert sol.status == "optimal"
    assert abs((offset - value) - direct.bound) < 1e-12


def test_seventeen_digit_coefficients_survive(tmp_path):
    f = parse_polynomial("0.1*x1^2 + 0.30000000000000004*x1 + 1", 1)
    sdp = assemble(PopProblem(f), [CliqueDecomposition.whole(standard_basis(1, 1))])
    path = tmp_path / "digits.dat-s"
    export_sdpa(sdp, str(path))
    back = import_sdpa(str(path))
    assert sorted(back.problem.b.tolist()) == [0.1, 0.30000000000000004]


def test_comments_and_blank_lines_skipped(tmp_path):
    text = (
        '" classic comment line\n'
        "* another comment\n"
        "\n"
        "1\n"
        "* mid-file comment\n"
        "1\n"
        "2\n"
        "1.5\n"
        "0 1 1 1 -1\n"
        "1 1 1 2 0.5\n"
    )
    path = tmp_path / "c.dat-s"
    path.write_text(text)
    back = import_sdpa(str(path))
    assert back.offset == 0.0 and back.side == "sos"  # defaults
    assert back.block_sizes == [2]
    assert back.problem.b.tolist() == [1.5]


def test_braced_and_comma_separated_lines(tmp_path):
    text = "2\n1\n{2}\n{0.5, -1.0}\n0 1 1 1 -3\n1 1 1 1 1\n2 1 1 2 1\n"
    path = tmp_path / "braces.dat-s"
    path.write_text(text)
    back = import_sdpa(str(path))
    assert back.problem.b.tolist() == [0.5, -1.0]
    assert entry_rows(back.problem)[0] == [(0, 0, 0, 3.0)]


def test_rhs_may_span_lines(tmp_path):
    text = "3\n1\n2\n1.0 2.0\n3.0\n0 1 1 1 -1\n1 1 1 1 1\n2 1 1 2 1\n3 1 2 2 1\n"
    path = tmp_path / "span.dat-s"
    path.write_text(text)
    assert import_sdpa(str(path)).problem.b.tolist() == [1.0, 2.0, 3.0]


def test_negative_block_size_treated_as_psd(tmp_path):
    text = "1\n2\n2 -3\n1.0\n0 1 1 1 -1\n1 2 2 2 1\n"
    path = tmp_path / "neg.dat-s"
    path.write_text(text)
    back = import_sdpa(str(path))
    assert back.block_sizes == [2, 3]
    sol = solve_canonical(back.problem)
    assert sol.status == "optimal"


def test_lower_triangle_entries_normalized(tmp_path):
    text = "1\n1\n2\n1.0\n0 1 2 1 -1\n1 1 2 1 1\n"
    path = tmp_path / "lower.dat-s"
    path.write_text(text)
    back = import_sdpa(str(path))
    assert entry_rows(back.problem) == [[(0, 0, 1, 1.0)], [(0, 0, 1, 1.0)]]


def test_block_sizes_beyond_int64_accepted(tmp_path):
    path = tmp_path / "huge.dat-s"
    path.write_text("1\n1\n" + "9" * 25 + "\n1.0\n1 1 1 1 1\n")
    back = import_sdpa(str(path))
    assert back.block_sizes == [int("9" * 25)]
    assert entry_rows(back.problem) == [[], [(0, 0, 0, 1.0)]]


def test_empty_problem_round_trips(tmp_path):
    path = tmp_path / "empty.dat-s"
    path.write_text("0\n0\n")
    back = import_sdpa(str(path))
    assert back.problem.block_sizes == ()
    assert solve_canonical(back.problem).status == "optimal"


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("", "file ends"),
        ("2\n", "file ends"),
        ("1\n1\n", "file ends before the block size"),
        ("x\n1\n2\n", "line 1"),
        ("1\nx\n2\n", "line 2"),
        ("1\n1\n2 2\n", "line 3"),
        ("1\n1\nbad\n", "line 3"),
        ("2\n1\n2\n1.0\n", "expected 2 right-hand sides"),
        ("1\n1\n2\n1.0 2.0\n", "right-hand sides for mDIM"),
        ("1\n1\n2\n1.0\n1 1 1 1\n", "line 5"),
        ("1\n1\n2\n1.0\n1 1 1 1 x\n", "line 5"),
        ("1\n1\n2\n1.0\n3 1 1 1 1\n", "matrix index 3"),
        ("1\n1\n2\n1.0\n1 2 1 1 1\n", "block index 2"),
        ("1\n1\n2\n1.0\n1 1 1 3 1\n", "outside block"),
        ("1\n1\n2\n1.0\n0 1 1 1 -1\n", "constraint 1 has no entries"),
        ("1\n1\n" + "9" * 25 + "\n1.0\n1 1 1 " + "9" * 20 + " 1\n", "line 5"),
        ("* tssos offset=abc side=sos\n1\n1\n2\n1.0\n1 1 1 1 1\n", "line 1: bad offset 'abc'"),
        ("1\n1\n* tssos offset=0 side=SOS\n2\n1.0\n1 1 1 1 1\n", "line 3: side must be sos or moment"),
    ],
)
def test_malformed_files_report_location(tmp_path, text, fragment):
    path = tmp_path / "bad.dat-s"
    path.write_text(text)
    with pytest.raises(SdpaFormatError) as err:
        import_sdpa(str(path))
    assert fragment in str(err.value)


def test_non_utf8_file_reports_location(tmp_path):
    path = tmp_path / "bytes.dat-s"
    path.write_bytes(b"1\n1\n2\n1.0\n1 1 1 1 \xff\n")
    with pytest.raises(SdpaFormatError, match="line 5"):
        import_sdpa(str(path))


# -- fuzzing ---------------------------------------------------------------------

NUMBERS = st.floats(allow_nan=False)


@st.composite
def imported_problems(draw):
    """A random problem with nonzero entries (export drops zeros), as an ImportedSdp."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))

    def entries(lo, hi):
        out = []
        for _ in range(draw(st.integers(lo, hi))):
            blk = draw(st.integers(0, len(sizes) - 1))
            r = draw(st.integers(0, sizes[blk] - 1))
            c = draw(st.integers(r, sizes[blk] - 1))
            out.append((blk, r, c, draw(NUMBERS.filter(lambda v: v != 0.0))))
        return tuple(out)

    m = draw(st.integers(0, 5))
    prob = canonical_sdp(
        block_sizes=tuple(sizes),
        c_entries=entries(0, 4),
        a_entries=tuple(entries(1, 4) for _ in range(m)),
        b=tuple(draw(st.lists(NUMBERS, min_size=m, max_size=m))),
    )
    return ImportedSdp(problem=prob, offset=draw(NUMBERS), side=draw(st.sampled_from(["sos", "moment"])))


def _exported_lines(tmp_path_factory, problem):
    path = tmp_path_factory.mktemp("fuzz") / "p.dat-s"
    export_sdpa(problem, str(path))
    return path, path.read_text().split("\n")


def _same(back, problem):
    # compared bit for bit, so -0.0 is not 0.0 and every double is exact
    assert_same_table(back.problem, problem.problem)
    assert (repr(back.offset), back.side) == (repr(problem.offset), problem.side)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(imported_problems(), st.randoms(use_true_random=False))
def test_import_reproduces_exported_problems(tmp_path_factory, problem, rng):
    path, lines = _exported_lines(tmp_path_factory, problem)
    back = import_sdpa(str(path))
    _same(back, problem)
    path.write_text("\n".join(lines))
    _same(import_sdpa(str(path)), back)
    # the same data written as other writers do: lower-triangle entries,
    # braces and commas, and the right-hand sides spread over lines
    head, rhs, body = lines[:4], lines[4].split(), lines[5:]
    for i, line in enumerate(body):
        toks = line.split()
        if toks and rng.random() < 0.5:
            toks[2], toks[3] = toks[3], toks[2]
        body[i] = ", ".join(toks) if rng.random() < 0.3 else " ".join(toks)
    head[3] = "{" + ", ".join(head[3].split()) + "}"
    cuts = sorted(rng.randint(0, len(rhs)) for _ in range(2))
    spread = [rhs[:cuts[0]], rhs[cuts[0]:cuts[1]], rhs[cuts[1]:]]
    spread = [" ".join(spread[0]), "(" + ",".join(spread[1]) + ")", " ".join(spread[2])]
    path.write_text("\n".join(head + [line for line in spread if line != "()"] + body))
    _same(import_sdpa(str(path)), problem)


PIECES = ["0", "1", "-", ".", "e", "9" * 25, " ", "\n", "\t", "\r", ",", "{", "}", "(", ")", "*",
          '"', "x", "nan", "inf", "1_0", "\u0661", "\xa0", "offset=", " side=", "moment", "sos"]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(imported_problems(), st.lists(st.tuples(st.integers(0, 3), st.integers(0, 10 ** 6),
                                               st.sampled_from(PIECES)), min_size=1, max_size=4),
       st.booleans())
def test_mutated_files_fail_only_with_format_errors(tmp_path_factory, problem, edits, bad_byte):
    path, lines = _exported_lines(tmp_path_factory, problem)
    text = "\n".join(lines)
    for op, at, piece in edits:
        at %= len(text) + 1
        if op == 0:  # insert
            text = text[:at] + piece + text[at:]
        elif op == 1:  # delete a few characters
            text = text[:at] + text[at + len(piece):]
        elif op == 2:  # overwrite
            text = text[:at] + piece + text[at + len(piece):]
        else:  # drop or repeat a line
            rows = text.split("\n")
            i = at % len(rows)
            rows[i:i + 1] = [] if len(piece) % 2 else [rows[i], rows[i]]
            text = "\n".join(rows)
    data = text.encode()
    if bad_byte:
        data = data[: len(data) // 2] + b"\xfe" + data[len(data) // 2:]
    path.write_bytes(data)
    try:
        import_sdpa(str(path))
    except SdpaFormatError:
        pass
