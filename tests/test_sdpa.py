import os

import pytest

from tssos.assembly import assemble, solve_relaxation
from tssos.basis import standard_basis
from tssos.bench import RunOptions, build_relaxation
from tssos.graphs import CliqueDecomposition
from tssos.poly import PopProblem, parse_polynomial, parse_pop
from tssos.sdpa import SdpaFormatError, export_sdpa, import_sdpa
from tssos.solver import solve_canonical

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
    assert back.problem.b == prob.b
    assert set(back.problem.c_entries) == set(prob.c_entries)
    assert [set(r) for r in back.problem.a_entries] == [set(r) for r in prob.a_entries]
    assert back.canonical()[2] == readout


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
    assert sorted(back.problem.b) == [0.1, 0.30000000000000004]


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
    assert back.problem.b == (1.5,)


def test_braced_and_comma_separated_lines(tmp_path):
    text = "2\n1\n{2}\n{0.5, -1.0}\n0 1 1 1 -3\n1 1 1 1 1\n2 1 1 2 1\n"
    path = tmp_path / "braces.dat-s"
    path.write_text(text)
    back = import_sdpa(str(path))
    assert back.problem.b == (0.5, -1.0)
    assert back.problem.c_entries == ((0, 0, 0, 3.0),)


def test_rhs_may_span_lines(tmp_path):
    text = "3\n1\n2\n1.0 2.0\n3.0\n0 1 1 1 -1\n1 1 1 1 1\n2 1 1 2 1\n3 1 2 2 1\n"
    path = tmp_path / "span.dat-s"
    path.write_text(text)
    assert import_sdpa(str(path)).problem.b == (1.0, 2.0, 3.0)


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
    assert back.problem.c_entries == ((0, 0, 1, 1.0),)
    assert back.problem.a_entries == (((0, 0, 1, 1.0),),)


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
    ],
)
def test_malformed_files_report_location(tmp_path, text, fragment):
    path = tmp_path / "bad.dat-s"
    path.write_text(text)
    with pytest.raises(SdpaFormatError) as err:
        import_sdpa(str(path))
    assert fragment in str(err.value)
