"""The code-line counter in tools/code_lines.py."""

import importlib.util
import os
import textwrap

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location("code_lines", os.path.join(ROOT, "tools", "code_lines.py"))
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)


def test_blank_comment_and_docstring_lines_are_skipped():
    source = textwrap.dedent('''\
        """Module docstring,
        over two lines."""

        # a comment
        import os  # a trailing comment: the line counts


        class A:
            """Class docstring."""

            def f(self, x):
                """Function docstring.

                More.
                """
                text = """a string that is
                not a docstring"""
                return (x +
                        1)
        ''')
    # import, class, def, the two lines of text's string, return and its continuation
    assert code_lines.code_lines(source) == 7


def test_the_package_counts_per_file_and_in_total(capsys):
    assert code_lines.main(["code_lines.py", os.path.join(ROOT, "src", "tssos")]) == 0
    out = capsys.readouterr().out.splitlines()
    counts = [int(line.split()[0]) for line in out]
    assert out[-1].endswith("total") and counts[-1] == sum(counts[:-1]) > 0
    assert any(line.endswith("solver.py") for line in out)
