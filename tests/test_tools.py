"""The code-line counter in tools/, the ruler that ROADMAP and CHANGES quote."""

import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"

_spec = importlib.util.spec_from_file_location("code_lines", TOOLS / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

#: a module whose code lines are the ones marked `# code`: docstrings,
#: comment-only lines and blank lines do not count
MODULE = '''"""Module docstring
on two lines."""

# a comment-only line
import os  # code


class Thing:  # code
    """Class docstring."""

    def method(self):  # code
        """Method docstring,
        on two lines."""
        # another comment
        return os.path.join(  # code
            "a",  # code
            "b",  # code
        )  # code
'''

FUNCTION = '''def function():
    "Function docstring."

    value = 1
    "a string expression, not a docstring"
    return value
'''


def test_code_lines_skips_docstrings_comments_and_blank_lines(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(MODULE)
    assert code_lines.code_lines(path) == MODULE.count("# code") == 7
    path.write_text(FUNCTION)
    # def, the assignment, the string expression and the return
    assert code_lines.code_lines(path) == 4


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "mod.py").write_text(MODULE)
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "fn.py").write_text(FUNCTION)
    (tmp_path / "__init__.py").write_text('"""Package docstring."""\n')
    code_lines.main([str(tmp_path)])
    assert capsys.readouterr().out == ("     0  __init__.py\n"
                                       "     7  mod.py\n"
                                       "     4  sub/fn.py\n"
                                       "    11  total\n")
