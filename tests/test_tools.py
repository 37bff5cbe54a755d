"""The rulers in tools/ that ROADMAP and CHANGES quote: the code-line
counter and the reach probe."""

import importlib
import importlib.util
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


code_lines = _load("code_lines")
reach = _load("reach")

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


def test_profile_reach_lists_the_function_that_no_call_entered(tmp_path, monkeypatch):
    package = tmp_path / "reach_probe_pkg"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text("def called():\n    return 1\n\n\n"
                                    "def never():\n    return 2\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    monkeypatch.delitem(sys.modules, "reach_probe_pkg", raising=False)
    monkeypatch.delitem(sys.modules, "reach_probe_pkg.mod", raising=False)
    functions, unreached = reach.profile_reach(
        package, lambda: importlib.import_module("reach_probe_pkg.mod").called())
    assert [(path.name, line, name) for path, line, _, name in functions] == [
        ("mod.py", 1, "called"), ("mod.py", 5, "never")]
    assert [name for *_, name in unreached] == ["never"]
