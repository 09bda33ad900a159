"""The code-line counter of ``tools/code_lines.py``, which the size figures
in CHANGES.md and ROADMAP.md come from."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

# every line marked "code" is a code line; no other line is
SOURCE = '''"""Module docstring,
over two lines."""

# a comment
import math  # code


class Thing:
    """Class docstring."""

    size = 2  # code

    def area(self):  # code
        """Function
        docstring."""
        text = """a string that is
        not a docstring"""  # code, both lines
        return (self.size  # code
                * math.pi)  # code

'''


def test_counts_code_lines_only():
    assert code_lines.code_lines(SOURCE) == 8


def test_main_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    assert code_lines.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["8", "1", "9"]
    assert lines[-1].endswith("total")
