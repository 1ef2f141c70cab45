"""The code-line count CHANGES.md reports (``tools/code_lines.py``)."""

import importlib.util
import pathlib
import subprocess
import sys

_TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"


def _load():
    spec = importlib.util.spec_from_file_location("code_lines", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


FIXTURE = '''"""Module docstring,
two lines."""

import os  # trailing comments do not stop a line counting

# A comment line.
class Thing:
    """Class docstring."""

    value = """a string that is data,
    not a docstring: both lines count"""

    def method(self):
        "one-line docstring"
        return (self.value,

                os.sep)  # the blank line inside the expression does not
'''


def test_counts_non_blank_non_comment_non_docstring_lines():
    # import, class, value (2), def, return, os.sep.
    assert _load().count_code_lines(FIXTURE) == 7


def test_counts_a_tree_per_file(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text("x = 1\n\n# note\ny = 2\n")
    (tmp_path / "pkg" / "b.py").write_text('"""Doc."""\n')
    counts = _load().count_tree(tmp_path)
    assert {path.name: lines for path, lines in counts.items()} == {
        "a.py": 2, "b.py": 0}


def test_prints_packages_of_a_tree_and_files_of_a_package(tmp_path, capsys):
    for name, source in (("pkg/a.py", "x = 1\ny = 2\n"),
                         ("pkg/b.py", "z = 3\n"), ("top.py", "w = 4\n")):
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_text(source)
    _load().main([str(tmp_path), str(tmp_path / "pkg")])
    assert [line.split() for line in capsys.readouterr().out.splitlines()] == [
        ["4", str(tmp_path)],
        ["1", str(tmp_path)], ["3", str(tmp_path / "pkg")],
        ["3", str(tmp_path / "pkg")],
        ["2", str(tmp_path / "pkg" / "a.py")],
        ["1", str(tmp_path / "pkg" / "b.py")],
    ]


def test_a_reader_that_closes_early_gets_no_traceback(tmp_path):
    """``code_lines.py src | head -1`` prints the total and stops quietly.
    The output here (one small tree named 2 000 times) overflows the pipe
    buffer, so the tool is still writing when the reader closes."""
    (tmp_path / "a.py").write_text("x = 1\n")
    proc = subprocess.Popen(
        [sys.executable, str(_TOOL)] + [str(tmp_path)] * 2000,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline().split() == [b"1", str(tmp_path).encode()]
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    proc.wait(timeout=60)
    assert "Traceback" not in stderr, stderr
