"""The classification of tools/unrun_lines.py, on a small module and a
given set of lines that ran (the tool itself runs the whole suite)."""

import importlib.util
import pathlib

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "unrun_lines.py"
spec = importlib.util.spec_from_file_location("unrun_lines", TOOL)
unrun_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(unrun_lines)

MODULE = '''"""A docstring."""

def f(x):
    if x:
        return 1  # unrun: guard: stale, this line runs
    raise ValueError("x")  # unrun: guard: never reached
# unrun: a tag with no code under it


def g():
    return 2
'''


def test_findings(tmp_path):
    path = tmp_path / "module.py"
    path.write_text(MODULE)
    ran = {(str(path), line) for line in (1, 3, 4, 5, 10)}
    assert unrun_lines.findings(path, ran) == [
        (5, "stale tag, the line ran", "return 1  # unrun: guard: stale, this line runs"),
        (6, "unrun, tagged", "guard: never reached"),
        (7, "stale tag, the line holds no code", "# unrun: a tag with no code under it"),
        (11, "unrun, untagged", "return 2"),
    ]


def test_code_lines_skip_line_zero_and_docstrings(tmp_path):
    path = tmp_path / "module.py"
    path.write_text(MODULE)
    assert unrun_lines.code_lines(path) == {1, 3, 4, 5, 6, 10, 11}
