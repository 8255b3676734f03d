"""Print every line of src/diskpd that holds code and that no tier-1 test runs.

Usage: python tools/unrun_lines.py   (no options; run from any directory)

The tier-1 command, `python -m pytest -q --continue-on-collection-errors`
with src on PYTHONPATH, runs in a child interpreter whose frames in
src/diskpd are followed by sys.settrace, the hook of the stdlib trace
module.  trace.Trace itself is not used: told to ignore site-packages, it
caches ignored modules by base name, so once hypothesis/core.py has run,
src/diskpd/core.py goes unrecorded; told nothing, it records every line of
numpy and pytest as well, several times slower.

A line holds code when the compiled module maps an instruction to it; line
0, where each module's code object starts, is an artefact and is skipped.
A line may go unrun only when it ends with a `# unrun: <reason>` tag, kept
for a named defensive guard that no test can reach, or for a line that
only a subprocess runs, which this trace does not follow.

Exit status 0 when every unrun line is tagged and every tagged line is
unrun.  Exit status 1 when an unrun line has no tag, a tagged line ran or
holds no code (a stale tag), or the tests fail.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tempfile
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "diskpd"
TIER1 = ["-q", "--continue-on-collection-errors"]
TAG = re.compile(r"#\s*unrun:\s*(\S.*)$")

#: Run in the child: pytest under a line recorder for files in the package
#: directory argv[2]; the lines that ran go to argv[1] as JSON.
CHILD = """
import json, sys
import pytest

out, package, *args = sys.argv[1:]
ran = set()

def lines(frame, event, arg):
    if event == "line":
        ran.add((frame.f_code.co_filename, frame.f_lineno))
    return lines

def calls(frame, event, arg):
    return lines if frame.f_code.co_filename.startswith(package) else None

sys.settrace(calls)
try:
    status = pytest.main(args)
finally:
    sys.settrace(None)
with open(out, "w", encoding="utf-8") as handle:
    json.dump({"status": int(status), "ran": sorted(ran)}, handle)
"""


def code_lines(path: Path) -> set[int]:
    """The lines of path that some instruction of its compiled code maps to."""
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    found = set()
    while stack:
        code = stack.pop()
        found.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return found


def run_tier1() -> tuple[int, set[tuple[str, int]]]:
    """The tier-1 exit status, and (file, line) of every package line that ran."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    with tempfile.TemporaryDirectory() as scratch:
        out = Path(scratch) / "ran.json"
        subprocess.run(
            [sys.executable, "-c", CHILD, str(out), str(PACKAGE) + os.sep, *TIER1],
            cwd=ROOT, env=env, stdout=sys.stderr, check=False,
        )
        if not out.exists():
            return 1, set()
        result = json.loads(out.read_text(encoding="utf-8"))
    return result["status"], {(name, line) for name, line in result["ran"]}


def findings(path: Path, ran: set[tuple[str, int]]) -> list[tuple[int, str, str]]:
    """(line, finding, detail) for each line of path that holds code and
    is not in ran, tagged or not, and for each stale tag."""
    executable = code_lines(path)
    out = []
    for number, text in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        tag = TAG.search(text)
        unrun = number in executable and (str(path), number) not in ran
        if unrun and tag:
            out.append((number, "unrun, tagged", tag.group(1)))
        elif unrun:
            out.append((number, "unrun, untagged", text.strip()))
        elif tag:
            why = "ran" if number in executable else "holds no code"
            out.append((number, f"stale tag, the line {why}", text.strip()))
    return out


def main() -> int:
    status, ran = run_tier1()
    counts = {"unrun, tagged": 0, "unrun, untagged": 0, "stale": 0}
    for path in sorted(PACKAGE.glob("*.py")):
        for number, finding, detail in findings(path, ran):
            counts[finding if finding.startswith("unrun") else "stale"] += 1
            print(f"{path.relative_to(ROOT)}:{number}: {finding}: {detail}")
    tagged, untagged, stale = counts.values()
    print(f"unrun lines: {tagged + untagged} ({tagged} tagged, {untagged} untagged); stale tags: {stale}")
    if status != 0:
        print(f"tier-1 tests failed with exit status {status}")
    return 0 if status == 0 and untagged == stale == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
