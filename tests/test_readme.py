"""The README's library example runs as written and prints what it says."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_library_example_prints_its_commented_values():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    [block] = re.findall(r"^```python\n(.*?)^```$", text, re.S | re.M)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", block], capture_output=True, text=True,
                         env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    # every print writes one line; a "# value..." comment gives its values
    # to within one unit in the last digit shown
    prints = re.findall(r"^print\(.*?\)(?:\s+# (.*)\.\.\.)?$", block, re.M)
    assert [p for p in prints if p] == ["0.8307", "3.3231", "1 0.8147"]
    lines = run.stdout.splitlines()
    assert len(lines) == len(prints)
    for line, comment in zip(lines, prints):
        printed = line.split()
        assert len(printed) >= len(comment.split())
        for got, shown in zip(printed, comment.split()):
            unit = 10.0 ** -len(shown.partition(".")[2])
            assert abs(float(got) - float(shown)) < unit, (line, comment)
