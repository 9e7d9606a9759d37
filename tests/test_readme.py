"""The README's Python quickstart runs as written."""

import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_readme_quickstart_runs():
    with open(os.path.join(ROOT, "README.md")) as f:
        blocks = re.findall(r"```python\n(.*?)```", f.read(), re.S)
    assert blocks, "README.md has no Python block"
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", blocks[0]], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
