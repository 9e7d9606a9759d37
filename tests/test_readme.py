"""The README's Python quickstart runs as written, and the scenario examples
of the README and of `diffnet.scenario` load as written."""

import os
import re
import subprocess
import sys
import textwrap

import yaml

import diffnet.scenario
from diffnet.scenario import Scenario

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def readme_blocks(lang):
    with open(os.path.join(ROOT, "README.md")) as f:
        return re.findall(rf"```{lang}\n(.*?)```", f.read(), re.S)


def test_readme_quickstart_runs():
    blocks = readme_blocks("python")
    assert blocks, "README.md has no Python block"
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", blocks[0]], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_scenario_examples_load():
    (readme,) = readme_blocks("yaml")
    # the module docstring's example is its indented block
    docstring = re.search(r"\n\n((?:    .*\n)+)", diffnet.scenario.__doc__)[1]
    for text in (readme, textwrap.dedent(docstring)):
        Scenario.from_dict(yaml.safe_load(text))
