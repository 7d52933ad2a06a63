"""Smoke runs of the shipped examples: the demo configs and the quick demos."""

import re
import runpy
from pathlib import Path

import pytest

from strav.cli import main

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize(
    "command, config, code",
    [
        ("solve", "stage_solve.json", 0),
        ("verify", "stage_solve.json", 0),
        # the box run stops at its max_iters cap, which the CLI reports as exit 2
        ("superiorize", "box_superiorize.json", 2),
    ],
)
def test_demo_config(capsys, command, config, code):
    assert main([command, "--config", str(DEMOS / "configs" / config)]) == code
    cap = capsys.readouterr()
    assert cap.out and not cap.err


@pytest.mark.parametrize(
    "script", ["01_projection_tour.py", "02_operator_calculus.py", "05_string_averaging.py"]
)
def test_demo_script(capsys, script):
    runpy.run_path(str(DEMOS / script), run_name="__main__")
    assert capsys.readouterr().out


def test_readme_quick_start(capsys):
    # README's first python block, run as written: its last line is the Fejer audit's pass
    text = (DEMOS.parent / "README.md").read_text()
    block = text.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {"__name__": "__main__"})
    last = capsys.readouterr().out.splitlines()[-1]
    assert re.fullmatch(r"fejer\(c=[0-9.]+\): pass \(max violation .+, 20000 samples\)", last), last
