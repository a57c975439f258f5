"""The README's quick start and library example run as written."""

import os
import re
import shlex

from prectune.cli import main as cli_main

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def section_block(heading: str, lang: str = "") -> str:
    """The one fenced block of language lang under the README heading."""
    with open(README) as fh:
        text = fh.read()
    section = text.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(rf"```{lang}\n(.*?)```", section, re.S)
    return block


def test_quick_start_runs(tmp_path):
    lines = section_block("Quick start").replace("\\\n", " ").splitlines()
    (command,) = [line for line in lines if line.startswith("prectune tune ")]
    argv = shlex.split(command)[1:]
    out = argv[argv.index("--out") + 1]
    argv[argv.index("--out") + 1] = str(tmp_path)
    listed = {line.split()[0] for line in lines if line.startswith(out + "/")}
    assert len(listed) == 3
    assert cli_main(argv) == 0
    assert {f"{out}/{name}" for name in os.listdir(tmp_path)} == listed


def test_library_example_runs(capsys):
    exec(compile(section_block("Library use", "python"), README, "exec"), {})
    words = capsys.readouterr().out.split()
    # config, actual error and status
    assert words[-1] == "feasible"
    assert float(words[-2]) <= 1e-7
