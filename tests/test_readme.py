"""The README's library example runs as written."""

import os
import re

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def library_example() -> str:
    """The one python block under the README's "## Library use" heading."""
    with open(README) as fh:
        text = fh.read()
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"```python\n(.*?)```", section, re.S)
    return block


def test_library_example_runs(capsys):
    exec(compile(library_example(), README, "exec"), {})
    words = capsys.readouterr().out.split()
    # config, actual error and status
    assert words[-1] == "feasible"
    assert float(words[-2]) <= 1e-7
