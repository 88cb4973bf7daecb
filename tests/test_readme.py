"""README's "Library tour" runs as written, and README names only options
the CLI declares, so a renamed or removed export or option cannot leave it
stale."""

import contextlib
import io
import re
from pathlib import Path

from graphfix.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_tour_runs():
    tour = README.read_text().split("## Library tour", 1)[1]
    code = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().split() == ["0", "0"]


def test_readme_names_only_declared_options():
    # the Benchmark section documents perfbench's flags, and code blocks
    # other than graphfix command lines run other programs (pip, pytest)
    head, rest = README.read_text().split("\n## Benchmark\n", 1)
    parts = (head + rest[rest.index("\n## "):]).split("```")
    text = "\n".join(
        part if i % 2 == 0 else "\n".join(
            line for line in part.splitlines() if line.startswith("graphfix ")
        )
        for i, part in enumerate(parts)
    )
    named = set(re.findall(r"(?<![\w-])--[A-Za-z][\w-]*", text))
    commands = [main, *main.commands.values()]
    declared = {opt for command in commands for p in command.params for opt in p.opts}
    assert named, "README names no option"
    assert sorted(named - declared) == []
