"""README's "Library tour" runs as written, README names only options
the CLI declares, and its trace columns and run-record keys are the ones
the CLI writes, so a renamed or removed export, option, column or record
key cannot leave it stale."""

import contextlib
import io
import json
import re
from pathlib import Path

from click.testing import CliRunner

from graphfix import cli
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


def test_readme_trace_columns_are_the_cli_header():
    columns = re.search(r"Trace CSV columns: `([^`]*)`", README.read_text()).group(1)
    assert columns.split(",") == cli._TRACE_HEADER


def _listed_keys(text, name):
    """The keys README lists for the run record ``name``: the backquoted,
    comma-separated names of its bullet, up to the first sentence's end."""
    item = text.split(f"- `{name}`: ", 1)[1].split("`.", 1)[0] + "`"
    return [key.strip() for part in re.findall(r"`([^`]*)`", item) for key in part.split(",")]


def test_readme_run_record_keys_are_the_records(tmp_path):
    text = README.read_text()
    runs = {
        "outcome.json": ["iterate", "example-3-3"],
        "summary.json": ["bernstein", "--n", "5", "--q", "0.9"],
        "report.json": ["fbvp", "--beta", "2"],
    }
    for name, args in runs.items():
        out = tmp_path / name
        res = CliRunner().invoke(main, ["--out", str(out), *args])
        assert res.exit_code == 0, res.output
        record = json.loads((out / name).read_text())
        keys = [k for k in record if k not in ("manifest", "status", "condition", "step")]
        assert _listed_keys(text, name) == keys, name
