"""The README's examples against the code: the library example runs, and the
CLI block names only subcommands that the parser has."""

import argparse
import contextlib
import io
import re
from pathlib import Path

from infoscale import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _code_block(heading: str, language: str) -> str:
    """The first ``language`` code block under the ``## heading`` section."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return section.split(f"```{language}\n", 1)[1].split("\n```", 1)[0]


def test_library_example_runs():
    code = _code_block("Library example", "python")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue().strip()


def test_cli_block_names_only_subcommands():
    # "infoscale [--flag value ...] <subcommand> ...", one command per line
    lines = re.findall(r"^infoscale(?: --\S+ \S+)* (\S+)", _code_block("CLI", "sh"), flags=re.M)
    subparsers = next(
        action for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    assert lines and set(lines) <= set(subparsers.choices), lines
