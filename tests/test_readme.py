"""The README's ```python blocks run as written, against the current API,
and the commands of its CLI block parse with the current CLI options."""

import re
import shlex
from pathlib import Path

import numpy as np
import pytest

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```", README, re.S | re.M)
CLI_LINES = re.findall(r"^geocalc .*$", re.search(r"^## CLI\n\n```sh\n(.*?)^```", README, re.S | re.M)[1], re.M)


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 3


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_block_runs(index):
    names = {}
    exec(compile(BLOCKS[index], f"README.md python block {index + 1}", "exec"), names)
    # the blocks' "recovers ..." comments: the exp of the first increment
    # lands on the geodesic's endpoint
    if "end" in names:
        target = names["xb"] if "xb" in names else names["b"].coord
        assert np.max(np.abs(names["end"] - target)) <= 1e-9
    # "recovers w": inverse transport undoes the forward ladder
    if "back" in names:
        assert np.max(np.abs(names["back"] - names["w"])) <= 1e-9


def test_readme_has_a_cli_block():
    assert len(CLI_LINES) >= 7


@pytest.mark.parametrize("line", CLI_LINES)
def test_readme_cli_line_parses(line):
    from geocalc.cli import _build_parser

    args = _build_parser().parse_args(shlex.split(line)[1:])
    assert args.command == shlex.split(line)[1]


# the table below the CLI block: one row per command, its options in backticks
OPTION_ROWS = re.findall(r"^\| `([a-z-]+)` \| `(--[^`]*)` \|$", README, re.M)


def test_readme_option_table_matches_the_cli():
    from geocalc.cli import _COMMANDS

    table = {command: options.split() for command, options in OPTION_ROWS}
    assert len(OPTION_ROWS) == len(table)  # no command listed twice
    assert table.keys() == _COMMANDS.keys()
    for command, (_, options) in _COMMANDS.items():
        assert len(table[command]) == len(set(table[command])), command
        assert set(table[command]) == set(options), command
