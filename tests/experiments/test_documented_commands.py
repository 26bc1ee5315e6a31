"""Every documented ``sweep``/``steady``/``query`` command still parses.

The command lines in the fenced blocks of ``README.md`` and ``docs/*.md``
are parsed with the real parser and their model flags canonicalised into
a valid model spec — nothing is solved and no connection is opened — so a
renamed flag or a stale example fails here rather than in a reader's
shell.
"""

import re
import shlex
from pathlib import Path

import pytest

from repro.experiments.cli import (
    _build_query_payload,
    _canonical_spec,
    _model_spec,
    build_parser,
)
REPO = Path(__file__).resolve().parents[2]

_FENCE = re.compile(r"^```[^\n]*\n(.*?)^```", re.S | re.M)
_COMMAND = re.compile(
    r"(?:repro-experiments|python -m repro) (sweep|steady|query)\b(.*)"
)


def documented_commands():
    """``(where, argv)`` for each model command in a fenced docs block."""
    found = []
    for path in [REPO / "README.md", *sorted((REPO / "docs").glob("*.md"))]:
        for block in _FENCE.findall(path.read_text()):
            for line in block.replace("\\\n", " ").splitlines():
                match = _COMMAND.search(line)
                if match:
                    argv = [match[1], *shlex.split(match[2])]
                    found.append((f"{path.name}: {' '.join(argv)}", argv))
    return found


COMMANDS = documented_commands()


def test_every_model_command_is_documented():
    assert {argv[0] for _, argv in COMMANDS} == {"sweep", "steady", "query"}


@pytest.mark.parametrize(
    "argv", [argv for _, argv in COMMANDS], ids=[where for where, _ in COMMANDS]
)
def test_documented_command_canonicalises(argv):
    args = build_parser().parse_args(argv)
    if argv[0] == "query":
        _build_query_payload(args)  # canonicalises the model it would send
    else:
        _canonical_spec(_model_spec(args))
