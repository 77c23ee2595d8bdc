"""The CLI's exit code and stdout for a fixed list of commands, pinned in tests/golden/.

Each command has one file there: `exit <code>`, then either `stdout` and the
output verbatim, when it is under 8 KB, or `sha256 <hex digest of the output>`.
`PYTHONPATH=src python tests/golden/regen.py` rewrites the files from the
current source; a change that alters output on purpose regenerates them and
names every changed file.
"""

import contextlib
import hashlib
import io
from pathlib import Path

import pytest

from arithcorr.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"
TEXT_LIMIT = 8 * 1024

COMMANDS = [
    ["verify", "--m-range", "2..16", "--json"],
    ["verify", "--m-range", "2..16"],
    ["verify", "--m-range", "2..12"],
    ["verify", "--m-range", "2..12", "--polys", "all"],
    *(["acorr", "--m", str(m), "--all", "--method", "all"] for m in range(2, 15)),
    ["acorr", "--m", "12", "--all", "--method", "all", "--json"],
    ["dist", "--m", "12", "--check"],
    ["dist", "--m", "15", "--check", "--json"],
]
# about 2.7 s on a 2-core x86-64 host
SLOW_COMMANDS = [["verify", "--m-range", "17..17", "--json"]]


def slug(argv: list[str]) -> str:
    """The golden file's stem: the arguments joined by _, without dashes in front or dots in a range."""
    return "_".join(arg.lstrip("-") for arg in argv).replace("..", "-")


def run(argv: list[str]) -> tuple[int, str]:
    """cli.main's exit code and stdout for argv, in this process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def render(code: int, stdout: str) -> str:
    """The golden file's text for one command's exit code and stdout."""
    if len(stdout.encode()) < TEXT_LIMIT:
        return f"exit {code}\nstdout\n{stdout}"
    return f"exit {code}\nsha256 {hashlib.sha256(stdout.encode()).hexdigest()}\n"


@pytest.mark.parametrize(
    "argv", [*COMMANDS, *(pytest.param(argv, marks=pytest.mark.slow) for argv in SLOW_COMMANDS)], ids=slug
)
def test_output_unchanged(argv):
    expected = (GOLDEN_DIR / f"{slug(argv)}.golden").read_bytes().decode()
    assert render(*run(argv)) == expected
