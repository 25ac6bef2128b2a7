"""The README's examples, run as written and compared byte for byte.

Each ``$ monoclose ...`` line in a plain fenced block is run in process;
the lines after it, up to the next ``$`` line, are its expected standard
output, and a following ``$ echo $?`` gives its exit code (0 otherwise).
The ``python`` block is executed as it stands.
"""

import re
import shlex
from pathlib import Path

import pytest

from monoclose.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
PROMPT = "$ monoclose "


def cli_examples():
    examples = []
    for block in re.findall(r"^```\n(.*?)^```", README, re.M | re.S):
        for chunk in block.split(PROMPT)[1:]:
            command, *out = chunk.splitlines()
            code = 0
            if "$ echo $?" in out:
                i = out.index("$ echo $?")
                out, code = out[:i], int(out[i + 1])
            expected = "".join(f"{line}\n" for line in out)
            examples.append((shlex.split(command), expected, code))
    return examples


EXAMPLES = cli_examples()


def test_readme_has_the_three_cli_examples():
    assert [argv[0] for argv, _, _ in EXAMPLES] == ["is-normal", "member", "closure"]


@pytest.mark.parametrize(
    "argv, expected, code", EXAMPLES, ids=[argv[0] for argv, _, _ in EXAMPLES]
)
def test_readme_cli_example(argv, expected, code, capsys):
    assert main(argv) == code
    assert capsys.readouterr().out == expected


def test_readme_library_example():
    (block,) = re.findall(r"^```python\n(.*?)^```", README, re.M | re.S)
    exec(compile(block, "README.md", "exec"), {})
