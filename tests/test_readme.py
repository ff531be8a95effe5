"""The README's examples, run: each commented value is what its line of
Python returns, or what the command on the line above it prints."""

import shlex
from pathlib import Path

from artlab import theorem3_check
from artlab.cli import dispatch

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _block(heading: str, lang: str) -> str:
    """The first fenced block of the given language after the heading."""
    return README.split(heading + "\n", 1)[1].split(f"```{lang}\n", 1)[1].split("```", 1)[0]


def _commented_lines(block: str) -> list[tuple[str, str]]:
    """(code, comment) for each line of code that ends in a comment."""
    pairs = []
    for line in block.splitlines():
        code, sep, comment = line.partition("#")
        if sep and code.strip():
            pairs.append((code.strip(), comment.strip()))
    return pairs


def test_library_block_values():
    block = _block("## Library", "python")
    namespace = {}
    exec(block, namespace)
    pairs = _commented_lines(block)
    assert len(pairs) == 5
    for code, comment in pairs:
        # the value shown ends at " — " or ": ", and "...)" elides the rest of a repr
        shown = comment.split(" — ")[0].split(": ")[0]
        value = repr(eval(code, namespace))
        if shown.endswith(", ...)"):
            assert value.startswith(shown[:-len("...)")]), (code, value)
        else:
            assert value == shown, (code, value)
    rep = theorem3_check(73)  # '18 points, all a.r.'
    assert rep.points == len(rep.ar_points) == 18


def test_cli_block_outputs(capsys):
    lines = _block("## CLI", "sh").splitlines()
    examples = [(lines[i], lines[i + 1][2:]) for i in range(len(lines) - 1)
                if lines[i].startswith("artlab ") and lines[i + 1].startswith("# ")]
    assert [cmd for cmd, _ in examples] == ["artlab mu 11 --json",
                                            "artlab lemma2 scan --e 1 --max 100 --json"]
    for cmd, out in examples:
        assert dispatch(shlex.split(cmd)[1:]) == 0
        assert capsys.readouterr().out == out + "\n", cmd

