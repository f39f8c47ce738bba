"""Every ``srgate ...`` example in README.md's ``sh`` blocks parses and runs.

The examples run in a directory holding what they name: a seeded
``preds.log``, a ``methods.csv`` with a ``bicubic`` row and three small PGM
frames, so the documentation cannot drift from the CLI unnoticed.
"""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from srgate.cli import build_parser, run_cli
from srgate.config import ExperimentConfig
from srgate.records import write_log
from srgate.simulate import sample_stream

README = Path(__file__).resolve().parent.parent / "README.md"


def _examples() -> list[list[str]]:
    """The argv of each ``srgate`` command in the README's sh blocks, with
    backslash continuations joined."""
    examples = []
    for block in re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("srgate "):
                examples.append(shlex.split(line)[1:])
    return examples


EXAMPLES = _examples()


def test_readme_has_an_example_of_every_subcommand():
    assert len(EXAMPLES) == 9
    assert {argv[0] for argv in EXAMPLES} == {
        "quality", "gate", "calibrate", "guard", "sweep", "pareto", "simulate", "loso-eval"
    }


@pytest.fixture
def example_dir(tmp_path, monkeypatch):
    recs = sample_stream(ExperimentConfig().scenario.model, 20, 4, seed=3)
    write_log(recs, str(tmp_path / "preds.log"))
    (tmp_path / "methods.csv").write_text(
        "name,accuracy,cost,fps,power\n"
        "bicubic,0.287,1.2,52.4,5.0\n"
        "sr2x,0.301,6.4,31.0,9.1\n"
        "sr4x,0.331,18.7,12.5,14.2\n"
    )
    for i in range(3):
        pixels = " ".join(str((7 * j + 11 * i) % 256) for j in range(16))
        (tmp_path / f"f{i}.pgm").write_text(f"P2\n4 4\n255\n{pixels}\n")
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.mark.parametrize("argv", EXAMPLES, ids=" ".join)
def test_readme_example_parses_and_runs(example_dir, argv):
    assert build_parser().parse_args(argv).subcommand == argv[0]
    assert run_cli(argv) == 0
    assert (example_dir / "run" / "effective_config.json").exists()
