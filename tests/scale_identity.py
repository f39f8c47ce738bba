"""Byte identity at scale: every log subcommand and pinned `simulate`, hashed.

Builds the benchmark's seed-42 audit log (100,030 records, from
``perfbench.workloads.audit_records``), runs ``gate`` (fixed and
``--adaptive``), ``guard``, ``sweep``, ``loso-eval`` at 0 and 1,000
resamples, ``calibrate`` and the pinned ``simulate`` on it, and compares
the sha256 of every file they write, the log included, with the manifest
``scale_identity.sha256`` next to this script. Each file that differs, is
missing or is new is named, and the exit status is 1 if any is.

Run from the root of a checkout (about a minute and 50 MB of files on
2 vCPUs; pytest does not collect it, so tier-1 stays fast):

    PYTHONPATH=src python tests/scale_identity.py

``--write`` regenerates the manifest instead of checking it. Outputs are
byte-identical for a given seed, so regenerate only after a change that is
meant to move an output, and name each moved file in the change.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench.workloads import audit_records  # noqa: E402
from srgate.cli import run_cli  # noqa: E402
from srgate.records import write_log  # noqa: E402

MANIFEST = HERE / "scale_identity.sha256"
LOG = "audit.log"
SEED = "42"

RUNS = {
    "gate": ["gate", "--log", LOG],
    "gate-adaptive": ["gate", "--log", LOG, "--adaptive"],
    "guard": ["guard", "--log", LOG],
    "sweep": ["sweep", "--log", LOG],
    "loso-eval-0": ["loso-eval", "--log", LOG, "--policy", "gate_adaptive",
                    "--seed", SEED, "--resamples", "0"],
    "loso-eval-1000": ["loso-eval", "--log", LOG, "--policy", "gate_adaptive",
                       "--seed", SEED, "--resamples", "1000"],
    "calibrate": ["calibrate", "--log", LOG, "--seed", SEED, "--resamples", "1000"],
    "simulate": ["simulate", "--seed", SEED, "--n-per-class", "1429", "--subjects", "24"],
}


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def run_all(work: Path) -> dict[str, str]:
    """Digest of the log and of every output file, keyed by relative path.

    Paths are relative to ``work``, so the echoes (which name the log) do
    not depend on where the script runs.
    """
    os.chdir(work)
    write_log(audit_records(int(SEED)), LOG)
    digests = {LOG: _sha256(work / LOG)}
    for name, argv in RUNS.items():
        rc = run_cli([*argv, "--out", name])
        if rc != 0:
            raise SystemExit(f"{name}: exit {rc}")
        for path in sorted((work / name).iterdir()):
            digests[f"{name}/{path.name}"] = _sha256(path)
    return digests


def read_manifest() -> dict[str, str]:
    """``sha256sum`` format: one ``<digest>  <path>`` line per file."""
    pairs = (line.split("  ", 1) for line in MANIFEST.read_text().splitlines() if line)
    return {path: digest for digest, path in pairs}


def compare(got: dict[str, str], want: dict[str, str]) -> list[str]:
    problems = [f"differs: {p}" for p in want if p in got and got[p] != want[p]]
    problems += [f"missing: {p}" for p in want if p not in got]
    problems += [f"new: {p}" for p in got if p not in want]
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="regenerate the manifest")
    args = parser.parse_args(argv)
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        try:
            got = run_all(Path(work))
        finally:
            os.chdir(here)
    if args.write:
        MANIFEST.write_text("".join(f"{d}  {p}\n" for p, d in got.items()))
        print(f"wrote {len(got)} digests to {MANIFEST.name}")
        return 0
    problems = compare(got, read_manifest())
    print("\n".join(problems) or f"all {len(got)} files byte-identical")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
