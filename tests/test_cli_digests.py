"""Every subcommand's output files, pinned by sha256 on a small seeded scenario.

Each config-backed subcommand runs three ways: with flags, with one flat
config file shared by all of them, and with the effective_config.json of the
flag run fed back through --config. The echo run must write the same bytes
as the flag run. Paths are relative to the working directory, so the echoes
(which name the log) do not depend on where the test runs.

After an intended change to some output, regenerate the table from the root
of a checkout with ``PYTHONPATH=src python tests/test_cli_digests.py`` and
say in the change which digests moved and why.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from srgate.cli import run_cli
from srgate.config import ExperimentConfig
from srgate.records import write_log
from srgate.simulate import sample_stream

LOG = "preds.log"

# one flat config holding a key of every config-backed subcommand
FLAT = {
    "tau_low": 0.55, "tau_high": 0.85, "lambda": 0.4, "tau_base": 0.7,
    "guard_threshold": 0.6, "guard_discount": 0.1, "guard_absolute": True,
    "bins": 8, "resamples": 15, "ci_level": 0.9, "seed": 9, "policy": "gate",
    "n_per_class": 5, "subjects": 3, "rel_range": 0.2, "steps": 3,
    "objective": "heuristic", "adaptive": True, "uplift": True,
}

RUNS = {
    "simulate": ["simulate", "--seed", "5", "--n-per-class", "8", "--subjects", "4",
                 "--resamples", "20"],
    "gate": ["gate", "--log", LOG],
    "gate-adaptive": ["gate", "--log", LOG, "--adaptive"],
    "calibrate": ["calibrate", "--log", LOG, "--seed", "7", "--resamples", "20"],
    "guard": ["guard", "--log", LOG],
    "sweep": ["sweep", "--log", LOG, "--steps", "3"],
    "loso-eval": ["loso-eval", "--log", LOG, "--seed", "7", "--resamples", "20"],
    "quality": ["quality", "a.pgm", "b.pgm", "--ssim-ref", "a.pgm", "--clip"],
    "pareto": ["pareto", "--points", "points.csv"],
    **{
        f"{sub}-flat": [sub, *([] if sub == "simulate" else ["--log", LOG]), "--config", "flat.json"]
        for sub in ("gate", "calibrate", "guard", "sweep", "simulate", "loso-eval")
    },
}

DIGESTS = {
    "simulate/effective_config.json": "b40fac425c0fe4d5b0a31c80366b4774125f6507047c537d89d4c012fca91906",
    "simulate/guard_outcomes.csv": "c19dfe1c159b5564dd2166c686bff8e7e8887d6432a93071779ed934986b6e63",
    "simulate/reliability.csv": "a15797a2f6fb2299d3cbddc7ba52711f4837183789b7bf02acf22cf76c13c3a0",
    "simulate/report.json": "011dc9e6c8ccd226ff5ff2dff45acf7a4b18b4c7f8594b22d158229538d4d2cb",
    "simulate/stream.log": "9638015a73a4c6879f087c3bf7c7cf07e53c68f75afad10059debb451a7d303e",
    "gate/decisions.csv": "0f27e90d58a5eea6cbb6501996ec86c4c21f9eca5481aabcbb0d6e94aac29e88",
    "gate/effective_config.json": "a79857339c7206beb9594dd593d435c84a733419d85c8d71d262a101e3a15537",
    "gate-adaptive/decisions.csv": "957203d834409b0b453ea62fdb847fb83217cdd90bdebe86ce5128dfd0708573",
    "gate-adaptive/effective_config.json": "062477fdbefd8687dd9baac31e2d6328b9795b795b1bf2489a559651763946c5",
    "calibrate/calibration_report.json": "fa7f1a38e43f90f9284eb5332ff3af08a1b9b1ffbf816107819166c91d75da1b",
    "calibrate/effective_config.json": "1e1729451a49e821fe3e9313232b62769fe542c0a8eea23182d2fc363cd37a09",
    "calibrate/pr_drowsiness.csv": "0766d33cd80a7b67d58a5b72f9e4d218211aec0266f2d6222ce34e55660ad8d9",
    "calibrate/pr_phone_call.csv": "3715dff24108e0e3e0c999715ce964c878e6b72087f937f8a515f827bafb1c60",
    "calibrate/pr_texting.csv": "0757a0b5fe99b6e24820aab531e51af6afb149ce5b39b27b74ba924bfbf56089",
    "calibrate/reliability.csv": "fd8422890951822b8749e33545ed90a9fc6d3ee5a147f73ad51140c44dff5b91",
    "guard/effective_config.json": "a677a1f401d78d31bf3fbd2fb3e8525bb4469697dba0067a66926012a4f9d4d4",
    "guard/guard.csv": "136e14a4f9dfb2acae830c3bfc869a29c63c2bb9f06b8fe2c3d221f942126777",
    "sweep/effective_config.json": "82d8542e3e15e7910633641ae6bfba5c275ba0539f3011fa709dbb7145cab17f",
    "sweep/sweep.csv": "15a8e146c12dcfa623e3e7b6e46db7ae9399f76ba4b50d7e65d7754f717c86a9",
    "loso-eval/effective_config.json": "d3c57aa534e3dcb4a06e3e53677ac4ba4939f8ecce96ad6d80eee2b870499634",
    "loso-eval/guard_outcomes.csv": "b84833a813d4d39ed66c46df622a1acff3749e667d62e84441fb159fe0452455",
    "loso-eval/reliability.csv": "7a01278270584257d12ccd75ab7ee7060c763c6c5cf6dfa67e265e4938f53f6e",
    "loso-eval/report.json": "bd297e4326c2a6e48a018bc879bcf083b7105c054e04623037c0f49f61844115",
    "quality/effective_config.json": "e1ed3647c5c0ec1850661ee63fa932837c8561a7bd3af51a3f0f8db41777461a",
    "quality/quality.csv": "8d1e0692d51bd061e0cbe6bd5b1445613b268a0a72e7880ace190240687bd8c9",
    "quality/temporal.csv": "0b6516b54f4ecd8f4af6e58abb08d3b75bcac64277348cda96b943372bb964b7",
    "pareto/effective_config.json": "5feae7f694470deab3ffd7e0881463d0cd9f318219eadb4a8d5e2361ae0c1755",
    "pareto/pareto.csv": "e11668814b21b630433caed51a2e4cace67a088ad8ff10aab73232f49c317f35",
    "gate-flat/decisions.csv": "ce8a113f8d7719ed658c91365abb3443ad065be56c89bc749c0c754b19eaba73",
    "gate-flat/effective_config.json": "a8870d21d657cd2d58e2d2fd4b2f79b6fb9da60733ed01022564ddd9959c0dfb",
    "calibrate-flat/calibration_report.json": "4752e76982d104109aab5908fdd559441b0531cc26f9f51a8836930cc3404710",
    "calibrate-flat/effective_config.json": "85e5537c812af36f171503a94f001d4d4c383270a19394d1ffd55944c86a04e2",
    "calibrate-flat/pr_drowsiness.csv": "0766d33cd80a7b67d58a5b72f9e4d218211aec0266f2d6222ce34e55660ad8d9",
    "calibrate-flat/pr_phone_call.csv": "3715dff24108e0e3e0c999715ce964c878e6b72087f937f8a515f827bafb1c60",
    "calibrate-flat/pr_texting.csv": "0757a0b5fe99b6e24820aab531e51af6afb149ce5b39b27b74ba924bfbf56089",
    "calibrate-flat/reliability.csv": "485a2325fa26b7d17be782f15dc7f22ff37c4751c1fa3ee7085b8581d863b87f",
    "guard-flat/effective_config.json": "6409dcb35ae674de34113c6a478686fa313d6ade3e86f29c4e59ee19357e56e3",
    "guard-flat/guard.csv": "f5e03bc17b686de68bb0383a139a019d029484f1feecaa7889cce4220b38cec1",
    "sweep-flat/effective_config.json": "c8f99b884f88e34a6953a5fb84b82439af576729b1456b1407529e6fc58dd2f5",
    "sweep-flat/sweep.csv": "1d7300c44a9b7b70d100b90446b6abc052c9ab38e76074f8de6841f8c06b482f",
    "simulate-flat/effective_config.json": "a79766e0e313198e19ac1716cf502db7503047a25f31fa0864c9943cbfb5a1ef",
    "simulate-flat/guard_outcomes.csv": "f99d706c38e3108bedc59f33877a8cfc9694bf75305bfe0a5bcce9781a2927f5",
    "simulate-flat/reliability.csv": "5e8ec87076882331c8bd500e6fc41f65c333cde4141ec5bfbbc5ff7dedc390c8",
    "simulate-flat/report.json": "5bf04a0b15146bf31bc87e6ca618a93123edd326e6a4b750a3ec88726024f265",
    "simulate-flat/stream.log": "1757edb6c7894fd226ff2d4613b4cc82de136410db2e657f583437888e313632",
    "loso-eval-flat/effective_config.json": "8535b86cf0cf40592ce7237fa550f79a739ceee1451f077030fd07e02976fbba",
    "loso-eval-flat/guard_outcomes.csv": "75f1c355478d67cbb7ccf54db12284295bfeb6ef8b9429b23adbda746b7cc0d2",
    "loso-eval-flat/reliability.csv": "92d92d1ada604992d1f046bc6614213f3ab8b1e463612d8d9a04a0ac5c222485",
    "loso-eval-flat/report.json": "81eff32f768d5088cd35024447c2bf68ff6c28726ecb8e7ce352ad5707f73ff5",
}


def _write_inputs(work: Path) -> None:
    recs = sample_stream(ExperimentConfig().scenario.model, 8, 4, seed=3)
    scores = np.random.default_rng(3).uniform(size=len(recs))
    write_log(
        [dataclasses.replace(r, artifact_score=float(s)) for r, s in zip(recs, scores)],
        str(work / LOG),
    )
    (work / "a.pgm").write_text("P2\n4 3\n255\n" + " ".join(str(17 * i) for i in range(12)) + "\n")
    (work / "b.pgm").write_bytes(b"P5\n4 3\n255\n" + bytes(range(40, 52)))
    (work / "points.csv").write_text(
        "name,accuracy,cost,fps,power\n"
        "bicubic,0.287,1.2,52.4,5.0\ncar4x,0.359,143.0,4.2,26.4\nfsrcnn,0.323,8.2,16.7,6.0\n"
    )
    (work / "flat.json").write_text(json.dumps(FLAT))


def _digests(directory: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(directory.iterdir())
    }


def run_scenario(work: Path) -> dict[str, str]:
    """Digest of every output file, keyed "run/file"; every echo run must
    reproduce its flag or flat run byte for byte."""
    _write_inputs(work)
    out = {}
    for name, argv in RUNS.items():
        assert run_cli([*argv, "--out", name]) == 0, name
        digests = _digests(work / name)
        out.update({f"{name}/{file}": digest for file, digest in digests.items()})
        if argv[0] in ("quality", "pareto"):
            continue
        echo = [argv[0], "--config", f"{name}/effective_config.json", "--out", f"{name}-echo"]
        if argv[0] != "simulate":
            echo += ["--log", LOG]
        assert run_cli(echo) == 0, name
        assert _digests(work / f"{name}-echo") == digests, name
    return out


def test_every_subcommand_output_matches_its_pinned_digest(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_scenario(tmp_path) == DIGESTS


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        table = run_scenario(Path(work))
    sys.stdout.write("DIGESTS = {\n")
    for key, digest in table.items():
        sys.stdout.write(f'    "{key}": "{digest}",\n')
    sys.stdout.write("}\n")
