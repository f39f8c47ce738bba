from __future__ import annotations

import argparse
import csv
import json
import tempfile
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import count_conversions, make_record
from srgate import errors, gating, quality, records
from srgate.cli import build_parser, run_cli
from srgate.config import ExperimentConfig
from srgate.records import record_to_obj, write_log
from srgate.simulate import sample_stream


@pytest.fixture
def stream_log(tmp_path):
    recs = sample_stream(ExperimentConfig().scenario.model, 25, 5, seed=3)
    path = tmp_path / "preds.log"
    write_log(recs, str(path))
    return str(path)


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_unknown_flag_exits_2(stream_log, tmp_path):
    assert run_cli(["gate", "--log", stream_log, "--frobnicate"]) == 2


def test_unknown_subcommand_exits_2():
    assert run_cli(["enhance"]) == 2


def test_missing_log_file_exits_4(tmp_path):
    assert run_cli(["gate", "--log", str(tmp_path / "nope.log"), "--out", str(tmp_path)]) == 4


def test_malformed_log_exits_3(tmp_path):
    bad = tmp_path / "bad.log"
    bad.write_text('{"subject_id": "s"}\n')
    assert run_cli(["gate", "--log", str(bad), "--out", str(tmp_path)]) == 3


@pytest.mark.parametrize(
    "field,value",
    [
        ("criticality", 0.9),
        ("true_class", 6.9),
        ("criticality", True),
        ("perceptual_loss", float("nan")),
        ("perceptual_loss", float("inf")),
        ("confidence", "0.9"),
        ("lighting", True),
        ("probs", [str(p) for p in record_to_obj(make_record())["probs"]]),
        ("probs", [True] + [0.0] * 6),
        ("blur", "1e-3"),
        ("subject_id", 5),
        ("clip_id", None),
        ("artifact_score", "0.2"),
    ],
)
def test_bad_log_field_exits_3_naming_field_and_line(tmp_path, capsys, field, value):
    good = record_to_obj(make_record())
    bad = dict(good, **{field: value})
    log = tmp_path / "bad.log"
    log.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
    assert run_cli(["gate", "--log", str(log), "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "line 2" in err and field in err


@pytest.mark.parametrize("field", ["blur", "probs"])
def test_log_integer_beyond_float_range_exits_3(tmp_path, capsys, field):
    good = record_to_obj(make_record())
    huge = 10**400
    bad = dict(good, **{field: [huge] * 7 if field == "probs" else huge})
    log = tmp_path / "bad.log"
    log.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
    assert run_cli(["gate", "--log", str(log), "--out", str(tmp_path)]) == 3
    assert "line 2: bad field value" in capsys.readouterr().err


def test_out_of_range_threshold_exits_2(stream_log, tmp_path):
    code = run_cli(
        ["gate", "--log", stream_log, "--tau-low", "0.9", "--tau-high", "0.2", "--out", str(tmp_path)]
    )
    assert code == 2


@pytest.mark.parametrize(
    "subcommand,flags,filecfg,field",
    [
        ("calibrate", ["--resamples", "-5"], None, "resamples"),
        ("simulate", ["--resamples", "-3"], None, "resamples"),
        ("calibrate", [], {"resamples": 2.5}, "resamples"),
        ("calibrate", [], {"resamples": True}, "resamples"),
        ("calibrate", [], {"resamples": "1000"}, "resamples"),
        ("calibrate", ["--bins", "0"], None, "bins"),
        ("calibrate", [], {"bins": 10.0}, "bins"),
        ("calibrate", ["--ci-level", "1.0"], None, "ci_level"),
        ("calibrate", ["--ci-level", "nan"], None, "ci_level"),
        ("calibrate", [], {"ci_level": "0.95"}, "ci_level"),
    ],
)
def test_bad_bootstrap_setting_exits_2_naming_field(
    stream_log, tmp_path, capsys, subcommand, flags, filecfg, field
):
    argv = [subcommand, "--seed", "7", "--out", str(tmp_path / "o"), *flags]
    if subcommand == "calibrate":
        argv += ["--log", stream_log]
    else:
        argv += ["--n-per-class", "5", "--subjects", "3"]
    if filecfg is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(filecfg))
        argv += ["--config", str(cfg)]
    assert run_cli(argv) == 2
    assert field in capsys.readouterr().err
    assert not (tmp_path / "o" / "effective_config.json").exists()


@pytest.mark.parametrize(
    "filecfg,field",
    [
        ({"steps": 2.5}, "steps"),
        ({"steps": 3.0}, "steps"),
        ({"steps": True}, "steps"),
        ({"steps": "5"}, "steps"),
        ({"rel_range": "0.25"}, "rel_range"),
        ({"rel_range": True}, "rel_range"),
        ({"rel_range": float("nan")}, "rel_range"),
        ({"rel_range": float("inf")}, "rel_range"),
        ({"steps": 1001}, "steps"),
        ({"steps": 100000}, "steps"),
        ({"objective": "best"}, "objective"),
    ],
)
def test_bad_sweep_setting_exits_2_naming_field(stream_log, tmp_path, capsys, filecfg, field):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(filecfg))
    out = tmp_path / "o"
    assert run_cli(["sweep", "--log", stream_log, "--config", str(cfg), "--out", str(out)]) == 2
    assert field in capsys.readouterr().err
    # rejected before the output directory is made
    assert not out.exists()


def test_bad_sweep_setting_is_rejected_before_the_log_is_read(tmp_path, capsys):
    missing_log = str(tmp_path / "absent.log")
    assert run_cli(["sweep", "--log", missing_log, "--steps", "1001", "--out", str(tmp_path / "o")]) == 2
    assert "steps" in capsys.readouterr().err


def _write_config(tmp_path, filecfg) -> str:
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(filecfg))
    return str(cfg)


def _argv(subcommand, log, out):
    if subcommand == "simulate":
        return [subcommand, "--seed", "3", "--n-per-class", "5", "--subjects", "3", "--out", out]
    if subcommand == "loso-eval":
        return [subcommand, "--log", log, "--seed", "3", "--resamples", "0", "--out", out]
    return [subcommand, "--log", log, "--out", out]


@pytest.mark.parametrize(
    "subcommand,filecfg,key",
    [
        ("guard", {"guard": "false"}, "guard"),
        ("loso-eval", {"guard": "false"}, "guard"),
        ("loso-eval", {"guard": 0}, "guard"),
        ("loso-eval", {"guard_absolute": "true"}, "guard_absolute"),
        ("simulate", {"uplift": "false"}, "uplift"),
        ("simulate", {"hallucination": 1}, "hallucination"),
        ("gate", {"adaptive": "true"}, "adaptive"),
        ("gate", {"adaptive": None}, "adaptive"),
        ("gate", {"adaptive_gate": "true"}, "adaptive_gate"),
    ],
)
def test_non_bool_switch_exits_2_naming_key(stream_log, tmp_path, capsys, subcommand, filecfg, key):
    out = tmp_path / "o"
    argv = _argv(subcommand, stream_log, str(out)) + ["--config", _write_config(tmp_path, filecfg)]
    assert run_cli(argv) == 2
    assert f"{key} must be true or false" in capsys.readouterr().err
    assert not (out / "effective_config.json").exists()


@pytest.mark.parametrize(
    "path",
    [
        ("guard_enabled",),
        ("guard_relative",),
        ("scenario", "sr_effect", "uplift_enabled"),
        ("scenario", "sr_effect", "hallucination_enabled"),
    ],
)
def test_non_bool_switch_in_full_config_exits_2_naming_key(stream_log, tmp_path, capsys, path):
    echo = tmp_path / "echo"
    assert run_cli(_argv("loso-eval", stream_log, str(echo))) == 0
    full = json.loads((echo / "effective_config.json").read_text())
    node = full
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = "false"
    out = tmp_path / "o"
    argv = _argv("loso-eval", stream_log, str(out)) + ["--config", _write_config(tmp_path, full)]
    assert run_cli(argv) == 2
    assert f"{path[-1]} must be true or false" in capsys.readouterr().err
    assert not (out / "effective_config.json").exists()


@pytest.mark.parametrize(
    "filecfg,key",
    [
        ({"tau_low": "0.5"}, "tau_low"),
        ({"tau_high": True}, "tau_high"),
        ({"lambda": "0.3"}, "lambda"),
        ({"w_crit": [2.5]}, "w_crit"),
        ({"blur_ref": "0.05"}, "blur_ref"),
        ({"guard_threshold": None}, "guard_threshold"),
        # a config holding "thresholds" is read as a whole config
        ({"thresholds": {"tau_low": 0.5, "tau_high": 0.9, "critical_cut": 0.7}}, "adaptive"),
    ],
)
def test_bad_config_shape_exits_2_naming_key(stream_log, tmp_path, capsys, filecfg, key):
    out = tmp_path / "o"
    argv = _argv("loso-eval", stream_log, str(out)) + ["--config", _write_config(tmp_path, filecfg)]
    assert run_cli(argv) == 2
    assert key in capsys.readouterr().err
    assert not (out / "effective_config.json").exists()


def _whole_config(stream_log, tmp_path) -> dict:
    echo = tmp_path / "echo"
    assert run_cli(_argv("loso-eval", stream_log, str(echo))) == 0
    return json.loads((echo / "effective_config.json").read_text())


@pytest.mark.parametrize(
    "path,value,code,named",
    [
        (("thresholds", "tau_low"), "0.5", 2, None),
        (("adaptive", "clamp"), 5, 2, None),
        (("adaptive", "clamp"), [0.1], 2, None),
        (("adaptive", "bogus"), 1, 2, None),
        (("costs", "x2", "gflops"), "3", 2, None),
        (("costs", "x2"), None, 2, None),
        (("utility", "delta_acc_table", "drowsiness"), "x", 2, None),
        (("utility", "lambda"), True, 2, None),
        (("utility", "lambda"), "x", 2, None),
        (("scenario", "sr_effect", "hallucination_targets"), [6.7], 2,
         "scenario.sr_effect.hallucination_targets[0]"),
        (("scenario", "sr_effect", "hallucination_targets"), [99], 3,
         "scenario.sr_effect: hallucination_targets"),
        (("scenario", "sr_effect", "inflation_range"), [0.1], 2, None),
        (("scenario", "model", "distributions", "texting", "first", "mu"), "0.5", 2, None),
        (("scenario", "model", "distributions", "drowsiness", "type"), "gamma", 2, None),
        (("scenario", "model", "distributions", "drowsiness", "mu"), 1.5, 3,
         "scenario.model.distributions.drowsiness: mu 1.5"),
        (("guard_threshold",), float("inf"), 2, None),
        (("critical_fp_conf_cut",), "0.5", 2, None),
        (("critical_fp_conf_cut",), float("nan"), 2, None),
        (("thresholds", "tau_high"), 0.1, 2, "thresholds: need 0 <= tau_low < tau_high"),
    ],
)
def test_bad_whole_config_value_exits_naming_its_path(
    stream_log, tmp_path, capsys, path, value, code, named
):
    full = _whole_config(stream_log, tmp_path)
    node = full
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    out = tmp_path / "o"
    argv = _argv("loso-eval", stream_log, str(out)) + ["--config", _write_config(tmp_path, full)]
    assert run_cli(argv) == code
    assert (named or ".".join(path)) in capsys.readouterr().err
    assert not (out / "effective_config.json").exists()


@pytest.mark.parametrize(
    "key", ["adaptive", "utility", "costs", "scenario", "guard_enabled", "guard_relative",
            "critical_fp_conf_cut"],
)
def test_whole_config_key_without_thresholds_exits_2_naming_thresholds(
    stream_log, tmp_path, capsys, key
):
    full = _whole_config(stream_log, tmp_path)
    out = tmp_path / "o"
    argv = _argv("loso-eval", stream_log, str(out))
    argv += ["--config", _write_config(tmp_path, {key: full[key]})]
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert "thresholds" in err and key in err
    assert not (out / "effective_config.json").exists()


def test_whole_config_less_thresholds_exits_2_instead_of_reverting_sections(
    stream_log, tmp_path, capsys
):
    echo = tmp_path / "echo"
    assert run_cli(_argv("loso-eval", stream_log, str(echo)) + ["--no-guard"]) == 0
    full = json.loads((echo / "effective_config.json").read_text())
    assert full["guard_enabled"] is False
    del full["thresholds"]
    out = tmp_path / "o"
    argv = _argv("loso-eval", stream_log, str(out)) + ["--config", _write_config(tmp_path, full)]
    assert run_cli(argv) == 2
    assert "thresholds" in capsys.readouterr().err
    assert not (out / "effective_config.json").exists()


def test_gate_flat_adaptive_bool_is_not_a_whole_config_key(stream_log, tmp_path):
    out = tmp_path / "o"
    argv = _argv("gate", stream_log, str(out))
    argv += ["--config", _write_config(tmp_path, {"adaptive": True})]
    assert run_cli(argv) == 0
    assert json.loads((out / "effective_config.json").read_text())["adaptive_gate"] is True


@pytest.mark.parametrize(
    "extra,filecfg,want",
    [
        ([], None, (False, False)),
        (["--hallucination"], None, (False, True)),
        (["--uplift"], None, (True, False)),
        (["--uplift", "--hallucination"], None, (True, True)),
        ([], {"hallucination": True}, (False, True)),
        ([], {"uplift": True}, (True, False)),
        (["--no-hallucination"], {"uplift": True, "hallucination": True}, (True, False)),
    ],
    ids=["default", "hallucination-flag", "uplift-flag", "both-flags", "hallucination-key",
         "uplift-key", "flag-over-key"],
)
def test_loso_eval_sr_effects_are_off_each_unless_set(stream_log, tmp_path, extra, filecfg, want):
    out = tmp_path / "o"
    argv = _argv("loso-eval", stream_log, str(out)) + extra
    if filecfg is not None:
        argv += ["--config", _write_config(tmp_path, filecfg)]
    assert run_cli(argv) == 0
    effect = json.loads((out / "effective_config.json").read_text())["scenario"]["sr_effect"]
    assert (effect["uplift_enabled"], effect["hallucination_enabled"]) == want


def test_loso_eval_keeps_sr_effects_of_a_whole_config(stream_log, tmp_path):
    sim = tmp_path / "sim"
    assert run_cli(_argv("simulate", stream_log, str(sim))) == 0
    whole = json.loads((sim / "effective_config.json").read_text())
    effect = whole["scenario"]["sr_effect"]
    assert effect["uplift_enabled"] and effect["hallucination_enabled"]
    out = tmp_path / "o"
    argv = ["loso-eval", "--log", stream_log, "--resamples", "0", "--out", str(out),
            "--config", str(sim / "effective_config.json")]
    assert run_cli(argv) == 0
    echo = json.loads((out / "effective_config.json").read_text())
    assert echo["scenario"]["sr_effect"] == effect


@pytest.mark.parametrize("subcommand", ["gate", "loso-eval", "simulate"])
def test_config_file_not_an_object_exits_2(stream_log, tmp_path, capsys, subcommand):
    cfg = _write_config(tmp_path, [{"tau_low": 0.5}])
    out = tmp_path / "o"
    assert run_cli(_argv(subcommand, stream_log, str(out)) + ["--config", cfg]) == 2
    err = capsys.readouterr().err
    assert cfg in err and "JSON object" in err
    assert not (out / "effective_config.json").exists()


@pytest.mark.parametrize(
    "text,line,column",
    [("{'tau_low': 0.5}", 1, 2), ('{\n  "tau_low": 0.5,\n}\n', 3, 1), ("", 1, 1)],
    ids=["single-quotes", "trailing-comma", "empty"],
)
def test_config_file_invalid_json_exits_2_naming_file_line_and_column(
    stream_log, tmp_path, capsys, text, line, column
):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    out = tmp_path / "o"
    assert run_cli(_argv("gate", stream_log, str(out)) + ["--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert str(cfg) in err and f"line {line} column {column}" in err
    assert not (out / "effective_config.json").exists()


def test_config_file_not_utf8_exits_2_naming_file(stream_log, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(b'{"tau_low": "\xff"}')
    out = tmp_path / "o"
    assert run_cli(_argv("gate", stream_log, str(out)) + ["--config", str(cfg)]) == 2
    assert f"{cfg}: config file is not UTF-8 text" in capsys.readouterr().err


@pytest.mark.parametrize(
    "subcommand,filecfg,key",
    [
        ("gate", {"tau_lo": 0.3}, "tau_lo"),
        ("gate", {"tau_low": 0.3, "bogus_key": 1}, "bogus_key"),
        ("calibrate", {"seed": 3, "guard_enabled_": False}, "guard_enabled_"),
        ("simulate", {"seed": 3, "n_per_class": 5, "subjects": 3, "resample": 0}, "resample"),
    ],
)
def test_config_key_no_subcommand_reads_exits_2_naming_it(
    stream_log, tmp_path, capsys, subcommand, filecfg, key
):
    out = tmp_path / "o"
    argv = _argv(subcommand, stream_log, str(out)) + ["--config", _write_config(tmp_path, filecfg)]
    assert run_cli(argv) == 2
    assert f"config key {key!r} is read by no subcommand" in capsys.readouterr().err
    assert not out.exists()


def test_whole_config_with_unknown_top_level_key_exits_2_naming_it(stream_log, tmp_path, capsys):
    full = dict(_whole_config(stream_log, tmp_path), bogus_key=1)
    out = tmp_path / "o"
    argv = _argv("loso-eval", stream_log, str(out)) + ["--config", _write_config(tmp_path, full)]
    assert run_cli(argv) == 2
    assert "'bogus_key'" in capsys.readouterr().err
    assert not out.exists()


def test_flat_config_keys_of_other_subcommands_are_accepted(stream_log, tmp_path):
    cfg = _write_config(tmp_path, {"tau_low": 0.5, "steps": 3, "n_per_class": 5, "guard": False})
    out = tmp_path / "o"
    assert run_cli(_argv("gate", stream_log, str(out)) + ["--config", cfg]) == 0
    echo = json.loads((out / "effective_config.json").read_text())
    assert echo["thresholds"]["tau_low"] == 0.5 and "steps" not in echo


@pytest.mark.parametrize("nested", [False, True], ids=["top-level", "nested"])
def test_config_key_given_twice_exits_2_naming_it(stream_log, tmp_path, capsys, nested):
    if nested:
        text = json.dumps(_whole_config(stream_log, tmp_path))
        text = text.replace('"thresholds": {', '"thresholds": {"tau_low": 0.2, ', 1)
    else:
        text = '{"tau_low": 0.1, "tau_high": 0.9, "tau_low": 0.5}'
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    out = tmp_path / "o"
    assert run_cli(_argv("loso-eval", stream_log, str(out)) + ["--config", str(cfg)]) == 2
    assert f"{cfg}: config key 'tau_low' is given more than once" in capsys.readouterr().err
    assert not out.exists()


def _error_classes(base=errors.SrgateError):
    for cls in base.__subclasses__():
        yield cls
        yield from _error_classes(cls)


@pytest.mark.parametrize("cls", [errors.SrgateError, *_error_classes()], ids=lambda c: c.__name__)
def test_every_srgate_error_exits_3_or_4_without_a_traceback(
    stream_log, tmp_path, monkeypatch, capsys, cls
):
    exc = cls(2, "boom") if issubclass(cls, errors.MalformedRecord) else cls("boom")

    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(records, "ingest_log", fail)
    code = run_cli(["gate", "--log", stream_log, "--out", str(tmp_path / "o")])
    assert code == (4 if issubclass(cls, errors.IoFailure) else 3)
    assert "boom" in capsys.readouterr().err


@pytest.mark.parametrize(
    "subcommand,filecfg,key",
    [
        ("simulate", {"seed": 4.7}, "seed"),
        ("simulate", {"seed": True}, "seed"),
        ("simulate", {"seed": "7"}, "seed"),
        ("simulate", {"n_per_class": 5.9}, "n_per_class"),
        ("simulate", {"subjects": "3"}, "subjects"),
        ("simulate", {"policy": 1}, "policy"),
        ("loso-eval", {"seed": 4.7}, "seed"),
        ("loso-eval", {"policy": ["gate"]}, "policy"),
        ("calibrate", {"seed": "3"}, "seed"),
        ("calibrate", {"seed": 3.0}, "seed"),
        ("simulate", {"policy": "gate_fancy"}, "policy"),
    ],
)
def test_bad_run_level_key_exits_2_naming_key(stream_log, tmp_path, capsys, subcommand, filecfg, key):
    base = {"seed": 3, "n_per_class": 5, "subjects": 3} if subcommand == "simulate" else {"seed": 3}
    out = tmp_path / "o"
    argv = [subcommand, "--resamples", "0", "--out", str(out)]
    if subcommand != "simulate":
        argv += ["--log", stream_log]
    argv += ["--config", _write_config(tmp_path, {**base, **filecfg})]
    assert run_cli(argv) == 2
    assert f"{key} must be" in capsys.readouterr().err
    assert not (out / "effective_config.json").exists()


def _outputs(directory) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("subcommand", ["gate", "calibrate", "guard", "sweep", "simulate", "loso-eval"])
def test_config_echo_fed_back_reproduces_every_output(stream_log, tmp_path, subcommand):
    first = tmp_path / "first"
    argv = _argv(subcommand, stream_log, str(first))
    if subcommand == "calibrate":
        argv += ["--seed", "3", "--resamples", "20"]
    assert run_cli(argv) == 0
    again = tmp_path / "again"
    argv = [subcommand, "--config", str(first / "effective_config.json"), "--out", str(again)]
    if subcommand != "simulate":
        argv += ["--log", stream_log]
    assert run_cli(argv) == 0
    assert _outputs(again) == _outputs(first)


@pytest.fixture(scope="module")
def fuzz_run(tmp_path_factory):
    """A small log and the whole config its loso-eval run echoes."""
    work = tmp_path_factory.mktemp("fuzz")
    log = work / "preds.log"
    write_log(sample_stream(ExperimentConfig().scenario.model, 4, 3, seed=3), str(log))
    echo = work / "echo"
    assert run_cli(["loso-eval", "--log", str(log), "--seed", "3", "--resamples", "0",
                    "--out", str(echo)]) == 0
    return str(log), json.loads((echo / "effective_config.json").read_text())


def _leaves(node, path=()):
    """Key paths of every object member, nested objects included."""
    for key, value in node.items():
        yield path + (key,)
        if isinstance(value, dict):
            yield from _leaves(value, path + (key,))


_CORRUPTIONS = ["x", True, None, float("nan"), [0.5], {"a": 1}, "delete", "sibling"]


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_corrupted_whole_config_exits_cleanly_or_round_trips(fuzz_run, data):
    log, full = fuzz_run
    path = data.draw(st.sampled_from(sorted(_leaves(full))), label="path")
    corruption = data.draw(st.sampled_from(_CORRUPTIONS), label="corruption")
    cfg = json.loads(json.dumps(full))
    node = cfg
    for key in path[:-1]:
        node = node[key]
    if corruption == "delete":
        del node[path[-1]]
    elif corruption == "sibling":
        node["bogus_key"] = 1
    else:
        node[path[-1]] = corruption
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        (work / "cfg.json").write_text(json.dumps(cfg))
        code = run_cli(["loso-eval", "--log", log, "--config", str(work / "cfg.json"),
                        "--out", str(work / "one")])
        assert code in (0, 2, 3, 4)
        if code == 0:
            echo = work / "one" / "effective_config.json"
            again = ["loso-eval", "--log", log, "--config", str(echo), "--out", str(work / "two")]
            assert run_cli(again) == 0
            assert _outputs(work / "two") == _outputs(work / "one")


@pytest.mark.parametrize("flag", ["--adaptive", "--no-adaptive"])
def test_gate_echo_fed_back_reproduces_the_run(stream_log, tmp_path, flag):
    first = tmp_path / "first"
    assert run_cli(["gate", "--log", stream_log, flag, "--out", str(first)]) == 0
    echo = first / "effective_config.json"
    assert json.loads(echo.read_text())["adaptive_gate"] is (flag == "--adaptive")
    again = tmp_path / "again"
    assert run_cli(["gate", "--log", stream_log, "--config", str(echo), "--out", str(again)]) == 0
    assert (again / "decisions.csv").read_bytes() == (first / "decisions.csv").read_bytes()
    assert (again / "effective_config.json").read_bytes() == echo.read_bytes()
    # the two policies do write different decisions on this log
    utilities = {r["utility_4x"] for r in _read_csv(first / "decisions.csv")}
    assert (utilities == {"0.0"}) is (flag == "--no-adaptive")


def test_gate_reads_a_whole_config_without_its_switch_as_fixed_policy(stream_log, tmp_path):
    echo = tmp_path / "echo"
    assert run_cli(_argv("loso-eval", stream_log, str(echo))) == 0
    out = tmp_path / "o"
    argv = _argv("gate", stream_log, str(out)) + ["--config", str(echo / "effective_config.json")]
    assert run_cli(argv) == 0
    assert json.loads((out / "effective_config.json").read_text())["adaptive_gate"] is False
    fixed = tmp_path / "fixed"
    assert run_cli(_argv("gate", stream_log, str(fixed))) == 0
    assert (out / "decisions.csv").read_bytes() == (fixed / "decisions.csv").read_bytes()


def test_gate_writes_decision_csv(stream_log, tmp_path):
    out = tmp_path / "out"
    code = run_cli(
        ["gate", "--log", stream_log, "--tau-low", "0.60", "--tau-high", "0.85", "--out", str(out)]
    )
    assert code == 0
    rows = _read_csv(out / "decisions.csv")
    assert len(rows) == 175
    assert set(rows[0]) == {
        "clip_id", "subject_id", "confidence", "criticality", "level", "reason",
        "tau_used", "utility_none", "utility_2x", "utility_4x",
    }
    assert all(r["level"] in ("none", "2x", "4x") for r in rows)
    assert (out / "effective_config.json").exists()


def test_calibrate_requires_seed_for_bootstrap(stream_log, tmp_path):
    assert run_cli(["calibrate", "--log", stream_log, "--out", str(tmp_path)]) == 2


def test_calibrate_writes_report_and_reliability(stream_log, tmp_path):
    out = tmp_path / "cal"
    code = run_cli(
        [
            "calibrate", "--log", stream_log, "--bins", "10",
            "--resamples", "20", "--seed", "7", "--out", str(out),
        ]
    )
    assert code == 0
    report = json.loads((out / "calibration_report.json").read_text())
    assert report["schema_version"] == 1
    assert set(report["calibration"]["ci"]) == {"ece", "aupr:1", "aupr:2", "aupr:6"}
    rows = _read_csv(out / "reliability.csv")
    assert len(rows) == 10
    assert list(rows[0]) == ["bin_lo", "bin_hi", "count", "mean_conf", "accuracy"]
    assert (out / "pr_drowsiness.csv").exists()


def test_guard_subcommand_outcomes(tmp_path):
    recs = [
        make_record(confidence=0.55, predicted=0, true_class=0, clip="sr",
                    artifact_score=0.8, subject="S01"),
        make_record(confidence=0.55, predicted=0, true_class=0, clip="clean",
                    artifact_score=0.2, subject="S01"),
        make_record(confidence=0.95, predicted=0, true_class=0, clip="skip",
                    subject="S01", ssim_vs_hr=0.6, perceptual_loss=0.1),
    ]
    log = tmp_path / "g.log"
    write_log(recs, str(log))
    out = tmp_path / "out"
    assert run_cli(["guard", "--log", str(log), "--out", str(out)]) == 0
    rows = {r["clip_id"]: r for r in _read_csv(out / "guard.csv")}
    assert rows["sr"]["triggered"] == "True"
    assert float(rows["sr"]["final_confidence"]) == pytest.approx(0.55 * 0.85)
    assert rows["clean"]["triggered"] == "False"
    assert rows["skip"]["level"] == "none"
    assert rows["skip"]["artifact_label"] == "True"


@pytest.mark.parametrize("switch", [["--no-guard"], {"guard": False}], ids=["flag", "flat-key"])
def test_guard_off_keeps_every_enhanced_record(tmp_path, switch):
    recs = [
        make_record(confidence=0.55, predicted=0, true_class=0, clip="sr",
                    artifact_score=0.8, subject="S01"),
    ]
    log = tmp_path / "g.log"
    write_log(recs, str(log))
    out = tmp_path / "out"
    argv = ["guard", "--log", str(log), "--out", str(out)]
    if isinstance(switch, dict):
        argv += ["--config", _write_config(tmp_path, switch)]
    else:
        argv += switch
    assert run_cli(argv) == 0
    row = _read_csv(out / "guard.csv")[0]
    assert row["level"] != "none"
    assert (row["triggered"], row["used_sr"], row["final_confidence"]) == ("False", "True", "0.55")
    assert json.loads((out / "effective_config.json").read_text())["guard_enabled"] is False


def test_sweep_csv_columns(stream_log, tmp_path):
    out = tmp_path / "sw"
    code = run_cli(
        ["sweep", "--log", stream_log, "--rel-range", "0.25", "--steps", "3", "--out", str(out)]
    )
    assert code == 0
    rows = _read_csv(out / "sweep.csv")
    assert len(rows) == 9
    assert list(rows[0]) == [
        "scale_low", "scale_high", "mean_utility", "mean_cost_gflops",
        "n_none", "n_2x", "n_4x",
    ]


def test_pareto_subcommand(tmp_path):
    points = tmp_path / "methods.csv"
    points.write_text(
        "name,accuracy,cost,fps,power\n"
        "bicubic,0.287,1.2,52.4,5.0\n"
        "car4x,0.359,143.0,4.2,26.4\n"
        "fsrcnn,0.323,8.2,16.7,6.0\n"
        "slowbad,0.30,200.0,1.0,30.0\n"
    )
    out = tmp_path / "pareto"
    assert run_cli(["pareto", "--points", str(points), "--baseline", "bicubic", "--out", str(out)]) == 0
    rows = {r["name"]: r for r in _read_csv(out / "pareto.csv")}
    assert rows["bicubic"]["rel_efficiency"] == "1.0"
    assert rows["bicubic"]["on_frontier"] == "True"
    assert rows["fsrcnn"]["on_frontier"] == "True"
    assert rows["slowbad"]["on_frontier"] == "False"
    # ref defaults to the first non-baseline with nonzero efficiency (car4x)
    eff_car = (0.359 - 0.287) * 4.2 / 26.4
    eff_fsr = (0.323 - 0.287) * 16.7 / 6.0
    assert float(rows["fsrcnn"]["rel_efficiency"]) == pytest.approx(eff_fsr / eff_car)


def test_quality_subcommand(tmp_path):
    a = tmp_path / "a.pgm"
    a.write_text("P2\n3 3\n255\n0 0 0 0 255 0 0 0 0\n")
    b = tmp_path / "b.pgm"
    b.write_text("P2\n3 3\n255\n" + " ".join(["128"] * 9) + "\n")
    out = tmp_path / "q"
    code = run_cli(
        ["quality", str(a), str(b), "--ssim-ref", str(b), "--clip", "--out", str(out)]
    )
    assert code == 0
    rows = _read_csv(out / "quality.csv")
    assert len(rows) == 2
    assert float(rows[1]["ssim_vs_ref"]) == 1.0
    assert float(rows[1]["laplacian_variance"]) == 0.0
    temporal = _read_csv(out / "temporal.csv")
    assert len(temporal) == 1


@pytest.mark.parametrize("sample", ["nan", "1.5", "1e2", "-1"])
def test_quality_rejects_non_integer_p2_sample_naming_the_file(tmp_path, capsys, sample):
    path = tmp_path / "a.pgm"
    path.write_text("P2\n3 3\n255\n0 0 0 0 " + sample + " 0 0 0 0\n")
    assert run_cli(["quality", str(path), "--out", str(tmp_path / "q")]) == 3
    err = capsys.readouterr().err
    assert f"{path}: non-numeric sample data" in err


@pytest.mark.parametrize("clip", [False, True], ids=["lone", "clip"])
def test_quality_too_small_frame_exits_3_naming_the_file(tmp_path, capsys, clip):
    big = tmp_path / "big.pgm"
    big.write_text("P2\n3 3\n255\n" + " ".join(["10"] * 9) + "\n")
    tiny = tmp_path / "tiny.pgm"
    tiny.write_text("P2\n2 2\n255\n1 2 3 4\n")
    argv = ["quality", str(big), str(tiny), str(big), "--clip"] if clip else ["quality", str(tiny)]
    out = tmp_path / "q"
    assert run_cli(argv + ["--out", str(out)]) == 3
    assert f"{tiny}: need >= 3x3, got 2x2" in capsys.readouterr().err
    assert not out.exists()


def test_quality_loads_each_distinct_path_once(tmp_path, monkeypatch):
    a = tmp_path / "a.pgm"
    a.write_text("P2\n3 3\n255\n" + " ".join(["10"] * 9) + "\n")
    b = tmp_path / "b.pgm"
    b.write_text("P2\n3 3\n255\n" + " ".join(["20"] * 9) + "\n")
    calls = []
    load = quality.load_pgm
    monkeypatch.setattr(quality, "load_pgm", lambda path: calls.append(path) or load(path))
    argv = ["quality", str(a), str(b), str(a), "--ssim-ref", str(a), "--clip"]
    assert run_cli(argv + ["--out", str(tmp_path / "q")]) == 0
    assert calls == [str(a), str(b)]
    rows = _read_csv(tmp_path / "q" / "quality.csv")
    assert [r["path"] for r in rows] == [str(a), str(b), str(a)]
    assert [float(r["ssim_vs_ref"]) for r in rows][::2] == [1.0, 1.0]


def test_quality_reports_a_bad_ssim_ref_before_a_bad_image(tmp_path, capsys):
    ref = tmp_path / "ref.pgm"
    ref.write_text("P2\n3 3\n255\n1 2\n")
    img = tmp_path / "img.pgm"
    img.write_text("P7\n")
    assert run_cli(["quality", str(img), "--ssim-ref", str(ref), "--out", str(tmp_path / "q")]) == 3
    assert f"{ref}: 2 samples, expected 9" in capsys.readouterr().err


def test_simulate_config_echo_reproduces(tmp_path):
    out1 = tmp_path / "one"
    out2 = tmp_path / "two"
    base = [
        "simulate", "--seed", "11", "--n-per-class", "20", "--subjects", "4",
        "--resamples", "10", "--policy", "gate_adaptive",
    ]
    assert run_cli(base + ["--out", str(out1)]) == 0
    assert (
        run_cli(["simulate", "--config", str(out1 / "effective_config.json"), "--out", str(out2)])
        == 0
    )
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    assert (out1 / "stream.log").read_bytes() == (out2 / "stream.log").read_bytes()


def test_gate_adaptive_flag_fills_utilities(stream_log, tmp_path):
    out = tmp_path / "adaptive"
    code = run_cli(["gate", "--log", stream_log, "--adaptive", "--out", str(out)])
    assert code == 0
    rows = _read_csv(out / "decisions.csv")
    # the adaptive path varies tau_used per record and audits utilities
    assert len({r["tau_used"] for r in rows}) > 1
    assert all(float(r["utility_none"]) == 0.0 for r in rows)


def test_simulate_emits_per_record_guard_outcomes(tmp_path):
    out = tmp_path / "sim"
    code = run_cli(
        ["simulate", "--seed", "2", "--n-per-class", "8", "--subjects", "3",
         "--resamples", "0", "--out", str(out)]
    )
    assert code == 0
    rows = _read_csv(out / "guard_outcomes.csv")
    assert len(rows) == 56
    assert list(rows[0]) == ["clip_id", "p_artifact", "triggered", "used_sr", "final_confidence"]
    assert any(r["triggered"] == "True" for r in rows)


def test_loso_eval_rerun_byte_identical(stream_log, tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = run_cli(
            ["loso-eval", "--log", stream_log, "--seed", "5", "--resamples", "15", "--out", str(out)]
        )
        assert code == 0
        outs.append((out / "report.json").read_bytes())
    assert outs[0] == outs[1]


def test_format_flag_selects_emission(stream_log, tmp_path):
    csv_out = tmp_path / "csvonly"
    code = run_cli(
        ["loso-eval", "--log", stream_log, "--seed", "4", "--resamples", "0",
         "--format", "csv", "--out", str(csv_out)]
    )
    assert code == 0
    assert (csv_out / "reliability.csv").exists()
    assert not (csv_out / "report.json").exists()

    rep_out = tmp_path / "reportonly"
    code = run_cli(
        ["loso-eval", "--log", stream_log, "--seed", "4", "--resamples", "0",
         "--format", "report", "--out", str(rep_out)]
    )
    assert code == 0
    assert (rep_out / "report.json").exists()
    assert not (rep_out / "reliability.csv").exists()


def test_flag_overrides_config_file(stream_log, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tau_low": 0.5, "tau_high": 0.9}))
    out = tmp_path / "o"
    code = run_cli(
        ["gate", "--log", stream_log, "--config", str(cfg), "--tau-high", "0.8", "--out", str(out)]
    )
    assert code == 0
    echo = json.loads((out / "effective_config.json").read_text())
    assert echo["thresholds"]["tau_low"] == 0.5   # from file
    assert echo["thresholds"]["tau_high"] == 0.8  # flag wins


# --- the flags each subcommand takes ----------------------------------------------

_LOG_FLAGS = {"--log", "--strict"}
_THRESHOLD_FLAGS = {"--tau-low", "--tau-high", "--critical-cut"}
_ADAPTIVE_FLAGS = {"--tau-base", "--alpha-blur", "--alpha-light", "--blur-ref"}
_UTILITY_FLAGS = {"--lambda", "--w-crit"}
_GUARD_FLAGS = {
    "--guard", "--no-guard", "--guard-threshold", "--guard-discount",
    "--guard-absolute", "--no-guard-absolute",
}
_METRIC_FLAGS = {"--bins", "--resamples", "--ci-level", "--seed", "--format"}
_EXPERIMENT_FLAGS = (
    _THRESHOLD_FLAGS | _ADAPTIVE_FLAGS | _UTILITY_FLAGS | _GUARD_FLAGS | _METRIC_FLAGS
    | {"--uplift", "--no-uplift", "--hallucination", "--no-hallucination", "--policy", "--threads"}
)

# every flag of every subcommand; a flag is added here only with the code that reads it
SUBCOMMAND_FLAGS = {
    "quality": {"--out", "--ssim-ref", "--clip"},
    "gate": {"--out", "--config", "--adaptive", "--no-adaptive"}
    | _LOG_FLAGS | _THRESHOLD_FLAGS | _ADAPTIVE_FLAGS | _UTILITY_FLAGS,
    "calibrate": {"--out", "--config"} | _LOG_FLAGS | _METRIC_FLAGS,
    "guard": {"--out", "--config"} | _LOG_FLAGS | _THRESHOLD_FLAGS | _GUARD_FLAGS,
    "sweep": {"--out", "--config", "--rel-range", "--steps", "--objective"}
    | _LOG_FLAGS | _THRESHOLD_FLAGS | _UTILITY_FLAGS,
    "pareto": {"--out", "--points", "--baseline", "--ref"},
    "simulate": {"--out", "--config", "--n-per-class", "--subjects"} | _EXPERIMENT_FLAGS,
    "loso-eval": {"--out", "--config"} | _LOG_FLAGS | _EXPERIMENT_FLAGS,
}


def test_each_subcommand_takes_exactly_its_flags():
    parser = build_parser()
    (commands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    got = {
        name: {s for a in sub._actions for s in a.option_strings} - {"-h", "--help"}
        for name, sub in commands.choices.items()
    }
    assert got == SUBCOMMAND_FLAGS


@pytest.mark.parametrize(
    "argv",
    [
        ["quality", "{pgm}", "--config", "{cfg}"],
        ["quality", "{pgm}", "--strict"],
        ["pareto", "--points", "{points}", "--config", "{cfg}"],
        ["pareto", "--points", "{points}", "--strict"],
        ["simulate", "--seed", "1", "--n-per-class", "3", "--resamples", "0", "--strict"],
    ],
    ids=["quality-config", "quality-strict", "pareto-config", "pareto-strict", "simulate-strict"],
)
def test_flag_the_subcommand_never_reads_exits_2(tmp_path, capsys, argv):
    paths = {
        "pgm": tmp_path / "a.pgm",
        "cfg": tmp_path / "cfg.json",
        "points": tmp_path / "points.csv",
    }
    paths["pgm"].write_text("P2\n3 3\n255\n" + " ".join(["10"] * 9) + "\n")
    paths["cfg"].write_text(json.dumps({"bogus": 1}))
    paths["points"].write_text("name,accuracy,cost,fps,power\nbicubic,0.287,1.2,52.4,5.0\n")
    argv = [arg.format(**paths) for arg in argv]
    assert run_cli(argv + ["--out", str(tmp_path / "o")]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_pareto_power_w_column_exits_3_naming_power(tmp_path, capsys):
    points = tmp_path / "methods.csv"
    points.write_text("name,accuracy,cost,fps,power_w\nbicubic,0.287,1.2,52.4,5.0\n")
    assert run_cli(["pareto", "--points", str(points), "--out", str(tmp_path / "o")]) == 3
    assert "'power'" in capsys.readouterr().err


@pytest.mark.parametrize("adaptive", [True, False], ids=["adaptive", "fixed"])
def test_gate_utility_columns_are_the_audit_of_adaptive_rows_only(stream_log, tmp_path, adaptive):
    out = tmp_path / "g"
    flag = "--adaptive" if adaptive else "--no-adaptive"
    assert run_cli(["gate", "--log", stream_log, flag, "--out", str(out)]) == 0
    config = ExperimentConfig()
    recs = records.ingest_log(stream_log)
    rows = _read_csv(out / "decisions.csv")
    assert [r["clip_id"] for r in rows] == [r.clip_id for r in recs]
    for rec, row in zip(recs, rows):
        if adaptive:
            want = [
                gating.expected_utility(
                    gating.delta_acc_estimate(config.utility, rec.predicted_class, level, rec.confidence),
                    config.utility.weight(rec.criticality),
                    config.costs.utility_cost(level),
                    config.utility.lam,
                )
                for level in records.SRLevel
            ]
        else:
            want = (0.0, 0.0, 0.0)
        assert [row["utility_none"], row["utility_2x"], row["utility_4x"]] == list(map(repr, want))


def test_failing_simulate_writes_no_output(tmp_path, capsys):
    out = tmp_path / "sim"
    argv = ["simulate", "--seed", "1", "--subjects", "1", "--n-per-class", "3", "--resamples", "0"]
    assert run_cli(argv + ["--out", str(out)]) == 3
    assert "need >= 2 subjects, got 1" in capsys.readouterr().err
    assert not out.exists()


def test_failing_loso_eval_creates_no_output_directory(tmp_path, capsys):
    log = tmp_path / "one.log"
    write_log(sample_stream(ExperimentConfig().scenario.model, 3, 1, seed=1), str(log))
    out = tmp_path / "eval"
    assert run_cli(["loso-eval", "--log", str(log), "--seed", "1", "--out", str(out)]) == 3
    assert "need >= 2 subjects, got 1" in capsys.readouterr().err
    assert not out.exists()


def test_failing_calibrate_creates_no_output_directory(tmp_path, capsys):
    # no record of a critical class, so its AUPR is undefined on every resample
    log = tmp_path / "noncritical.log"
    recs = [make_record(subject=f"S{i % 2}", clip=f"c{i}", true_class=i % 2 * 3) for i in range(8)]
    write_log(recs, str(log))
    out = tmp_path / "cal"
    argv = ["calibrate", "--log", str(log), "--seed", "1", "--resamples", "5", "--out", str(out)]
    assert run_cli(argv) == 3
    assert "defined resamples" in capsys.readouterr().err
    assert not out.exists()


def _write_p2(path, width, height, values=None):
    values = [10] * (width * height) if values is None else values
    path.write_text(f"P2\n{width} {height}\n255\n" + " ".join(map(str, values)) + "\n")
    return str(path)


def test_quality_clip_shape_mismatch_names_both_files(tmp_path, capsys):
    a = _write_p2(tmp_path / "a.pgm", 3, 3)
    b = _write_p2(tmp_path / "b.pgm", 4, 3)
    out = tmp_path / "q"
    assert run_cli(["quality", a, b, "--clip", "--out", str(out)]) == 3
    assert f"--clip: {a} vs {b}: 3x3 vs 4x3" in capsys.readouterr().err
    assert not out.exists()


def test_quality_ssim_ref_shape_mismatch_names_both_files(tmp_path, capsys):
    ref = _write_p2(tmp_path / "ref.pgm", 4, 3)
    img = _write_p2(tmp_path / "img.pgm", 3, 3)
    out = tmp_path / "q"
    assert run_cli(["quality", img, "--ssim-ref", ref, "--out", str(out)]) == 3
    assert f"--ssim-ref: {img} vs {ref}: 3x3 vs 4x3" in capsys.readouterr().err
    assert not out.exists()


def test_quality_reports_a_clip_mismatch_before_a_later_unreadable_frame(tmp_path, capsys):
    a = _write_p2(tmp_path / "a.pgm", 3, 3)
    b = _write_p2(tmp_path / "b.pgm", 4, 3)
    bad = tmp_path / "bad.pgm"
    bad.write_text("P7\n")
    assert run_cli(["quality", a, b, str(bad), "--clip", "--out", str(tmp_path / "q")]) == 3
    assert f"--clip: {a} vs {b}" in capsys.readouterr().err


def test_quality_with_a_bad_frame_creates_no_output_directory(tmp_path, capsys):
    good = _write_p2(tmp_path / "good.pgm", 3, 3)
    bad = tmp_path / "bad.pgm"
    bad.write_text("P2\n3 3\n255\n1 2\n")
    out = tmp_path / "q"
    assert run_cli(["quality", good, str(bad), "--out", str(out)]) == 3
    assert f"{bad}: 2 samples, expected 9" in capsys.readouterr().err
    assert not out.exists()


def test_quality_one_frame_clip_fails_before_loading_anything(tmp_path, capsys, monkeypatch):
    a = _write_p2(tmp_path / "a.pgm", 3, 3)
    calls = []
    monkeypatch.setattr(quality, "load_pgm", calls.append)
    out = tmp_path / "q"
    assert run_cli(["quality", a, "--clip", "--ssim-ref", a, "--out", str(out)]) == 3
    assert "need >= 2 frames, got 1" in capsys.readouterr().err
    assert calls == []
    assert not out.exists()


def test_quality_holds_at_most_three_frames_at_once(tmp_path, monkeypatch):
    rng = np.random.default_rng(5)
    paths = [
        _write_p2(tmp_path / f"f{i:02d}.pgm", 4, 4, rng.integers(0, 256, 16).tolist())
        for i in range(12)
    ]
    ref = _write_p2(tmp_path / "ref.pgm", 4, 4, rng.integers(0, 256, 16).tolist())
    alive = peak = 0
    load = quality.load_pgm

    def released():
        nonlocal alive
        alive -= 1

    def counted(path):
        nonlocal alive, peak
        img = load(path)
        alive += 1
        peak = max(peak, alive)
        weakref.finalize(img, released)
        return img

    monkeypatch.setattr(quality, "load_pgm", counted)
    assert run_cli(["quality", *paths, "--clip", "--ssim-ref", ref, "--out", str(tmp_path / "q")]) == 0
    assert peak <= 3


@pytest.mark.parametrize(
    "row",
    ["car4x,0.359,inf,4.2,26.4", "car4x,0.359,143.0,nan,26.4", "car4x,0.359,143.0,4.2,inf",
     "car4x,nan,143.0,4.2,26.4"],
    ids=["cost-inf", "fps-nan", "power-inf", "accuracy-nan"],
)
def test_pareto_non_finite_value_exits_3_naming_the_line(tmp_path, capsys, row):
    points = tmp_path / "methods.csv"
    points.write_text(f"name,accuracy,cost,fps,power\nbicubic,0.287,1.2,52.4,5.0\n{row}\n")
    out = tmp_path / "pareto"
    assert run_cli(["pareto", "--points", str(points), "--out", str(out)]) == 3
    assert "line 3: bad method point" in capsys.readouterr().err
    assert not out.exists()


def test_pareto_duplicate_method_name_exits_3_naming_the_line(tmp_path, capsys):
    points = tmp_path / "methods.csv"
    points.write_text(
        "name,accuracy,cost,fps,power\n"
        "base,0.287,1.2,52.4,5.0\n"
        "car4x,0.359,143.0,4.2,26.4\n"
        "base,0.30,2.0,40.0,5.0\n"
    )
    out = tmp_path / "pareto"
    argv = ["pareto", "--points", str(points), "--baseline", "base", "--out", str(out)]
    assert run_cli(argv) == 3
    assert "line 4: duplicate method name 'base'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("subcommand", ["gate", "loso-eval", "calibrate", "guard", "sweep"])
def test_log_not_utf8_exits_3_naming_the_line(tmp_path, capsys, subcommand):
    good = json.dumps(record_to_obj(make_record())).encode()
    log = tmp_path / "bad.log"
    log.write_bytes(b"\n".join([good, good, good.replace(b'"c0"', b'"c\xff"')]) + b"\n")
    argv = _argv(subcommand, str(log), str(tmp_path / "o"))
    if subcommand == "calibrate":
        argv += ["--seed", "1"]
    assert run_cli(argv) == 3
    assert "line 3: not UTF-8 text" in capsys.readouterr().err


def test_pareto_points_not_utf8_exits_3_naming_the_line(tmp_path, capsys):
    points = tmp_path / "methods.csv"
    points.write_bytes(
        b"name,accuracy,cost,fps,power\nbicubic,0.287,1.2,52.4,5.0\ncar\xff4x,0.359,143.0,4.2,26.4\n"
    )
    out = tmp_path / "pareto"
    assert run_cli(["pareto", "--points", str(points), "--out", str(out)]) == 3
    assert "line 3: not UTF-8 text" in capsys.readouterr().err
    assert not out.exists()


def test_log_line_repeating_a_key_exits_3_naming_it(tmp_path, capsys):
    line = json.dumps(record_to_obj(make_record(confidence=0.7)))
    log = tmp_path / "preds.log"
    log.write_text(line.replace('"criticality": 0', '"criticality": 0, "criticality": 1') + "\n")
    assert run_cli(["gate", "--log", str(log), "--out", str(tmp_path / "o")]) == 3
    assert "line 1: repeated key 'criticality'" in capsys.readouterr().err


def test_calibrate_converts_its_log_once(stream_log, tmp_path, monkeypatch):
    calls = count_conversions(monkeypatch)
    argv = ["calibrate", "--log", stream_log, "--seed", "1", "--resamples", "5",
            "--format", "both", "--out", str(tmp_path / "cal")]
    assert run_cli(argv) == 0
    assert calls == [len(records.ingest_log(stream_log))]
    assert (tmp_path / "cal" / "pr_drowsiness.csv").exists()


def test_pareto_with_an_unknown_baseline_creates_no_output_directory(tmp_path, capsys):
    points = tmp_path / "methods.csv"
    points.write_text("name,accuracy,cost,fps,power\nbicubic,0.287,1.2,52.4,5.0\n")
    out = tmp_path / "pareto"
    assert run_cli(["pareto", "--points", str(points), "--baseline", "zz", "--out", str(out)]) == 3
    assert "baseline 'zz' not among points" in capsys.readouterr().err
    assert not out.exists()
