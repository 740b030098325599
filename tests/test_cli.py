"""Command-line behavior: exit codes, flag precedence, artifact stability."""

import json
import re
import struct
import subprocess
import sys

import pytest

from tinyclap import cli
from tinyclap import trainer as tr
from tinyclap.config import run_config_from_dict, run_config_to_dict, split_seed
from tinyclap.corpus import load_manifest
from tinyclap.errors import FormatError, InvalidConfig

TINY = {
    "seed": 0,
    "corpus": {
        "n_classes": 8,
        "frame_dim": 8,
        "events_per_clip": 2,
        "frames_per_event": 3,
        "noise_sigma": 0.2,
        "train_primary_records": 24,
        "train_temporal_records": 12,
        "test_records": 12,
        "labeled_records": 12,
    },
    "train": {
        "steps": 4,
        "batch_size": 8,
        "warmup_steps": 2,
        "temporal_fraction": 0.25,
        "encoder": {
            "frame_dim": 8,
            "token_embed_dim": 8,
            "max_positions": 16,
            "hidden_dim": 12,
            "shared_dim": 6,
        },
    },
    "eval": {"recall_ks": [1, 5]},
}

MANIFESTS = ("train_primary", "train_temporal", "test", "labeled")


@pytest.fixture()
def tiny_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(TINY))
    return path


@pytest.fixture()
def synth_dir(tiny_config, tmp_path):
    out = tmp_path / "runs"
    assert cli.main(["synth", "--config", str(tiny_config), "--out", str(out)]) == 0
    return out


@pytest.fixture()
def trained_dir(tiny_config, synth_dir):
    assert cli.main(["train", "--config", str(tiny_config), "--out", str(synth_dir)]) == 0
    return synth_dir


# -- parsing and exit codes ----------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["--help"],
        ["synth", "--help"],
        ["train", "--help"],
        ["eval", "--help"],
        ["tclassify", "--help"],
        ["gradcheck", "--help"],
        ["repro", "--help"],
    ],
)
def test_help_exits_zero(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 0
    assert "usage" in capsys.readouterr().out


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "tinyclap.cli", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "synth" in proc.stdout and "repro" in proc.stdout


def test_unknown_command_exits_one(capsys):
    assert cli.main(["bogus"]) == 1
    assert "error:" in capsys.readouterr().err


def test_missing_required_flag_exits_one(capsys):
    assert cli.main(["eval", "--out", "x"]) == 1
    assert "--checkpoint" in capsys.readouterr().err


def test_missing_config_file_exits_one(tmp_path, capsys):
    assert cli.main(["synth", "--config", str(tmp_path / "nope.json"), "--out", "x"]) == 1
    assert "does not exist" in capsys.readouterr().err


def test_invalid_json_config_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["synth", "--config", str(bad), "--out", "x"]) == 1
    assert "not valid JSON" in capsys.readouterr().err


def test_unknown_config_key_named_in_error(tmp_path, capsys):
    bad = tmp_path / "typo.json"
    bad.write_text(json.dumps({"corpus": {"noise": 0.1}}))
    assert cli.main(["synth", "--config", str(bad), "--out", "x"]) == 1
    assert "'corpus.noise'" in capsys.readouterr().err


def test_missing_data_exits_two(tiny_config, tmp_path, capsys):
    assert (
        cli.main(
            [
                "train",
                "--config",
                str(tiny_config),
                "--out",
                str(tmp_path / "empty"),
            ]
        )
        == 2
    )
    assert "error:" in capsys.readouterr().err


def test_corrupt_manifest_exits_two(tiny_config, trained_dir, capsys):
    (trained_dir / "data" / "test.jsonl").write_text("definitely not a manifest\n")
    code = cli.main(
        [
            "tclassify",
            "--config",
            str(tiny_config),
            "--checkpoint",
            str(trained_dir / "train" / "final.tckp"),
            "--out",
            str(trained_dir),
        ]
    )
    assert code == 2
    assert "line 1" in capsys.readouterr().err


def checkpoint_sections(raw):
    """The (name bytes, payload) sections of a checkpoint, in file order."""
    sections, off = [], 8
    while off < len(raw):
        (nlen,) = struct.unpack_from("<I", raw, off)
        name = raw[off + 4 : off + 4 + nlen]
        (plen,) = struct.unpack_from("<Q", raw, off + 4 + nlen)
        start = off + 12 + nlen
        sections.append((name, raw[start : start + plen]))
        off = start + plen
    return sections


def checkpoint_bytes(raw, sections):
    out = [raw[:8]]
    for name, payload in sections:
        out += [struct.pack("<I", len(name)), name, struct.pack("<Q", len(payload)), payload]
    return b"".join(out)


def _edit_meta(change):
    def edit(name, payload):
        if name != b"meta":
            return name, payload
        meta = json.loads(payload)
        change(meta)
        return name, json.dumps(meta).encode()

    return edit


@pytest.mark.parametrize(
    "edit",
    [
        lambda name, payload: (b"\xff" + name if name == b"rng" else name, payload),
        lambda name, payload: (name, b"\xff" + payload if name == b"meta" else payload),
        _edit_meta(lambda meta: meta.pop("step")),
        _edit_meta(lambda meta: meta["optimizer"].pop("step")),
        _edit_meta(lambda meta: meta["optimizer"].update(beta1="fast")),
        lambda name, payload: (name, b"{}" if name == b"rng" else payload),
    ],
    ids=["name-not-utf8", "meta-not-utf8", "no-step", "no-optimizer-step", "beta1-not-a-number",
         "rng-not-a-state"],
)
def test_corrupt_checkpoint_is_format_error_and_exits_two(edit, tiny_config, trained_dir, capsys):
    good = trained_dir / "train" / "final.tckp"
    raw = good.read_bytes()
    bad = trained_dir / "bad.tckp"
    bad.write_bytes(checkpoint_bytes(raw, [edit(*sec) for sec in checkpoint_sections(raw)]))
    with pytest.raises(FormatError, match=re.escape(str(bad))):
        tr.load_checkpoint(bad)
    argv = ["eval", "--config", str(tiny_config), "--checkpoint", str(bad), "--out", str(trained_dir)]
    assert cli.main(argv) == 2
    assert str(bad) in capsys.readouterr().err


@pytest.mark.parametrize("line_no", [0, 3], ids=["header", "record"])
def test_non_utf8_manifest_is_format_error_and_exits_two(line_no, tiny_config, trained_dir, capsys):
    path = trained_dir / "data" / "test.jsonl"
    lines = path.read_bytes().splitlines(keepends=True)
    lines[line_no] = lines[line_no].replace(b'"', b'"\xe9', 1)
    path.write_bytes(b"".join(lines))
    with pytest.raises(FormatError, match=re.escape(str(path))):
        load_manifest(path)
    checkpoint = str(trained_dir / "train" / "final.tckp")
    argv = ["eval", "--config", str(tiny_config), "--checkpoint", checkpoint, "--out", str(trained_dir)]
    assert cli.main(argv) == 2
    assert str(path) in capsys.readouterr().err


@pytest.mark.parametrize("line_no", [0, 3], ids=["first-line", "last-line"])
def test_non_utf8_metrics_log_on_resume_is_format_error_and_exits_two(
    line_no, tiny_config, trained_dir, capsys
):
    run_dir = trained_dir / "train"
    path = run_dir / "metrics.jsonl"
    lines = path.read_bytes().splitlines(keepends=True)
    lines[line_no] = lines[line_no].replace(b"{", b"{\xff", 1)
    path.write_bytes(b"".join(lines))
    with pytest.raises(FormatError, match=re.escape(str(path))):
        tr._metric_lines_before(path, 4)
    argv = ["train", "--config", str(tiny_config), "--out", str(trained_dir),
            "--resume", str(run_dir / "final.tckp")]
    assert cli.main(argv) == 2
    assert str(path) in capsys.readouterr().err


def test_non_utf8_config_exits_one(tmp_path, capsys):
    bad = tmp_path / "latin1.json"
    bad.write_bytes(b'{"seed": 0, "caf\xe9": 1}')
    assert cli.main(["synth", "--config", str(bad), "--out", str(tmp_path / "x")]) == 1
    assert "not valid JSON" in capsys.readouterr().err


def test_missing_checkpoint_exits_two(tiny_config, synth_dir, capsys):
    code = cli.main(
        [
            "eval",
            "--config",
            str(tiny_config),
            "--checkpoint",
            str(synth_dir / "train" / "final.tckp"),
            "--out",
            str(synth_dir),
        ]
    )
    assert code == 2
    assert "does not exist" in capsys.readouterr().err


def test_numeric_failure_exits_three(monkeypatch, capsys):
    monkeypatch.setattr(cli, "gradcheck_value", lambda cfg, n_coords=200: 1.0)
    assert cli.main(["gradcheck"]) == 3
    assert "gradient check failed" in capsys.readouterr().err


# -- synth -----------------------------------------------------------------------


def test_synth_writes_all_manifests_and_echo(synth_dir):
    written = sorted(p.name for p in (synth_dir / "data").iterdir())
    assert written == sorted(f"{n}{ext}" for n in MANIFESTS for ext in (".jsonl", ".frames.npy"))
    echo = json.loads((synth_dir / "config.json").read_text())
    assert echo["seed"] == 0
    assert echo["corpus"]["events_per_clip"] == 2


def test_synth_byte_identical_across_runs(tiny_config, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert cli.main(["synth", "--config", str(tiny_config), "--out", str(out)]) == 0
    for name in MANIFESTS:
        for ext in (".jsonl", ".frames.npy"):
            assert (out_a / "data" / f"{name}{ext}").read_bytes() == (
                out_b / "data" / f"{name}{ext}"
            ).read_bytes()
    assert (out_a / "config.json").read_bytes() == (out_b / "config.json").read_bytes()


def test_seed_flag_overrides_config(tiny_config, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["synth", "--config", str(tiny_config), "--out", str(out_a)]) == 0
    assert (
        cli.main(["synth", "--config", str(tiny_config), "--seed", "1", "--out", str(out_b)])
        == 0
    )
    assert json.loads((out_b / "config.json").read_text())["seed"] == 1
    assert (out_a / "data" / "train_primary.jsonl").read_bytes() != (
        out_b / "data" / "train_primary.jsonl"
    ).read_bytes()


def test_out_defaults_to_env(tiny_config, tmp_path, monkeypatch):
    target = tmp_path / "from-env"
    monkeypatch.setenv("TINYCLAP_OUT", str(target))
    assert cli.main(["synth", "--config", str(tiny_config)]) == 0
    assert (target / "data" / "test.jsonl").is_file()


# -- train ----------------------------------------------------------------------


def test_train_writes_checkpoint_and_metrics(trained_dir, capsys):
    assert (trained_dir / "train" / "final.tckp").is_file()
    lines = (trained_dir / "train" / "metrics.jsonl").read_text().splitlines()
    assert len(lines) == TINY["train"]["steps"]


def test_steps_flag_overrides_config(tiny_config, synth_dir):
    code = cli.main(
        ["train", "--config", str(tiny_config), "--out", str(synth_dir), "--steps", "2"]
    )
    assert code == 0
    lines = (synth_dir / "train" / "metrics.jsonl").read_text().splitlines()
    assert len(lines) == 2
    assert json.loads((synth_dir / "config.json").read_text())["train"]["steps"] == 2


def test_steps_flag_below_warmup_lowers_warmup(tiny_config, synth_dir):
    code = cli.main(
        ["train", "--config", str(tiny_config), "--out", str(synth_dir), "--steps", "1"]
    )
    assert code == 0
    lines = (synth_dir / "train" / "metrics.jsonl").read_text().splitlines()
    assert len(lines) == 1
    echo = json.loads((synth_dir / "config.json").read_text())
    assert echo["train"]["steps"] == 1 and echo["train"]["warmup_steps"] == 1


def test_lambda_flag_overrides_config(tiny_config, synth_dir):
    code = cli.main(
        [
            "train",
            "--config",
            str(tiny_config),
            "--out",
            str(synth_dir),
            "--lambda-l",
            "0.0",
        ]
    )
    assert code == 0
    echo = json.loads((synth_dir / "config.json").read_text())
    assert echo["train"]["loss"]["lambda_l"] == 0.0
    rows = [
        json.loads(ln)
        for ln in (synth_dir / "train" / "metrics.jsonl").read_text().splitlines()
    ]
    for r in rows:
        assert r["l_train"] == r["l_c"]


def test_train_resume_flag(tiny_config, tmp_path):
    out = tmp_path / "runs"
    assert cli.main(["synth", "--config", str(tiny_config), "--out", str(out)]) == 0
    assert (
        cli.main(
            ["train", "--config", str(tiny_config), "--out", str(out), "--steps", "2"]
        )
        == 0
    )
    mid = out / "train" / "final.tckp"
    code = cli.main(
        [
            "train",
            "--config",
            str(tiny_config),
            "--out",
            str(out),
            "--resume",
            str(mid),
        ]
    )
    assert code == 0
    lines = (out / "train" / "metrics.jsonl").read_text().splitlines()
    # 2 lines from the first run plus steps 2..3 appended by the resumed one
    assert [json.loads(ln)["step"] for ln in lines] == [0, 1, 2, 3]


def test_train_resume_with_default_vocab_size_is_byte_identical(tmp_path):
    # TINY leaves encoder.vocab_size at 0, which train resolves from the corpus
    config = json.loads(json.dumps(TINY))
    config["train"]["checkpoint_every"] = 2
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "runs"
    common = ["--config", str(path), "--out", str(out)]
    assert cli.main(["synth", *common]) == 0
    assert cli.main(["train", *common]) == 0
    run_dir = out / "train"
    full = {name: (run_dir / name).read_bytes() for name in ("final.tckp", "metrics.jsonl")}
    assert cli.main(["train", *common, "--resume", str(run_dir / "step000002.tckp")]) == 0
    for name, blob in full.items():
        assert (run_dir / name).read_bytes() == blob, name


# -- eval / tclassify / gradcheck --------------------------------------------------


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_eval_writes_report(tiny_config, trained_dir, capsys):
    code = cli.main(
        [
            "eval",
            "--config",
            str(tiny_config),
            "--checkpoint",
            str(trained_dir / "train" / "final.tckp"),
            "--out",
            str(trained_dir),
        ]
    )
    assert code == 0
    report = json.loads((trained_dir / "eval_report.json").read_text())
    assert report["schema_version"] == 1
    assert set(report["metrics"]) == {"retrieval", "zero_shot"}
    assert report["checkpoint"] and report["config_hash"]
    out = capsys.readouterr().out
    assert "retrieval T2A" in out and "zero-shot" in out


def test_tclassify_writes_report(tiny_config, trained_dir, capsys):
    code = cli.main(
        [
            "tclassify",
            "--config",
            str(tiny_config),
            "--checkpoint",
            str(trained_dir / "train" / "final.tckp"),
            "--out",
            str(trained_dir),
        ]
    )
    assert code == 0
    report = json.loads((trained_dir / "tclassify_report.json").read_text())
    assert "t_classify" in report["metrics"]
    assert "order discrimination" in capsys.readouterr().out


def test_gradcheck_passes_on_default_config(capsys):
    # run at the default encoder size: very small towers leave the
    # pre-normalization rows near the finite-difference step, where the
    # probe measures curvature instead of the gradient
    assert cli.main(["gradcheck"]) == 0
    out = capsys.readouterr().out
    assert "gradient check passed" in out


# -- config plumbing ----------------------------------------------------------------


def test_run_config_round_trip():
    cfg = run_config_from_dict(TINY)
    assert run_config_from_dict(run_config_to_dict(cfg)) == cfg


def test_run_config_cross_validation():
    bad = json.loads(json.dumps(TINY))
    bad["corpus"]["frame_dim"] = 4  # encoder still expects 8
    with pytest.raises(InvalidConfig, match="frame_dim"):
        run_config_from_dict(bad)
    long_clip = json.loads(json.dumps(TINY))
    long_clip["corpus"]["frames_per_event"] = 40
    with pytest.raises(InvalidConfig, match="max_positions"):
        run_config_from_dict(long_clip)


@pytest.mark.parametrize(
    "data, key",
    [
        ({"seed": "abc"}, "seed"),
        ({"train": {"batch_size": 2.5}}, "train.batch_size"),
        ({"corpus": {"test_records": 5.5}}, "corpus.test_records"),
        ({"train": {"steps": True}}, "train.steps"),
        ({"train": {"base_lr": "fast"}}, "train.base_lr"),
        ({"train": {"encoder": {"hidden_dim": None}}}, "train.encoder.hidden_dim"),
        ({"train": {"loss": {"use_temperature_in_lt": 1}}}, "train.loss.use_temperature_in_lt"),
        ({"train": {"loss": {"lt_reduction": 0}}}, "train.loss.lt_reduction"),
        ({"eval": {"recall_ks": [1, "5"]}}, "eval.recall_ks"),
        ({"eval": {"recall_ks": 5}}, "eval.recall_ks"),
    ],
)
def test_config_value_of_wrong_type_named_in_error(data, key):
    with pytest.raises(InvalidConfig, match=f"config key '{re.escape(key)}' must be"):
        run_config_from_dict(data)


def test_float_config_fields_take_json_integers():
    cfg = run_config_from_dict({"train": {"base_lr": 1}, "corpus": {"noise_sigma": 0}})
    assert cfg.train.base_lr == 1 and cfg.corpus.noise_sigma == 0


def test_split_seed_stable_and_purpose_dependent():
    assert split_seed(0, "catalog") == split_seed(0, "catalog")
    assert split_seed(0, "catalog") != split_seed(0, "labeled")
    assert split_seed(0, "catalog") != split_seed(1, "catalog")
    assert 0 <= split_seed(7, "train") < 2**63
