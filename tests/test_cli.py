"""Command-line behavior: exit codes, flag precedence, artifact stability."""

import hashlib
import json
import os
import re
import shutil
import struct
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import tinyclap.tensor as T
from tinyclap import cli
from tinyclap import evaluate as ev
from tinyclap import trainer as tr
from tinyclap.config import (
    load_run_config,
    run_config_from_dict,
    run_config_to_dict,
    split_seed,
)
from tinyclap.corpus import catalog_for, load_manifest
from tinyclap.encoders import encode_audio_batch, encode_text_batch, forward_batch
from tinyclap.errors import FormatError, InvalidConfig
from tinyclap.losses import similarity_matrix

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


def checkpoint_parts(raw):
    """A checkpoint's meta, as a dict, and the bytes of its three vectors."""
    (meta_len,) = struct.unpack_from("<Q", raw, 8)
    return json.loads(raw[16 : 16 + meta_len]), raw[16 + meta_len :]


def checkpoint_bytes(raw, meta: bytes, vectors: bytes):
    return raw[:8] + struct.pack("<Q", len(meta)) + meta + vectors


def _edit_meta(change):
    def edit(raw):
        meta, vectors = checkpoint_parts(raw)
        change(meta)
        return checkpoint_bytes(raw, json.dumps(meta).encode(), vectors)

    return edit


def _edit_vectors(change):
    def edit(raw):
        meta, vectors = checkpoint_parts(raw)
        return checkpoint_bytes(raw, json.dumps(meta).encode(), change(vectors))

    return edit


def _non_finite_in(k, value):
    """Sets one f64 in the middle of the k-th of the three vectors (flat, m, v)."""
    def change(vectors):
        numbers = np.frombuffer(vectors, "<f8").copy()
        numbers[k * (numbers.size // 3) + numbers.size // 6] = value
        return numbers.tobytes()

    return _edit_vectors(change)


def _meta_not_utf8(raw):
    meta, vectors = checkpoint_parts(raw)
    return checkpoint_bytes(raw, b"\xff" + json.dumps(meta).encode(), vectors)


SIZE_MISMATCH = r"(\d+) bytes of vectors, the config and vocab give (?!\1)\d+$"


def _extra_token(meta):
    meta["vocab"].append("zzz")
    meta["train_config"]["encoder"]["vocab_size"] += 1  # consistent meta, short vectors


def _float_hidden_dim(meta):
    encoder = meta["train_config"]["encoder"]
    encoder["hidden_dim"] = float(encoder["hidden_dim"])


@pytest.mark.parametrize(
    "edit, message",
    [
        (_meta_not_utf8, r"bad meta: UnicodeDecodeError\("),
        (_edit_meta(lambda meta: meta.pop("step")), r"bad meta: KeyError\('step'\)"),
        (_edit_meta(lambda meta: meta.update(step="2")),
         r"bad meta: ValueError\(\"step must be an integer >= 0, got '2'\"\)"),
        (_edit_meta(lambda meta: meta.update(step=True)),
         r"bad meta: ValueError\('step must be an integer >= 0, got True'\)"),
        (_edit_meta(lambda meta: meta.update(step=-3)),
         r"bad meta: ValueError\('step must be an integer >= 0, got -3'\)"),
        (_edit_meta(_float_hidden_dim),
         r"bad meta: InvalidConfig\(\"config key 'train_config\.encoder\.hidden_dim' must be "
         r"an integer, got \d+\.0\"\)"),
        (_edit_meta(lambda meta: meta.update(rng={})),
         r"bad meta: ValueError\('state must be for a PCG64 RNG'\)"),
        (_edit_vectors(lambda vectors: vectors[:-8]), SIZE_MISMATCH),
        (_edit_vectors(lambda vectors: vectors + bytes(8)), SIZE_MISMATCH),
        (lambda raw: raw[:8] + struct.pack("<Q", len(raw)) + raw[16:],
         r"meta runs to byte \d+, past the end of the file \(\d+ bytes\)"),
        (_edit_meta(_extra_token), SIZE_MISMATCH),
        (_non_finite_in(0, np.nan), "non-finite values in the flat vector$"),
        (_non_finite_in(1, np.nan), "non-finite values in the m vector$"),
        (_non_finite_in(2, -np.inf), "non-finite values in the v vector$"),
    ],
    ids=["meta-not-utf8", "no-step", "step-a-string", "step-true", "step-negative",
         "hidden-dim-a-float", "rng-not-a-state", "vectors-one-short", "vectors-one-long",
         "meta-length-past-end", "vocab-extra-token", "nan-in-flat", "nan-in-m", "inf-in-v"],
)
def test_corrupt_checkpoint_is_format_error_and_exits_two(edit, message, tiny_config,
                                                          trained_dir, capsys):
    good = trained_dir / "train" / "final.tckp"
    bad = trained_dir / "bad.tckp"
    bad.write_bytes(edit(good.read_bytes()))
    with pytest.raises(FormatError, match=re.escape(str(bad)) + ": " + message):
        tr.load_checkpoint(bad)
    argv = ["eval", "--config", str(tiny_config), "--checkpoint", str(bad), "--out", str(trained_dir)]
    assert cli.main(argv) == 2
    assert str(bad) in capsys.readouterr().err


def test_checkpoint_meta_with_an_optimizer_entry_loads_the_same_state(trained_dir):
    # files written while Adam kept its own step and constants carry them in
    # an `optimizer` entry of the meta, which the loader ignores
    good = trained_dir / "train" / "final.tckp"
    old = trained_dir / "old.tckp"
    optimizer = {"beta1": 0.9, "beta2": 0.999, "eps": 1e-08, "step": tr.load_checkpoint(good).step}
    old.write_bytes(_edit_meta(lambda meta: meta.update(optimizer=optimizer))(good.read_bytes()))
    a, b = tr.load_checkpoint(good), tr.load_checkpoint(old)
    assert a.step == b.step and a.train_config == b.train_config and a.rng_state == b.rng_state
    for x, y in ((a.params.flat, b.params.flat), (a.m, b.m), (a.v, b.v)):
        assert x.tobytes() == y.tobytes()


def test_version_one_checkpoint_exits_two(tiny_config, trained_dir, capsys):
    good = trained_dir / "train" / "final.tckp"
    old = trained_dir / "v1.tckp"
    old.write_bytes(tr.CHECKPOINT_MAGIC + struct.pack("<I", 1) + good.read_bytes()[8:])
    argv = ["eval", "--config", str(tiny_config), "--checkpoint", str(old),
            "--out", str(trained_dir)]
    assert cli.main(argv) == 2
    assert f"{old}: checkpoint version 1, this build reads 2" in capsys.readouterr().err


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


def _edit_line(line_no, change):
    def edit(lines):
        row = json.loads(lines[line_no])
        change(row, lines)
        lines[line_no] = json.dumps(row)

    return edit


@pytest.mark.parametrize(
    "edit, message",
    [
        (_edit_line(0, lambda h, _: h.update(seed="abc")), "bad catalog reference or seed"),
        (_edit_line(0, lambda h, _: h.update(seed=None)), "bad catalog reference or seed"),
        (_edit_line(0, lambda h, _: h["catalog"].update(seed=-1)), "bad catalog reference or seed"),
        (_edit_line(0, lambda h, _: h["catalog"].update(n_classes=1)),
         "bad catalog reference or seed: need at least 2 classes"),
        (_edit_line(2, lambda row, lines: row.update(id=json.loads(lines[1])["id"])),
         "record ids must be unique"),
        (_edit_line(0, lambda h, _: h.update(seed=True)), "seed must be an integer, got True"),
        (_edit_line(0, lambda h, _: h.update(n_records=str(h["n_records"]))),
         "line 1: bad record count: n_records must be an integer, got '12'"),
    ],
    ids=["seed-abc", "seed-null", "catalog-seed-negative", "one-class", "duplicate-id",
         "seed-true", "n-records-string"],
)
def test_bad_manifest_header_or_ids_are_format_errors(edit, message, tiny_config, trained_dir,
                                                      capsys):
    path = trained_dir / "data" / "test.jsonl"
    lines = path.read_text().splitlines()
    edit(lines)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError, match=re.escape(str(path)) + ".*" + message):
        load_manifest(path)
    checkpoint = str(trained_dir / "train" / "final.tckp")
    argv = ["tclassify", "--config", str(tiny_config), "--checkpoint", checkpoint,
            "--out", str(trained_dir)]
    assert cli.main(argv) == 2
    assert str(path) in capsys.readouterr().err


def test_resume_with_another_encoder_exits_one(tiny_config, trained_dir, capsys):
    doc = json.loads(tiny_config.read_text())
    doc["train"]["encoder"]["hidden_dim"] = 24
    wider = trained_dir / "wider.json"
    wider.write_text(json.dumps(doc))
    final = trained_dir / "train" / "final.tckp"
    before = final.read_bytes()
    argv = ["train", "--config", str(wider), "--out", str(trained_dir), "--resume", str(final)]
    assert cli.main(argv) == 1
    assert "differs from the checkpoint's" in capsys.readouterr().err
    assert final.read_bytes() == before
    tr.load_checkpoint(final)


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


# json.loads refuses an integer past Python's 4,300-digit conversion limit with a
# plain ValueError, not a JSONDecodeError
TOO_MANY_DIGITS = "9" * 5001


@pytest.mark.parametrize("line_no, key, message", [(1, "n_records", "bad header"),
                                                   (3, "id", "bad record JSON")],
                         ids=["header", "record"])
def test_manifest_integer_past_the_digit_limit_is_format_error_and_exits_two(
    line_no, key, message, tiny_config, trained_dir, capsys
):
    path = trained_dir / "data" / "test.jsonl"
    lines = path.read_text().splitlines()
    lines[line_no - 1] = re.sub(f'"{key}":\\d+', f'"{key}":{TOO_MANY_DIGITS}', lines[line_no - 1])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError, match=re.escape(f"{path}, line {line_no}: {message}: ")
                       + "Exceeds the limit"):
        load_manifest(path)
    checkpoint = str(trained_dir / "train" / "final.tckp")
    argv = ["eval", "--config", str(tiny_config), "--checkpoint", checkpoint, "--out", str(trained_dir)]
    assert cli.main(argv) == 2
    assert f"{path}, line {line_no}" in capsys.readouterr().err


def test_metrics_step_past_the_digit_limit_on_resume_is_format_error_and_exits_two(
    tiny_config, trained_dir, capsys
):
    run_dir = trained_dir / "train"
    path = run_dir / "metrics.jsonl"
    lines = path.read_text().splitlines(keepends=True)
    lines[1] = re.sub(r'"step":\d+', f'"step":{TOO_MANY_DIGITS}', lines[1])
    path.write_text("".join(lines))
    with pytest.raises(FormatError, match=re.escape(f"{path}: bad metrics line")
                       + ".*Exceeds the limit"):
        tr._metric_lines_before(path, 4)
    argv = ["train", "--config", str(tiny_config), "--out", str(trained_dir),
            "--resume", str(run_dir / "final.tckp")]
    assert cli.main(argv) == 2
    assert f"{path}: bad metrics line" in capsys.readouterr().err


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


def test_train_resume_past_steps_exits_one_and_writes_nothing(tiny_config, trained_dir, capsys):
    final = trained_dir / "train" / "final.tckp"  # at step 4
    files = sorted(p for p in trained_dir.rglob("*") if p.is_file())
    before = [p.read_bytes() for p in files]
    argv = ["train", "--config", str(tiny_config), "--out", str(trained_dir), "--resume",
            str(final), "--steps", "2"]
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert "is at step 4, past train.steps 2" in err and "finished" not in out
    assert sorted(p for p in trained_dir.rglob("*") if p.is_file()) == files
    assert [p.read_bytes() for p in files] == before


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


def test_train_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # the README's determinism contract: one and two OpenBLAS threads were measured to
    # give the same bytes; a run in a fresh process is the only way to set the count
    assert cli.main(["synth", "--out", str(tmp_path / "1")]) == 0
    shutil.copytree(tmp_path / "1" / "data", tmp_path / "2" / "data")
    for threads in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-m", "tinyclap.cli", "train", "--out", str(tmp_path / threads),
             "--steps", "30"],
            env={**os.environ, "OPENBLAS_NUM_THREADS": threads}, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
    for name in ("final.tckp", "metrics.jsonl"):
        assert (tmp_path / "1" / "train" / name).read_bytes() == (
            tmp_path / "2" / "train" / name
        ).read_bytes(), name


# -- repro ---------------------------------------------------------------------------


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize(
    "train_over",
    [
        {"steps": 7, "warmup_steps": 2, "checkpoint_every": 2},  # switch at 3: off the grid
        {"steps": 6, "warmup_steps": 5, "checkpoint_every": 3},  # warmup runs past the switch
    ],
    ids=["switch-between-checkpoints", "warmup-past-switch"],
)
def test_repro_fork_matches_standalone_runs(train_over, tmp_path, monkeypatch):
    doc = json.loads(json.dumps(TINY))
    doc["train"].update(train_over)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(doc))
    adam_steps, inits = [], []
    adam_step, init_params = tr.adam_step, tr.init_params
    monkeypatch.setattr(tr, "adam_step", lambda *a: adam_steps.append(1) or adam_step(*a))
    monkeypatch.setattr(tr, "init_params", lambda *a: inits.append(1) or init_params(*a))
    out = tmp_path / "repro"
    assert cli.main(["repro", "--config", str(config_path), "--out", str(out)]) == 0
    steps, switch = doc["train"]["steps"], doc["train"]["steps"] // 2
    assert len(adam_steps) == switch + 2 * (steps - switch)  # the shared steps ran once
    assert len(inits) == 1  # so did the step-0 draws: the untrained row's are the fork's
    monkeypatch.setattr(tr, "adam_step", adam_step)
    monkeypatch.setattr(tr, "init_params", init_params)

    cfg = run_config_from_dict(doc)
    base = replace(cfg.train, seed=split_seed(cfg.seed, "train"))
    standalone = {
        "run_order": replace(base, order_loss_start_step=switch),
        "run_control": replace(base, loss=replace(base.loss, lambda_l=0.0)),
    }
    data = out / "data"
    for run, train_cfg in standalone.items():
        alone = tmp_path / "standalone" / run
        tr.train(train_cfg, data / "train_primary.jsonl", data / "train_temporal.jsonl", alone)
        names = sorted(p.name for p in (out / run).iterdir())
        assert names == sorted(p.name for p in alone.iterdir())
        assert len(names) == 2 + steps // doc["train"]["checkpoint_every"]
        for name in names:
            assert (out / run / name).read_bytes() == (alone / name).read_bytes(), f"{run}/{name}"


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize(
    "corpus_over, eval_over",
    [({"test_records": 4}, {"recall_ks": [1, 5]}), ({"test_records": 0}, {"recall_ks": [1]}),
     ({"labeled_records": 0}, {})],
    ids=["recall-k-past-test-records", "no-test-records", "no-labeled-records"],
)
def test_repro_rejects_what_it_cannot_evaluate_before_training(corpus_over, eval_over, tmp_path,
                                                               capsys):
    doc = json.loads(json.dumps(TINY))
    doc["corpus"].update(corpus_over)
    doc["eval"].update(eval_over)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(doc))
    out = tmp_path / "repro"
    assert cli.main(["repro", "--config", str(config_path), "--out", str(out)]) == 1
    assert not (out / "run_order").exists() and not (out / "data").exists()
    assert "repro cannot evaluate" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_repro_evaluates_each_model_as_a_value(tiny_config, tmp_path, monkeypatch):
    # after training, every tower pass is over constant layers: the untrained
    # model is init_run's value and the two trained runs are value views
    towers, trained, tower, train_fork = [], [], T.tower, cli.train_fork

    def counted(*args):
        towers.append((bool(trained), any(t.requires_grad for t in args[1:7])))
        return tower(*args)

    def fork(*args, **kwargs):
        runs = train_fork(*args, **kwargs)
        trained.append(runs)
        return runs

    monkeypatch.setattr(T, "tower", counted)
    monkeypatch.setattr(cli, "train_fork", fork)
    assert cli.main(["repro", "--config", str(tiny_config), "--out", str(tmp_path / "r")]) == 0
    after = [grad for done, grad in towers if done]
    assert len(after) == 3 * 5 and not any(after)  # 3 models: 3 test-set and 2 zero-shot passes
    assert all(grad for done, grad in towers if not done)  # every training step's
    assert all(run.params.grad is not None for run in trained[0])


def test_repro_keeps_the_corpus_it_drew(tiny_config, synth_dir, tmp_path, monkeypatch):
    def no_reread(path):
        raise AssertionError(f"repro re-read {path}")

    used = {}
    train_fork, embed, zero_shot = cli.train_fork, cli.embed_test_set, cli.zero_shot_classify

    def fork(branches, primary, temporal, fork_step, **step0):
        used.update(train_primary=primary.records, train_temporal=temporal.records)
        return train_fork(branches, primary, temporal, fork_step, **step0)

    def embed_once(params, records):
        used.setdefault("test", records)
        return embed(params, records)

    def zero_shot_once(params, records, label_names):
        used.setdefault("labeled", records)
        return zero_shot(params, records, label_names)

    monkeypatch.setattr(cli, "load_manifest", no_reread)
    monkeypatch.setattr(cli, "train_fork", fork)
    monkeypatch.setattr(cli, "embed_test_set", embed_once)
    monkeypatch.setattr(cli, "zero_shot_classify", zero_shot_once)
    out = tmp_path / "repro"
    assert cli.main(["repro", "--config", str(tiny_config), "--out", str(out)]) == 0
    for name in MANIFESTS:
        path = out / "data" / f"{name}.jsonl"
        records = tuple(used[name])
        assert records == load_manifest(path).records  # frames, captions and event ids
        np.testing.assert_array_equal(np.concatenate([r.clip.frames for r in records]),
                                      np.load(path.with_name(f"{name}.frames.npy")))
        for ext in (".jsonl", ".frames.npy"):  # the files equal a standalone synth's
            written = out / "data" / f"{name}{ext}"
            assert written.read_bytes() == (synth_dir / "data" / f"{name}{ext}").read_bytes()


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


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_eval_and_tclassify_reports_match_one_encode_per_direction(
    tiny_config, trained_dir, tmp_path
):
    ckpt_path = trained_dir / "train" / "final.tckp"
    for command in ("eval", "tclassify"):
        argv = [command, "--config", str(tiny_config), "--checkpoint", str(ckpt_path),
                "--out", str(trained_dir)]
        assert cli.main(argv) == 0

    # the scores computed the old way: a forward pass per task and an encode per direction
    cfg = run_config_from_dict(TINY)
    params = tr.load_checkpoint(ckpt_path).params
    test = list(load_manifest(trained_dir / "data" / "test.jsonl").records)
    labeled = load_manifest(trained_dir / "data" / "labeled.jsonl")
    paired = forward_batch(params, test, [False] * len(test))
    t2a, a2t = ev.recall_at_k(similarity_matrix(paired.audio, paired.text).data,
                              cfg.eval.recall_ks)
    names = tuple(event.name for event in catalog_for(labeled).classes)
    zero_shot = ev.zero_shot_classify(params, list(labeled.records), names)
    order = forward_batch(params, test, [True] * len(test))
    order_t2a = ev.t_classify_from_embeddings(order.audio.data, order.text.data[: len(test)],
                                              order.text.data[len(test) :])
    with_neg = [r for r in test if r.clip_neg is not None]
    text = encode_text_batch(params, [r.caption_pos.tokens for r in with_neg]).data
    audio = encode_audio_batch(params, [r.clip.frames for r in with_neg]).data
    audio_neg = encode_audio_batch(params, [r.clip_neg.frames for r in with_neg]).data
    order_a2t = ev.t_classify_margins((audio * text).sum(axis=1), (audio_neg * text).sum(axis=1))
    tc = ev.TClassifyResult(order_t2a, order_a2t, len(test), len(with_neg))
    meta = {"config": run_config_to_dict(cfg),
            "checkpoint_id": hashlib.sha256(ckpt_path.read_bytes()).hexdigest()[:16]}
    ev.emit_report({"retrieval": {"T2A": t2a, "A2T": a2t}, "zero_shot": zero_shot},
                   tmp_path / "eval_report.json", **meta)
    ev.emit_report({"t_classify": tc}, tmp_path / "tclassify_report.json", **meta)
    for name in ("eval_report.json", "tclassify_report.json"):
        assert (trained_dir / name).read_bytes() == (tmp_path / name).read_bytes(), name


def test_gradcheck_passes_on_default_config(capsys):
    # run at the default encoder size: very small towers leave the
    # pre-normalization rows near the finite-difference step, where the
    # probe measures curvature instead of the gradient
    assert cli.main(["gradcheck"]) == 0
    out = capsys.readouterr().out
    assert "gradient check passed" in out


# a central difference of step 1e-5 crosses a relu switch at these root seeds
KINKED_SEEDS = (-1, 1, 10, 14, 15)


@pytest.mark.parametrize("seed", KINKED_SEEDS)
def test_gradcheck_passes_where_the_step_crosses_a_kink(monkeypatch, seed):
    probe, kinked = T._probe, []

    def watched(f, params, leaf, offset, step, mid):
        numeric, gap, noise = slopes = probe(f, params, leaf, offset, step, mid)
        if step == 1e-5 and gap > T._FD_KINK_RTOL * (abs(numeric) + gap / 2) + noise:
            kinked.append(offset)
        return slopes

    monkeypatch.setattr(T, "_probe", watched)
    cfg = replace(run_config_from_dict({}), seed=seed)
    assert cli.gradcheck_value(cfg) < cli.GRADCHECK_THRESHOLD
    assert kinked, "no sampled coordinate's 1e-5 one-sided slopes disagree"


# the tower whose b1 the 200 sampled coordinates reach at each seed (none at 10)
@pytest.mark.parametrize("seed,tower", [(-1, "text"), (1, "text"), (14, "audio"), (15, "text")])
def test_gradcheck_fails_a_b1_gradient_one_percent_off(monkeypatch, seed, tower):
    exact = T.backward

    def skewed(loss, params):
        grads = exact(loss, params)
        grads[f"{tower}.b1"] = grads[f"{tower}.b1"] * 1.01
        return grads

    monkeypatch.setattr(T, "backward", skewed)
    cfg = replace(run_config_from_dict({}), seed=seed)
    assert cli.gradcheck_value(cfg) >= cli.GRADCHECK_THRESHOLD


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


@pytest.mark.parametrize("value", ["NaN", "Infinity"])
@pytest.mark.parametrize("key", ["noise_sigma", "labeled_noise_sigma"])
def test_non_finite_noise_level_is_named_when_the_config_loads(tmp_path, key, value):
    path = tmp_path / "config.json"
    path.write_text(f'{{"corpus": {{"{key}": {value}}}}}', encoding="utf-8")
    with pytest.raises(InvalidConfig, match=f"^{key} must be finite and >= 0"):
        load_run_config(path)


def test_caption_bound_counts_the_suffix_of_names_past_the_built_in_list():
    # class 64 on is named with a numeric suffix ("dog barking 2"), one token
    # more: two 3-token names and a 2-token connector span 8 positions
    doc = json.loads(json.dumps(TINY))
    doc["corpus"].update(n_classes=80, events_per_clip=2)
    doc["train"]["encoder"]["max_positions"] = 6
    with pytest.raises(InvalidConfig, match="captions span 8 tokens"):
        run_config_from_dict(doc)
    doc["corpus"]["n_classes"] = 64
    assert run_config_from_dict(doc).corpus.n_classes == 64


def test_float_config_fields_take_json_integers():
    cfg = run_config_from_dict({"train": {"base_lr": 1}, "corpus": {"noise_sigma": 0}})
    assert cfg.train.base_lr == 1 and cfg.corpus.noise_sigma == 0


def test_split_seed_stable_and_purpose_dependent():
    assert split_seed(0, "catalog") == split_seed(0, "catalog")
    assert split_seed(0, "catalog") != split_seed(0, "labeled")
    assert split_seed(0, "catalog") != split_seed(1, "catalog")
    assert 0 <= split_seed(7, "train") < 2**63
