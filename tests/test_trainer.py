"""Training-loop checks: batching, schedule, Adam, checkpoints, resume."""

import json
import math
import re
import struct
from dataclasses import replace as dc_replace

import numpy as np
import pytest

import tinyclap.tensor as T
from tinyclap import trainer as tr
from tinyclap.corpus import build_catalog, build_mixed_dataset
from tinyclap.encoders import EncoderConfig, ModelParams, TextVocab, build_vocab, init_params
from tinyclap.errors import EmptyPool, FormatError, InvalidConfig, NumericError
from tinyclap.losses import LossConfig


@pytest.fixture(scope="module")
def corpora():
    catalog = build_catalog(12, 8, seed=3)
    primary = build_mixed_dataset(catalog, 48, 2, 3, 0.15, True, seed=4)
    temporal = build_mixed_dataset(catalog, 24, 2, 3, 0.15, True, seed=5)
    return primary, temporal


@pytest.fixture(scope="module")
def tiny_encoder(corpora):
    # vocab_size pinned explicitly so resumed runs carry the same config
    # bytes as uninterrupted ones
    vocab = build_vocab(list(corpora))
    return EncoderConfig(
        frame_dim=8,
        vocab_size=len(vocab),
        token_embed_dim=8,
        max_positions=16,
        hidden_dim=12,
        shared_dim=6,
    )


def tiny_config(encoder, **kw):
    base = dict(
        steps=6,
        batch_size=8,
        base_lr=1e-3,
        warmup_steps=2,
        temporal_fraction=0.25,
        seed=0,
        encoder=encoder,
    )
    base.update(kw)
    return tr.TrainConfig(**base)


# -- batch composition -------------------------------------------------------------


def pools(n_primary=20, n_temporal=10):
    return [("p", i) for i in range(n_primary)], [("t", i) for i in range(n_temporal)]


def test_compose_batch_floor_ratio_and_mask_alignment():
    prim, temp = pools()
    recs, mask = tr.compose_batch(prim, temp, 10, 0.25, np.random.default_rng(0))
    assert len(recs) == len(mask) == 10
    assert sum(mask) == 2  # floor(10 * 0.25)
    for rec, flag in zip(recs, mask):
        assert rec[0] == ("t" if flag else "p")


@pytest.mark.parametrize(
    "batch_size,fraction,expect",
    [(64, 0.2, 12), (8, 0.25, 2), (5, 0.2, 1), (7, 0.0, 0), (4, 1.0, 4)],
)
def test_compose_batch_temporal_count(batch_size, fraction, expect):
    prim, temp = pools(64, 16)
    _, mask = tr.compose_batch(prim, temp, batch_size, fraction, np.random.default_rng(1))
    assert sum(mask) == expect


def test_compose_batch_no_replacement_within_batch():
    prim, temp = pools(6, 2)
    recs, _ = tr.compose_batch(prim, temp, 8, 0.25, np.random.default_rng(2))
    assert sorted(recs) == sorted(prim + temp)


def test_compose_batch_empty_temporal_pool_allowed_at_zero_fraction():
    prim, _ = pools()
    recs, mask = tr.compose_batch(prim, [], 4, 0.0, np.random.default_rng(3))
    assert len(recs) == 4 and not any(mask)


def test_compose_batch_pool_exhaustion():
    prim, temp = pools(3, 1)
    with pytest.raises(EmptyPool):
        tr.compose_batch(prim, temp, 8, 0.25, np.random.default_rng(4))
    with pytest.raises(EmptyPool):
        tr.compose_batch(prim, temp, 8, 0.0, np.random.default_rng(4))


def test_compose_batch_deterministic_given_rng():
    prim, temp = pools()
    a = tr.compose_batch(prim, temp, 10, 0.3, np.random.default_rng(5))
    b = tr.compose_batch(prim, temp, 10, 0.3, np.random.default_rng(5))
    assert a == b


# -- learning-rate schedule -----------------------------------------------------------


def test_lr_schedule_ramp(tiny_encoder):
    cfg = tiny_config(tiny_encoder, steps=100, warmup_steps=10, base_lr=2e-3)
    assert tr.lr_schedule(0, cfg) == pytest.approx(2e-4)
    assert tr.lr_schedule(9, cfg) == pytest.approx(2e-3)
    assert tr.lr_schedule(50, cfg) == pytest.approx(2e-3)
    vals = [tr.lr_schedule(s, cfg) for s in range(20)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_lr_schedule_no_warmup(tiny_encoder):
    cfg = tiny_config(tiny_encoder, steps=10, warmup_steps=0)
    assert tr.lr_schedule(0, cfg) == cfg.base_lr
    assert tr.lr_schedule(7, cfg) == cfg.base_lr


def test_lr_schedule_rejects_negative_step(tiny_encoder):
    with pytest.raises(InvalidConfig):
        tr.lr_schedule(-1, tiny_config(tiny_encoder))


# -- Adam ----------------------------------------------------------------------


def scalar_params(w=0.5, log_temp=0.0):
    tensors = {
        "w": T.parameter("w", np.array([w])),
        "log_temperature": T.parameter("log_temperature", np.asarray(log_temp, dtype=float)),
    }
    return ModelParams(config=EncoderConfig(), vocab=TextVocab(tokens=("<unk>",)), tensors=tensors)


def test_adam_first_step_moves_by_lr():
    # with g = 1 the bias-corrected moments are exactly 1, so the first
    # update is -lr / (1 + eps)
    params = scalar_params(w=0.5)
    state = tr.init_optimizer(params)
    grads = {"w": np.array([1.0]), "log_temperature": np.asarray(0.0)}
    tr.adam_step(params, grads, state, lr=0.1)
    assert abs(params["w"].data[0] - 0.4) < 1e-8
    assert state.step == 1


def test_adam_zero_gradient_is_identity():
    params = scalar_params(w=0.7, log_temp=0.3)
    state = tr.init_optimizer(params)
    grads = {"w": np.array([0.0]), "log_temperature": np.asarray(0.0)}
    tr.adam_step(params, grads, state, lr=0.1)
    assert params["w"].data[0] == 0.7
    assert params["log_temperature"].data == pytest.approx(0.3)


def test_adam_matches_reference_implementation():
    rng = np.random.default_rng(6)
    p0 = rng.standard_normal((3, 4))
    grad_seq = [rng.standard_normal((3, 4)) for _ in range(5)]

    # independent reference: the textbook update, plain numpy
    m = np.zeros_like(p0)
    v = np.zeros_like(p0)
    expect = p0.copy()
    for t, g in enumerate(grad_seq, start=1):
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        expect = expect - 0.01 * (m / (1 - 0.9**t)) / (np.sqrt(v / (1 - 0.999**t)) + 1e-8)

    tensors = {
        "w": T.parameter("w", p0.copy()),
        "log_temperature": T.parameter("log_temperature", np.asarray(0.0)),
    }
    params = ModelParams(config=EncoderConfig(), vocab=TextVocab(tokens=("<unk>",)), tensors=tensors)
    state = tr.init_optimizer(params)
    for g in grad_seq:
        tr.adam_step(params, {"w": g, "log_temperature": np.asarray(0.0)}, state, lr=0.01)
    np.testing.assert_allclose(params["w"].data, expect, atol=1e-12)


def test_adam_clamps_log_temperature():
    params = scalar_params(log_temp=10.0)
    state = tr.init_optimizer(params)
    grads = {"w": np.array([0.0]), "log_temperature": np.asarray(0.0)}
    tr.adam_step(params, grads, state, lr=0.1)
    assert params["log_temperature"].data == pytest.approx(math.log(100.0))
    params2 = scalar_params(log_temp=-10.0)
    tr.adam_step(params2, grads, tr.init_optimizer(params2), lr=0.1)
    assert params2["log_temperature"].data == pytest.approx(-math.log(100.0))


def test_adam_rejects_non_finite_gradient():
    params = scalar_params()
    state = tr.init_optimizer(params)
    grads = {"w": np.array([float("nan")]), "log_temperature": np.asarray(0.0)}
    with pytest.raises(NumericError, match=r"'w' at step 1"):
        tr.adam_step(params, grads, state, lr=0.1)


def test_adam_rejects_shape_mismatch():
    params = scalar_params()
    state = tr.init_optimizer(params)
    grads = {"w": np.zeros((2, 2)), "log_temperature": np.asarray(0.0)}
    with pytest.raises(InvalidConfig, match="'w'"):
        tr.adam_step(params, grads, state, lr=0.1)


def test_flat_adam_matches_per_name_textbook_formula_bit_for_bit():
    # the update the optimizer made per tensor before it ran over one flat
    # vector, in the same operation order; log_temperature starts past its
    # upper clip and is pushed further out by every gradient
    rng = np.random.default_rng(8)
    start = {"a": rng.standard_normal((3, 4)), "b": rng.standard_normal(5),
             "log_temperature": np.asarray(4.7)}
    steps = [{name: rng.standard_normal(np.shape(x)) for name, x in start.items()}
             for _ in range(5)]
    for g in steps:
        g["log_temperature"] = np.asarray(-abs(float(g["log_temperature"])))
    expect, m, v = dict(start), {}, {}
    for t, grads in enumerate(steps, start=1):
        for name, g in grads.items():
            m[name] = 0.9 * m.get(name, np.zeros_like(g)) + (1.0 - 0.9) * g
            v[name] = 0.999 * v.get(name, np.zeros_like(g)) + (1.0 - 0.999) * (g * g)
            expect[name] = expect[name] - 0.05 * (m[name] / (1.0 - 0.9**t)) / (
                np.sqrt(v[name] / (1.0 - 0.999**t)) + 1e-8)
        expect["log_temperature"] = np.clip(expect["log_temperature"], -math.log(100.0),
                                            math.log(100.0))

    tensors = {name: T.parameter(name, x.copy()) for name, x in start.items()}
    params = ModelParams(config=EncoderConfig(), vocab=TextVocab(tokens=("<unk>",)),
                         tensors=tensors)
    state = tr.init_optimizer(params)
    for grads in steps:
        tr.adam_step(params, grads, state, lr=0.05)
    assert params["log_temperature"].data == math.log(100.0)
    for name in start:
        assert np.array_equal(params[name].data, expect[name]), name
        assert np.array_equal(state.m[name], m[name]) and np.array_equal(state.v[name], v[name])


def assert_packed(params, state):
    """Every parameter and moment is a view of its own flat vector."""
    flats = (params.flat, state.m_flat, state.v_flat)
    for name, p in params.named().items():
        for view, flat in zip((p.data, state.m[name], state.v[name]), flats):
            assert np.shares_memory(view, flat) and view.base is flat, name
    sizes = sum(p.data.size for p in params.trainable())
    assert [f.size for f in flats] == [sizes] * 3
    assert not any(np.shares_memory(a, b) for i, a in enumerate(flats) for b in flats[i + 1 :])


def test_parameters_and_moments_live_in_flat_vectors(corpora, tiny_encoder, tmp_path):
    primary, temporal = corpora
    cfg, params = tr.init_run(tiny_config(tiny_encoder), primary, temporal)
    assert_packed(params, tr.init_optimizer(params))
    control = tiny_config(tiny_encoder, loss=LossConfig(lambda_l=0.0), checkpoint_every=2)
    order = tiny_config(tiny_encoder, order_loss_start_step=3, checkpoint_every=2)
    branches = tr.train_fork([(order, tmp_path / "order"), (control, tmp_path / "control")],
                             primary, temporal, 3)
    for ckpt in branches:  # each after six Adam steps
        assert_packed(ckpt.params, ckpt.optimizer)
    (a, b) = branches
    for x in (a.params.flat, a.optimizer.m_flat, a.optimizer.v_flat):
        assert not any(np.shares_memory(x, y)
                       for y in (b.params.flat, b.optimizer.m_flat, b.optimizer.v_flat))
    loaded = tr.load_checkpoint(tmp_path / "order" / "step000002.tckp")
    assert_packed(loaded.params, loaded.optimizer)
    for _ in range(3):
        grads = {name: np.ones_like(p.data) for name, p in loaded.params.named().items()}
        tr.adam_step(loaded.params, grads, loaded.optimizer, lr=1e-3)
    assert_packed(loaded.params, loaded.optimizer)


def test_training_step_graph_is_two_towers_and_one_loss(corpora, tiny_encoder):
    primary, temporal = corpora
    params = init_params(tiny_encoder, build_vocab(list(corpora)), seed=0)
    records, mask = tr.compose_batch(list(primary.records), list(temporal.records), 8, 0.25,
                                     np.random.default_rng(0))
    assert any(mask)
    breakdown = tr.train_loss(tr.forward_batch(params, records, mask), LossConfig(),
                              params["log_temperature"])
    seen, stack = {}, [breakdown.l_train]
    while stack:
        node = stack.pop()
        if node._uid not in seen:
            seen[node._uid] = node
            stack.extend(node._parents)
    assert len(seen) == 3 + 13 and len([n for n in seen.values() if n._parents]) == 3
    assert {n.name for n in seen.values() if not n._parents} == set(params.named())
    audio, text, log_t = breakdown.l_train._parents  # the clap_loss node's
    assert log_t is params["log_temperature"]
    for node, tower, table in ((audio, "audio", "proj"), (text, "text", "embed")):
        names = [f"{tower}.{k}" for k in (table, "pos", "w1", "b1", "w2", "b2")]
        assert [p.name for p in node._parents] == names


# -- config validation -----------------------------------------------------------


@pytest.mark.parametrize(
    "kw",
    [
        {"steps": -1},
        {"batch_size": 0},
        {"warmup_steps": -1},
        {"steps": 5, "warmup_steps": 6},
        {"temporal_fraction": 1.5},
        {"temporal_fraction": -0.1},
        {"checkpoint_every": -1},
        {"order_loss_start_step": -1},
        {"base_lr": 0.0},
        {"base_lr": float("nan")},
    ],
)
def test_train_config_rejects(kw):
    with pytest.raises(InvalidConfig):
        tr.TrainConfig(**kw)


# -- checkpoint format -------------------------------------------------------------


def test_checkpoint_round_trip_and_byte_stability(corpora, tiny_encoder, tmp_path):
    primary, temporal = corpora
    cfg = tiny_config(tiny_encoder)
    cfg, params = tr.init_run(cfg, primary, temporal)
    opt = tr.init_optimizer(params)
    rng = np.random.default_rng([cfg.seed, 1])
    ckpt = tr.Checkpoint(
        params=params, train_config=cfg, optimizer=opt, step=0, rng_state=rng.bit_generator.state
    )
    path_a = tmp_path / "a.tckp"
    tr.save_checkpoint(ckpt, path_a)
    loaded = tr.load_checkpoint(path_a)
    assert loaded.step == 0
    assert loaded.train_config == cfg
    assert loaded.params.vocab.tokens == params.vocab.tokens
    for name, p in params.named().items():
        np.testing.assert_array_equal(loaded.params[name].data, p.data)
        np.testing.assert_array_equal(loaded.optimizer.m[name], opt.m[name])
    assert loaded.rng_state == ckpt.rng_state
    path_b = tmp_path / "b.tckp"
    tr.save_checkpoint(loaded, path_b)
    assert path_a.read_bytes() == path_b.read_bytes()


def test_checkpoint_missing_file(tmp_path):
    with pytest.raises(FormatError, match="does not exist"):
        tr.load_checkpoint(tmp_path / "nope.tckp")


def test_checkpoint_bad_magic(tmp_path):
    p = tmp_path / "bad.tckp"
    p.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(FormatError, match="magic"):
        tr.load_checkpoint(p)


def test_checkpoint_bad_version(tmp_path):
    p = tmp_path / "v9.tckp"
    p.write_bytes(tr.CHECKPOINT_MAGIC + struct.pack("<I", 9))
    with pytest.raises(FormatError, match="version 9"):
        tr.load_checkpoint(p)


def test_checkpoint_missing_sections(tmp_path):
    p = tmp_path / "empty.tckp"
    p.write_bytes(tr.CHECKPOINT_MAGIC + struct.pack("<I", tr.CHECKPOINT_VERSION))
    with pytest.raises(FormatError, match="missing required sections"):
        tr.load_checkpoint(p)


def test_checkpoint_truncated(corpora, tiny_encoder, tmp_path):
    primary, temporal = corpora
    cfg = tiny_config(tiny_encoder, steps=0, warmup_steps=0)
    ckpt = tr.train(cfg, primary, temporal, out_dir=tmp_path / "run")
    path = tmp_path / "run" / "final.tckp"
    assert path.is_file()
    (tmp_path / "cut.tckp").write_bytes(path.read_bytes()[:-10])
    with pytest.raises(FormatError, match="truncated"):
        tr.load_checkpoint(tmp_path / "cut.tckp")
    del ckpt


# -- training loop ------------------------------------------------------------------


def read_metrics(out_dir):
    lines = (out_dir / "metrics.jsonl").read_text().splitlines()
    return lines, [json.loads(ln) for ln in lines]


def test_zero_steps_equals_init(corpora, tiny_encoder, tmp_path):
    primary, temporal = corpora
    cfg = tiny_config(tiny_encoder, steps=0, warmup_steps=0)
    _, expect = tr.init_run(cfg, primary, temporal)
    ckpt = tr.train(cfg, primary, temporal, out_dir=tmp_path)
    assert ckpt.step == 0
    for name, p in expect.named().items():
        np.testing.assert_array_equal(ckpt.params[name].data, p.data)
    lines, _ = read_metrics(tmp_path)
    assert lines == []


def test_metrics_log_contents(corpora, tiny_encoder, tmp_path):
    primary, temporal = corpora
    cfg = tiny_config(tiny_encoder)
    tr.train(cfg, primary, temporal, out_dir=tmp_path)
    lines, rows = read_metrics(tmp_path)
    assert len(rows) == cfg.steps
    assert [r["step"] for r in rows] == list(range(cfg.steps))
    for r in rows:
        assert r["lr"] == tr.lr_schedule(r["step"], cfg)
        assert r["temporal_count"] == 2  # floor(8 * 0.25)
        assert r["l_train"] == pytest.approx(r["l_c"] + cfg.lambda_l * r["l_t"])
        assert r["l_t"] > 0


def test_rerun_is_byte_identical(corpora, tiny_encoder, tmp_path):
    primary, temporal = corpora
    cfg = tiny_config(tiny_encoder)
    tr.train(cfg, primary, temporal, out_dir=tmp_path / "one")
    tr.train(cfg, primary, temporal, out_dir=tmp_path / "two")
    assert (tmp_path / "one" / "final.tckp").read_bytes() == (
        tmp_path / "two" / "final.tckp"
    ).read_bytes()
    assert (tmp_path / "one" / "metrics.jsonl").read_bytes() == (
        tmp_path / "two" / "metrics.jsonl"
    ).read_bytes()


def test_resume_reproduces_uninterrupted_run(corpora, tiny_encoder, tmp_path):
    primary, temporal = corpora
    cfg = tiny_config(tiny_encoder, steps=4, checkpoint_every=2)
    tr.train(cfg, primary, temporal, out_dir=tmp_path / "full")
    mid = tmp_path / "full" / "step000002.tckp"
    assert mid.is_file()
    # the periodic checkpoint at the last step matches the final one
    assert (tmp_path / "full" / "step000004.tckp").read_bytes() == (
        tmp_path / "full" / "final.tckp"
    ).read_bytes()
    tr.train(cfg, primary, temporal, out_dir=tmp_path / "resumed", resume_from=mid)
    assert (tmp_path / "resumed" / "final.tckp").read_bytes() == (
        tmp_path / "full" / "final.tckp"
    ).read_bytes()
    full_lines, _ = read_metrics(tmp_path / "full")
    resumed_lines, _ = read_metrics(tmp_path / "resumed")
    assert resumed_lines == full_lines[2:]


def test_resume_into_same_dir_reproduces_uninterrupted_run(corpora, tiny_encoder, tmp_path):
    # vocab_size left at 0 here, as the CLI default leaves it
    primary, temporal = corpora
    cfg = tiny_config(dc_replace(tiny_encoder, vocab_size=0), steps=6, checkpoint_every=3)
    run_dir = tmp_path / "run"
    tr.train(cfg, primary, temporal, out_dir=run_dir)
    full = {name: (run_dir / name).read_bytes() for name in ("final.tckp", "metrics.jsonl")}
    with open(run_dir / "metrics.jsonl", "a", encoding="utf-8") as fh:
        fh.write('{"step":6,"l_c":')  # a line torn by the interruption
    tr.train(cfg, primary, temporal, out_dir=run_dir, resume_from=run_dir / "step000003.tckp")
    for name, blob in full.items():
        assert (run_dir / name).read_bytes() == blob, name
    _, rows = read_metrics(run_dir)
    assert [r["step"] for r in rows] == list(range(6))


def test_resume_rejects_corrupt_metrics_line(corpora, tiny_encoder, tmp_path):
    primary, temporal = corpora
    cfg = tiny_config(tiny_encoder, steps=4, checkpoint_every=2)
    tr.train(cfg, primary, temporal, out_dir=tmp_path)
    log, mid = tmp_path / "metrics.jsonl", tmp_path / "step000002.tckp"
    for line in ("not json", '{"step":"3"}', '{"step":null}', '{"lr":0.1}'):
        log.write_text(line + "\n")
        with pytest.raises(FormatError, match=f"{re.escape(str(log))}: bad metrics line"):
            tr.train(cfg, primary, temporal, out_dir=tmp_path, resume_from=mid)


def test_resume_from_checkpoint_value_leaves_it_unchanged(corpora, tiny_encoder, tmp_path):
    # the value comes from a 3-step run, so its train_config differs from the 6-step one
    primary, temporal = corpora
    cfg = tiny_config(tiny_encoder, steps=6)
    tr.train(cfg, primary, temporal, out_dir=tmp_path / "full")
    value = tr.train(dc_replace(cfg, steps=3), primary, temporal, out_dir=tmp_path / "half")
    before = {name: t.data.copy() for name, t in value.params.named().items()}
    moments = {name: m.copy() for name, m in value.optimizer.m.items()}
    for run in ("a", "b"):
        tr.train(cfg, primary, temporal, out_dir=tmp_path / run, resume_from=value)
        assert (tmp_path / run / "final.tckp").read_bytes() == (
            tmp_path / "full" / "final.tckp"
        ).read_bytes()
    assert value.step == 3 and value.train_config.steps == 3
    for name, data in before.items():
        np.testing.assert_array_equal(value.params[name].data, data)
        np.testing.assert_array_equal(value.optimizer.m[name], moments[name])


@pytest.mark.parametrize(
    "control_kw, order_kw, fork_step",
    [
        ({"batch_size": 6}, {}, 2),  # differ in more than the loss
        ({}, {"order_loss_start_step": 1}, 2),  # order loss on before the fork
        ({}, {}, 7),  # fork past the last step
    ],
    ids=["batch-size", "order-loss-before-fork", "past-end"],
)
def test_train_fork_rejects_branches_that_differ_before_the_fork(
    corpora, tiny_encoder, tmp_path, control_kw, order_kw, fork_step
):
    primary, temporal = corpora
    control = tiny_config(tiny_encoder, loss=LossConfig(lambda_l=0.0), **control_kw)
    order = tiny_config(tiny_encoder, **{"order_loss_start_step": 3, **order_kw})
    branches = [(order, tmp_path / "order"), (control, tmp_path / "control")]
    with pytest.raises(InvalidConfig, match="do not share"):
        tr.train_fork(branches, primary, temporal, fork_step)


def test_order_loss_delay_matches_control_through_phase_one(corpora, tiny_encoder, tmp_path):
    primary, temporal = corpora
    control = tiny_config(tiny_encoder, steps=4, loss=LossConfig(lambda_l=0.0))
    delayed = tiny_config(
        tiny_encoder, steps=4, order_loss_start_step=4, loss=LossConfig(lambda_l=0.5)
    )
    c = tr.train(control, primary, temporal, out_dir=tmp_path / "control")
    d = tr.train(delayed, primary, temporal, out_dir=tmp_path / "delayed")
    for name in c.params.named():
        np.testing.assert_array_equal(c.params[name].data, d.params[name].data)
    assert (tmp_path / "control" / "metrics.jsonl").read_bytes() == (
        tmp_path / "delayed" / "metrics.jsonl"
    ).read_bytes()


def test_order_loss_diverges_after_start_step(corpora, tiny_encoder, tmp_path):
    primary, temporal = corpora
    control = tiny_config(tiny_encoder, steps=6, loss=LossConfig(lambda_l=0.0))
    delayed = tiny_config(
        tiny_encoder, steps=6, order_loss_start_step=4, loss=LossConfig(lambda_l=0.5)
    )
    c = tr.train(control, primary, temporal, out_dir=tmp_path / "control")
    d = tr.train(delayed, primary, temporal, out_dir=tmp_path / "delayed")
    assert any(
        not np.array_equal(c.params[name].data, d.params[name].data)
        for name in c.params.named()
    )


def test_loss_decreases_over_training(corpora, tiny_encoder, tmp_path):
    primary, temporal = corpora
    cfg = tiny_config(tiny_encoder, steps=40, base_lr=5e-3, warmup_steps=5)
    tr.train(cfg, primary, temporal, out_dir=tmp_path)
    _, rows = read_metrics(tmp_path)
    head = np.mean([r["l_train"] for r in rows[:5]])
    tail = np.mean([r["l_train"] for r in rows[-5:]])
    assert tail < head


def test_train_requires_temporal_manifest_when_fraction_positive(
    corpora, tiny_encoder, tmp_path
):
    primary, _ = corpora
    cfg = tiny_config(tiny_encoder)
    with pytest.raises(EmptyPool, match="order-negative"):
        tr.train(cfg, primary, None, out_dir=tmp_path)


def test_train_rejects_catalog_mismatch(corpora, tiny_encoder, tmp_path):
    primary, _ = corpora
    other = build_mixed_dataset(build_catalog(12, 8, seed=99), 24, 2, 3, 0.15, True, seed=5)
    cfg = tiny_config(tiny_encoder)
    with pytest.raises(InvalidConfig, match="catalog"):
        tr.train(cfg, primary, other, out_dir=tmp_path)


def test_train_rejects_temporal_records_without_negatives(corpora, tiny_encoder, tmp_path):
    primary, temporal = corpora
    stripped = dc_replace(
        temporal, records=tuple(dc_replace(r, caption_neg=None) for r in temporal.records)
    )
    cfg = tiny_config(tiny_encoder)
    with pytest.raises(InvalidConfig, match="negative caption"):
        tr.train(cfg, primary, stripped, out_dir=tmp_path)


def test_init_run_fills_vocab_size(corpora):
    primary, temporal = corpora
    enc = EncoderConfig(
        frame_dim=8, token_embed_dim=8, max_positions=16, hidden_dim=12, shared_dim=6
    )
    cfg, params = tr.init_run(tiny_config(enc), primary, temporal)
    assert cfg.encoder.vocab_size == len(params.vocab)
    assert params["text.embed"].data.shape == (len(params.vocab), 8)
    assert params["log_temperature"].data == pytest.approx(math.log(1 / 0.07))
