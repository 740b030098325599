"""Training-loop checks: batching, schedule, Adam, checkpoints, resume."""

import gc
import json
import math
import re
import struct
import weakref
from dataclasses import replace as dc_replace

import numpy as np
import pytest

import tinyclap.tensor as T
from tinyclap import trainer as tr
from tinyclap.corpus import build_catalog, build_mixed_dataset
from tinyclap.encoders import (
    EncoderConfig,
    ModelParams,
    TextVocab,
    build_vocab,
    forward_batch,
    init_params,
    param_count,
    param_shapes,
)
from tinyclap.errors import (
    EmptyPool,
    FormatError,
    InvalidConfig,
    NumericError,
    SequenceTooLong,
)
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


@pytest.mark.parametrize("batch_size, fraction", [(10, 0.3), (8, 0.0), (4, 1.0), (9, 0.25)])
def test_compose_batch_draws_temporal_then_primary_then_shuffles(batch_size, fraction):
    # the draws as a loop over the picks: the batch stream every checkpoint's bits rest on
    prim, temp = pools(12, 6)
    got = tr.compose_batch(prim, temp, batch_size, fraction, np.random.default_rng(6))
    rng = np.random.default_rng(6)
    n_temporal = math.floor(batch_size * fraction + 1e-9)
    picks = [(temp[i], True) for i in (rng.choice(6, n_temporal, replace=False)
                                       if n_temporal else [])]
    picks += [(prim[i], False) for i in (rng.choice(12, batch_size - n_temporal, replace=False)
                                         if batch_size > n_temporal else [])]
    shuffled = [picks[i] for i in rng.permutation(batch_size)]
    assert got == ([rec for rec, _ in shuffled], [flag for _, flag in shuffled])


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


# 83 numbers in all; the 3-token vocab makes text.embed 3 x 4
TINY_LAYOUT = EncoderConfig(frame_dim=2, token_embed_dim=4, max_positions=2, hidden_dim=3,
                            shared_dim=2)
TINY_VOCAB = TextVocab(tokens=("<unk>", "a", "b"))


def tiny_params(values=None, flat=None):
    """Parameters on the tiny layout: `flat`, or zeros, with the named ones set to `values`."""
    if flat is None:
        flat = np.zeros(param_count(TINY_LAYOUT, TINY_VOCAB))
    params = ModelParams(TINY_LAYOUT, TINY_VOCAB, flat)
    for name, value in (values or {}).items():
        params[name].data[...] = value
    return params


def tiny_grads(values):
    """A flat gradient on the tiny layout, zero but for the named parameters."""
    return tiny_params(values).flat


def zero_moments(params):
    return np.zeros_like(params.flat), np.zeros_like(params.flat)


def test_adam_first_step_moves_by_lr():
    # with g = 1 the bias-corrected moments are exactly 1, so the first
    # update is -lr / (1 + eps)
    params = tiny_params({"text.embed": 0.5})
    grads = tiny_grads({"text.embed": np.ones((3, 4))})
    tr.adam_step(params, grads, *zero_moments(params), 1, lr=0.1)
    assert np.all(abs(params["text.embed"].data - 0.4) < 1e-8)
    assert not params["audio.w1"].data.any()


def test_adam_zero_gradient_is_identity():
    params = tiny_params({"text.embed": 0.7, "log_temperature": 0.3})
    tr.adam_step(params, tiny_grads({}), *zero_moments(params), 1, lr=0.1)
    assert np.all(params["text.embed"].data == 0.7)
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

    params = tiny_params({"text.embed": p0})
    moments = zero_moments(params)
    for t, g in enumerate(grad_seq, start=1):
        tr.adam_step(params, tiny_grads({"text.embed": g}), *moments, t, lr=0.01)
    np.testing.assert_allclose(params["text.embed"].data, expect, atol=1e-12)


def test_adam_clamps_log_temperature():
    for start, clamped in ((10.0, math.log(100.0)), (-10.0, -math.log(100.0))):
        params = tiny_params({"log_temperature": start})
        tr.adam_step(params, tiny_grads({}), *zero_moments(params), 1, lr=0.1)
        assert params["log_temperature"].data == pytest.approx(clamped)


def test_adam_rejects_non_finite_gradient():
    # the error names the parameter that holds the first bad number: at the
    # layout's first and last offsets, inside one, and ahead of a later one
    params = tiny_params()
    nan, inf = float("nan"), float("inf")
    for bad, name in (({"text.b1": np.array([0.0, nan, 0.0])}, "text.b1"),
                      ({"text.embed": inf}, "text.embed"),
                      ({"log_temperature": -inf}, "log_temperature"),
                      ({"audio.b2": nan, "audio.proj": inf}, "audio.proj")):
        with pytest.raises(NumericError, match=rf"'{name}' at step 4"):
            tr.adam_step(params, tiny_grads(bad), *zero_moments(params), 4, lr=0.1)
    assert not params.flat.any()


def test_adam_rejects_shape_mismatch():
    # the gradient is one vector of exactly params.flat's length
    params = tiny_params()
    n = params.flat.size
    for grads in (np.zeros(n - 1), np.zeros(n + 1), np.zeros((1, n))):
        with pytest.raises(InvalidConfig, match=f"for {n} parameters"):
            tr.adam_step(params, grads, *zero_moments(params), 1, lr=0.1)
        assert not params.flat.any()


def test_flat_adam_matches_per_name_textbook_formula_bit_for_bit():
    # the update the optimizer made per tensor before it ran over one flat
    # vector, in the same operation order; log_temperature starts past its
    # upper clip and is pushed further out by every gradient
    rng = np.random.default_rng(8)
    params = tiny_params(flat=rng.standard_normal(param_count(TINY_LAYOUT, TINY_VOCAB)))
    params["log_temperature"].data[...] = 4.7
    start = {name: t.data.copy() for name, t in params.named().items()}
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

    moments = zero_moments(params)
    for t, grads in enumerate(steps, start=1):
        flat = tiny_params(grads).flat
        kept = flat.copy()
        tr.adam_step(params, flat, *moments, t, lr=0.05)
        assert flat.tobytes() == kept.tobytes()  # Adam's scratch is its own
    assert params["log_temperature"].data == math.log(100.0)
    got_m, got_v = (tiny_params(flat=x) for x in moments)  # the moments, cut per name
    for name in start:
        assert np.array_equal(params[name].data, expect[name]), name
        assert np.array_equal(got_m[name].data, m[name]), name
        assert np.array_equal(got_v[name].data, v[name]), name


@pytest.mark.parametrize(
    "flat",
    [np.zeros(5), np.zeros(param_count(TINY_LAYOUT, TINY_VOCAB) + 1),
     np.zeros(param_count(TINY_LAYOUT, TINY_VOCAB), dtype=np.float32),
     np.zeros(param_count(TINY_LAYOUT, TINY_VOCAB), dtype=">f8"),
     np.zeros((1, param_count(TINY_LAYOUT, TINY_VOCAB))),
     [0.0] * param_count(TINY_LAYOUT, TINY_VOCAB)],
    ids=["short", "one-long", "float32", "big-endian", "2-d", "list"],
)
def test_model_params_reject_a_flat_vector_off_the_layout(flat):
    with pytest.raises(InvalidConfig, match="flat must be one float64 vector of"):
        ModelParams(TINY_LAYOUT, TINY_VOCAB, flat)


def assert_packed(ckpt):
    """Every parameter is a view of params.flat, and the parameters and the two
    moments are three vectors of the layout's size that share no memory."""
    flats = (ckpt.params.flat, ckpt.m, ckpt.v)
    for name, p in ckpt.params.named().items():
        assert np.shares_memory(p.data, flats[0]) and p.data.base is flats[0], name
    size = param_count(ckpt.params.config, ckpt.params.vocab)
    assert [f.shape for f in flats] == [(size,)] * 3
    assert all(f.dtype == np.float64 for f in flats)
    assert not any(np.shares_memory(a, b) for i, a in enumerate(flats) for b in flats[i + 1 :])


def test_parameters_and_moments_live_in_flat_vectors(corpora, tiny_encoder, tmp_path):
    primary, temporal = corpora
    cfg, params = tr.init_run(tiny_config(tiny_encoder), primary, temporal)
    assert_packed(tr.Checkpoint(params, cfg, *zero_moments(params), 0, {}))
    control = tiny_config(tiny_encoder, loss=LossConfig(lambda_l=0.0), checkpoint_every=2)
    order = tiny_config(tiny_encoder, order_loss_start_step=3, checkpoint_every=2)
    branches = tr.train_fork([(order, tmp_path / "order"), (control, tmp_path / "control")],
                             primary, temporal, 3)
    for ckpt in branches:  # each after six Adam steps
        assert_packed(ckpt)
    (a, b) = branches
    for x in (a.params.flat, a.m, a.v):
        assert not any(np.shares_memory(x, y) for y in (b.params.flat, b.m, b.v))
    loaded = tr.load_checkpoint(tmp_path / "order" / "step000002.tckp")
    assert_packed(loaded)
    for t in range(loaded.step + 1, loaded.step + 4):
        tr.adam_step(loaded.params, np.ones_like(loaded.params.flat), loaded.m, loaded.v, t,
                     lr=1e-3)
    assert_packed(loaded)


def test_training_step_graph_is_two_towers_and_one_loss(corpora, tiny_encoder, monkeypatch):
    primary, temporal = corpora
    params = init_params(tiny_encoder, build_vocab(list(corpora)), seed=0)
    records, mask = tr.compose_batch(list(primary.records), list(temporal.records), 8, 0.25,
                                     np.random.default_rng(0))
    assert any(mask)
    calls = {"tower": [], "clap_loss": []}
    for op, log in calls.items():
        def spy(*args, _op=getattr(T, op), _log=log, **kwargs):
            _log.append((args, _op(*args, **kwargs)))
            return _log[-1][1]
        monkeypatch.setattr(T, op, spy)
    breakdown = tr.train_loss(forward_batch(params, records, mask), LossConfig(),
                              params["log_temperature"])
    (text_args, text), (audio_args, audio) = calls["tower"]
    for args, tower, table in ((text_args, "text", "embed"), (audio_args, "audio", "proj")):
        names = [f"{tower}.{k}" for k in (table, "pos", "w1", "b1", "w2", "b2")]
        assert len(args) == 8 and all(a is params[n] for a, n in zip(args[1:7], names))
    [(loss_args, (l_train, _, _))] = calls["clap_loss"]
    assert loss_args[0] is audio and loss_args[1] is text
    assert loss_args[2] is params["log_temperature"] and l_train is breakdown.l_train
    # each of the 13 parameters belongs to one op, so backward sends it one
    # gradient: its buffer is that one array added to zeros
    sent = []

    def spy(node, g, _send=T._send):
        sent.append(node)
        _send(node, g)

    monkeypatch.setattr(T, "_send", spy)
    T.backward(l_train, params.trainable())
    reached = [node for node in sent if node.grad is not None]
    assert sorted(map(id, reached)) == sorted(map(id, params.trainable()))


def test_backward_fills_views_of_the_flat_gradient(corpora, tiny_encoder):
    # backward returns each parameter's cut of params.grad, at the offsets
    # param_shapes gives, and a second call on the same batch starts from zeros
    primary, temporal = corpora
    params = init_params(tiny_encoder, build_vocab(list(corpora)), seed=0)
    records, mask = tr.compose_batch(list(primary.records), list(temporal.records), 8, 0.25,
                                     np.random.default_rng(0))
    flats = []
    for _ in range(2):
        breakdown = tr.train_loss(forward_batch(params, records, mask), LossConfig(),
                                  params["log_temperature"])
        grads = T.backward(breakdown.l_train, params.trainable())
        start = 0
        for (name, shape), g in zip(param_shapes(tiny_encoder, params.vocab).items(),
                                    grads.values()):
            assert g.shape == shape and g.base is params.grad, name
            assert g.ctypes.data == params.grad[start:].ctypes.data, name
            start += math.prod(shape)
        assert start == params.grad.size and params.grad.any()
        flats.append(params.grad.tobytes())
    assert flats[0] == flats[1]


def test_dropped_parameters_are_freed_without_the_cycle_collector(corpora, tiny_encoder,
                                                                  tmp_path):
    # a parameter's gradient mark must not close over the parameter: such a
    # cycle keeps a dropped parameter set, with its flat vector and the
    # checkpoint payload its views came from, alive until gc runs; and the
    # parameters of a loaded checkpoint must not keep its moments alive
    primary, temporal = corpora
    cfg, params = tr.init_run(tiny_config(tiny_encoder), primary, temporal)
    state = tr.Checkpoint(params, cfg, *zero_moments(params), 0,
                          np.random.default_rng(0).bit_generator.state)
    tr.save_checkpoint(state, tmp_path / "a.tckp")
    records, mask = tr.compose_batch(list(primary.records), list(temporal.records), 8, 0.25,
                                     np.random.default_rng(0))
    gc.collect()
    gc.disable()
    try:
        for make in (lambda: tr.load_checkpoint(tmp_path / "a.tckp").params,
                     lambda: init_params(tiny_encoder, params.vocab, seed=1)):
            fresh = make()
            breakdown = tr.train_loss(forward_batch(fresh, records, mask), LossConfig(),
                                      fresh["log_temperature"])
            T.backward(breakdown.l_train, fresh.trainable())
            flat = weakref.ref(fresh.flat)
            del fresh, breakdown
            assert flat() is None
        ckpt = tr.load_checkpoint(tmp_path / "a.tckp")
        assert all(x.base is None for x in (ckpt.params.flat, ckpt.m, ckpt.v))  # 3 allocations
        moments = [weakref.ref(ckpt.m), weakref.ref(ckpt.v)]
        kept = ckpt.params
        del ckpt
        assert [ref() for ref in moments] == [None, None]
        assert kept["text.w1"].data.base is kept.flat
    finally:
        gc.enable()


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
    m, v = np.linspace(-1.0, 1.0, params.flat.size), np.linspace(0.0, 2.0, params.flat.size)
    rng = np.random.default_rng([cfg.seed, 1])
    ckpt = tr.Checkpoint(params, cfg, m, v, 5, rng.bit_generator.state)
    path_a = tmp_path / "a.tckp"
    tr.save_checkpoint(ckpt, path_a)
    loaded = tr.load_checkpoint(path_a)
    assert loaded.step == 5
    assert loaded.train_config == cfg
    assert loaded.params.vocab.tokens == params.vocab.tokens
    for name, p in params.named().items():
        np.testing.assert_array_equal(loaded.params[name].data, p.data)
    np.testing.assert_array_equal(loaded.m, m)
    np.testing.assert_array_equal(loaded.v, v)
    assert loaded.rng_state == ckpt.rng_state
    # header, meta, then the three flat vectors back to back and nothing else
    raw = path_a.read_bytes()
    (meta_len,) = struct.unpack_from("<Q", raw, 8)
    assert len(raw) == 16 + meta_len + 24 * params.flat.size
    vectors = np.frombuffer(raw, "<f8", offset=16 + meta_len).reshape(3, -1)
    for got, want in zip(vectors, (params.flat, m, v)):
        np.testing.assert_array_equal(got, want)
    path_b = tmp_path / "b.tckp"
    tr.save_checkpoint(loaded, path_b)
    assert path_a.read_bytes() == path_b.read_bytes()


@pytest.mark.parametrize("change", ["other-encoder"])
def test_save_checkpoint_rejects_params_off_the_file_layout(change, corpora, tiny_encoder,
                                                            tmp_path):
    # the file stores flat vectors with no names or shapes, so parameters
    # stamped with a config of other shapes would load wrong
    primary, temporal = corpora
    cfg, params = tr.init_run(tiny_config(tiny_encoder), primary, temporal)
    cfg = dc_replace(cfg, encoder=dc_replace(tiny_encoder, hidden_dim=24))
    state = tr.Checkpoint(params, cfg, *zero_moments(params), 0,
                          np.random.default_rng(0).bit_generator.state)
    with pytest.raises(InvalidConfig, match="not the layout the config and vocab give"):
        tr.save_checkpoint(state, tmp_path / "a.tckp")
    assert not (tmp_path / "a.tckp").exists()


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


def test_checkpoint_truncated_header(tmp_path):
    p = tmp_path / "empty.tckp"
    p.write_bytes(tr.CHECKPOINT_MAGIC + struct.pack("<I", tr.CHECKPOINT_VERSION) + bytes(7))
    with pytest.raises(FormatError, match=r"truncated checkpoint header \(15 bytes\)"):
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


@pytest.mark.parametrize("word", [7, None], ids=["number", "null"])
def test_checkpoint_vocab_must_hold_strings(corpora, tiny_encoder, tmp_path, word):
    # a vocab entry that is no string would map every use of its word to <unk>
    primary, temporal = corpora
    cfg, params = tr.init_run(tiny_config(tiny_encoder), primary, temporal)
    path = tmp_path / "a.tckp"
    tr.save_checkpoint(tr.Checkpoint(params, cfg, *zero_moments(params), 0,
                                     np.random.default_rng(0).bit_generator.state), path)
    assert tr.load_checkpoint(path).params.vocab == params.vocab
    raw = path.read_bytes()
    body = 16 + struct.unpack_from("<Q", raw, 8)[0]
    meta = json.loads(raw[16:body])
    meta["vocab"][1] = word
    blob = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    path.write_bytes(raw[:8] + struct.pack("<Q", len(blob)) + blob + raw[body:])
    with pytest.raises(FormatError, match=f"{re.escape(str(path))}: bad meta: .*vocab token 1 "
                                          f"is {word!r}, not a string"):
        tr.load_checkpoint(path)


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


def test_resume_with_another_encoder_is_rejected_before_any_step(corpora, tiny_encoder,
                                                                tmp_path):
    primary, temporal = corpora
    cfg = tiny_config(tiny_encoder, steps=4, checkpoint_every=2)
    tr.train(cfg, primary, temporal, out_dir=tmp_path / "full")
    wider = dc_replace(cfg, encoder=dc_replace(tiny_encoder, hidden_dim=24))
    out = tmp_path / "resumed"
    with pytest.raises(InvalidConfig, match=r"encoder .*hidden_dim=24.* differs from the "
                                            r"checkpoint's .*hidden_dim=12"):
        tr.train(wider, primary, temporal, out_dir=out,
                 resume_from=tmp_path / "full" / "step000002.tckp")
    assert not out.exists()


def test_resume_rejects_corrupt_metrics_line(corpora, tiny_encoder, tmp_path):
    primary, temporal = corpora
    cfg = tiny_config(tiny_encoder, steps=4, checkpoint_every=2)
    tr.train(cfg, primary, temporal, out_dir=tmp_path)
    log, mid = tmp_path / "metrics.jsonl", tmp_path / "step000002.tckp"
    for line in ("not json", '{"step":"3"}', '{"step":null}', '{"lr":0.1}'):
        log.write_text(line + "\n")
        with pytest.raises(FormatError, match=f"{re.escape(str(log))}: bad metrics line"):
            tr.train(cfg, primary, temporal, out_dir=tmp_path, resume_from=mid)


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


def test_init_run_fills_vocab_size(corpora):
    primary, temporal = corpora
    enc = EncoderConfig(
        frame_dim=8, token_embed_dim=8, max_positions=16, hidden_dim=12, shared_dim=6
    )
    cfg, params = tr.init_run(tiny_config(enc), primary, temporal)
    assert cfg.encoder.vocab_size == len(params.vocab)
    assert params["text.embed"].data.shape == (len(params.vocab), 8)
    assert params["log_temperature"].data == pytest.approx(math.log(1 / 0.07))


def test_array_step_matches_the_record_level_loop(corpora, tiny_encoder, tmp_path):
    # train() encodes its pools once and gathers each batch from the arrays; a loop
    # over the record-level API must give the same log and the same three vectors
    primary, temporal = corpora
    cfg = tiny_config(tiny_encoder, steps=30, warmup_steps=5, order_loss_start_step=12)
    got = tr.train(cfg, primary, temporal, out_dir=tmp_path)
    cfg, params = tr.init_run(cfg, primary, temporal)
    m, v = zero_moments(params)
    rng = np.random.default_rng([cfg.seed, 1])
    lines = []
    for step in range(cfg.steps):
        lr = tr.lr_schedule(step, cfg)
        records, mask = tr.compose_batch(list(primary.records), list(temporal.records),
                                         cfg.batch_size, cfg.temporal_fraction, rng)
        loss_cfg = cfg.loss if step >= cfg.order_loss_start_step else LossConfig(lambda_l=0.0)
        out = tr.train_loss(forward_batch(params, records, mask), loss_cfg,
                            params["log_temperature"])
        T.backward(out.l_train, params.trainable())
        tr.adam_step(params, params.grad, m, v, step + 1, lr)
        lines.append(json.dumps({"step": step, "lr": lr, "l_c": out.l_c.item(),
                                 "l_t": out.l_t.item(), "l_train": out.l_train.item(),
                                 "temporal_count": out.temporal_count},
                                sort_keys=True, separators=(",", ":")) + "\n")
    rows = [json.loads(line) for line in lines]
    assert all((r["l_train"] != r["l_c"]) == (r["step"] >= 12) for r in rows)  # order term on
    assert (tmp_path / "metrics.jsonl").read_text(encoding="utf-8") == "".join(lines)
    for name, vec, want in (("flat", got.params.flat, params.flat), ("m", got.m, m),
                            ("v", got.v, v)):
        assert vec.tobytes() == want.tobytes(), name


def test_pools_are_encoded_once_per_pipeline(corpora, tiny_encoder, tmp_path, monkeypatch):
    primary, temporal = corpora
    calls = []
    encode = tr.encode_pool
    monkeypatch.setattr(tr, "encode_pool", lambda *args: calls.append(args) or encode(*args))
    tr.train(tiny_config(tiny_encoder), primary, temporal, out_dir=tmp_path / "one")
    assert len(calls) == 1 and len(calls[0][1]) == len(primary.records) + len(temporal.records)
    control = tiny_config(tiny_encoder, loss=LossConfig(lambda_l=0.0))
    order = tiny_config(tiny_encoder, order_loss_start_step=3)
    tr.train_fork([(order, tmp_path / "order"), (control, tmp_path / "control")],
                  primary, temporal, 3)
    assert len(calls) == 2


def test_pool_checks_run_before_any_step(corpora, tiny_encoder, tmp_path):
    primary, temporal = corpora
    # a five-event caption has at least nine tokens; its five-row clip fits
    long = build_mixed_dataset(build_catalog(12, 8, seed=3), 16, 5, 1, 0.15, False, seed=6)
    short = dc_replace(tiny_encoder, vocab_size=0, max_positions=8)
    with pytest.raises(SequenceTooLong, match=r"text input \d+ has \d+ positions, max is 8"):
        tr.train(tiny_config(short), long, long, out_dir=tmp_path / "long")
    narrow = dc_replace(tiny_encoder, frame_dim=6)
    with pytest.raises(InvalidConfig, match=r"clip must be T x 6, got shape \(6, 8\)"):
        tr.train(tiny_config(narrow), primary, temporal, out_dir=tmp_path / "narrow")
    assert not any(tmp_path.iterdir())  # no metrics log was opened
