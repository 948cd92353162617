import importlib.util
import json
import re
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from ppgemo.errors import ConfigError, ShapeError, StateError
from ppgemo.models import (
    VARIANTS,
    ConvStage,
    Model,
    ModelConfig,
    build,
    model_config_from_dict,
    model_config_to_dict,
)
from ppgemo.nn import Conv1d, Dropout, MaxPool1d, TcnSpec, walk
from ppgemo.nn.layers import OVERLAP_BATCH
from ppgemo.training import AdamState, TrainConfig, adam_step, predict_proba, weighted_cce_grad
from oracles import float_tape_model

DATA = Path(__file__).parent / "data"
TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# small configuration so model tests stay fast; shapes:
# 240 -> conv s4 -> 60 -> pool -> 30 -> conv s2 -> 15 -> pool -> 7
SMALL = ModelConfig(
    input_len=240,
    conv1=ConvStage(4, 16, 4),
    conv2=ConvStage(6, 8, 2),
    tcn=TcnSpec(filters=3, kernel_size=4, dilations=(1, 2), dropout_rate=0.3),
    lstm_units=5,
)


def test_default_shape_trace(rng):
    model = build(ModelConfig(), rng)
    model.forward(rng.standard_normal((2, 6000, 1)), "train", rng)
    trace = dict(model.shape_trace)
    assert trace["conv1"] == (2, 1500, 8)
    assert trace["pool1"] == (2, 750, 8)
    assert trace["conv2"] == (2, 375, 16)
    assert trace["pool2"] == (2, 187, 16)
    assert trace["tcn"] == (2, 8)
    assert trace["lstm"] == (2, 12)
    assert trace["concat"] == (2, 20)
    assert trace["head"] == (2, 2)


TRUNK_TRACE = [
    ("input", (2, 240, 1)),
    ("conv1", (2, 60, 4)),
    ("pool1", (2, 30, 4)),
    ("bn1", (2, 30, 4)),
    ("drop1", (2, 30, 4)),
    ("conv2", (2, 15, 6)),
    ("pool2", (2, 7, 6)),
    ("bn2", (2, 7, 6)),
    ("drop2", (2, 7, 6)),
]


@pytest.mark.parametrize(
    "variant, branches",
    [
        ("cnn", [("gpool", (2, 6))]),
        ("cnn_lstm", [("lstm", (2, 5))]),
        ("cnn_tcn_lstm", [("tcn", (2, 3)), ("lstm", (2, 5)), ("concat", (2, 8))]),
    ],
)
def test_shape_trace_per_variant(variant, branches, rng):
    # a single branch feeds the head directly: no concat stage
    model = build(replace(SMALL, variant=variant), rng)
    model.forward(rng.standard_normal((2, 240, 1)), "train", rng)
    assert model.shape_trace == TRUNK_TRACE + branches + [("head", (2, 2))]


def test_concat_width_and_head_parameter_count(rng):
    model = build(ModelConfig(), rng)
    assert model.head.params["W"].shape == (20, 2)
    assert model.head.params["W"].size + model.head.params["b"].size == 42


def test_cnn_variant_has_no_recurrent_parameters(rng):
    model = build(ModelConfig(variant="cnn"), rng)
    assert all("lstm" not in k and "tcn" not in k for k in model.params())


def test_trunk_shapes_identical_across_variants():
    shapes = {}
    for variant in ("cnn", "cnn_lstm", "cnn_tcn_lstm"):
        model = build(ModelConfig(variant=variant), np.random.default_rng(0))
        shapes[variant] = {
            k: v.shape for k, v in model.params().items() if k.startswith("trunk.")
        }
    assert shapes["cnn"] == shapes["cnn_lstm"] == shapes["cnn_tcn_lstm"]


def test_output_rows_sum_to_one(rng):
    model = build(SMALL, rng)
    probs = model.forward(rng.standard_normal((5, 240, 1)), "train", rng)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)


def test_infer_mode_is_deterministic(rng):
    model = build(SMALL, rng)
    model.forward(rng.standard_normal((4, 240, 1)), "train", rng)  # seed bn stats
    x = rng.standard_normal((3, 240, 1))
    np.testing.assert_array_equal(model.forward(x, "infer"), model.forward(x, "infer"))


def test_train_mode_deterministic_given_seed(rng):
    x = rng.standard_normal((3, 240, 1))
    outs = []
    for _ in range(2):
        model = build(SMALL, np.random.default_rng(42))
        outs.append(model.forward(x, "train", np.random.default_rng(7)))
    np.testing.assert_array_equal(outs[0], outs[1])


def test_load_rejects_unknown_manifest_format(rng, tmp_path):
    import json

    from ppgemo.models import model_config_to_dict

    path = tmp_path / "model.json"
    path.write_text(json.dumps({"format": "other/9", "config": model_config_to_dict(SMALL)}))
    with pytest.raises(ConfigError, match="format"):
        Model.load(path)


def test_wrong_input_length_names_stage(rng):
    model = build(SMALL, rng)
    with pytest.raises(ShapeError) as err:
        model.forward(np.zeros((1, 100, 1)))
    assert str(err.value) == "Model expected [batch, 240, 1], got (1, 100, 1)"


def test_wrong_input_rank_names_the_model(rng):
    model = build(SMALL, rng)
    with pytest.raises(ShapeError) as err:
        model.forward(np.zeros((240, 1)))
    assert str(err.value) == "Model expected [batch, 240, 1], got (240, 1)"


def test_bad_mode_fails_before_any_layer_runs(rng, monkeypatch):
    model = build(SMALL, rng)
    ran = []
    for path, layer in walk(model):
        monkeypatch.setattr(layer, "forward", lambda *a, path=path, **k: ran.append(path))
    with pytest.raises(ConfigError, match="mode"):
        model.forward(np.zeros((1, 240, 1)), "eval")
    assert ran == []


def test_integer_input_gives_float64_probabilities(rng):
    model = build(SMALL, rng)
    probs = model.forward(np.zeros((2, 240, 1), dtype=np.int64), "train", rng)
    assert probs.dtype == np.float64
    assert probs.shape == (2, 2)


def test_unknown_variant_rejected():
    with pytest.raises(ConfigError, match="variant"):
        ModelConfig(variant="transformer")


@pytest.mark.parametrize("variant", ["cnn", "cnn_lstm", "cnn_tcn_lstm"])
def test_every_parameter_receives_gradient(variant):
    # probabilistic smoke test: each parameter tensor must get a nonzero
    # gradient from at least one random batch
    config = ModelConfig(
        input_len=SMALL.input_len,
        conv1=SMALL.conv1,
        conv2=SMALL.conv2,
        tcn=SMALL.tcn,
        lstm_units=SMALL.lstm_units,
        variant=variant,
    )
    pending = None
    for seed in range(3):
        rng = np.random.default_rng(seed)
        model = build(config, rng)
        x = rng.standard_normal((6, 240, 1))
        y = np.array([0, 1] * 3)
        probs = model.forward(x, "train", rng)
        model.backward(weighted_cce_grad(probs, np.eye(2)[y], np.ones(2)))
        grads = model.grads()
        nonzero = {k for k, g in grads.items() if np.any(g != 0.0)}
        pending = set(grads) - nonzero if pending is None else pending - nonzero
        if not pending:
            break
    assert not pending, f"parameters with all-zero gradients: {sorted(pending)}"


def _tcn_dropouts(model):
    """The TCN blocks' dropouts, which the walk skips."""
    tcn = model.branches.get("tcn")
    return [] if tcn is None else [b.drop_a for b in tcn.blocks] + [b.drop_b for b in tcn.blocks]


def _holding_tapes(model):
    """Layers of `model` that still hold a tape, the TCN blocks' dropouts
    (which the walk skips) included."""
    layers = [layer for _, layer in walk(model)] + _tcn_dropouts(model)
    return [layer for layer in layers if layer._cache is not None]


@pytest.mark.parametrize("variant", VARIANTS)
def test_backward_frees_every_tape(variant, rng):
    model = build(replace(SMALL, variant=variant), rng)
    x = rng.standard_normal((4, 240, 1))
    probs = model.forward(x, "train", rng)
    dprobs = weighted_cce_grad(probs, np.eye(2)[[0, 1, 0, 1]], np.ones(2))
    model.backward(dprobs)
    assert _holding_tapes(model) == []
    with pytest.raises(StateError, match="without a forward"):
        model.backward(dprobs)
    model.forward(x, "train", rng)
    model.backward(dprobs)


@pytest.mark.parametrize("variant", VARIANTS)
def test_mask_tapes_reproduce_the_float_tape_step(variant):
    # paper shapes and one-decimal inputs, half of them held for 100 samples
    # at a time so that equal conv windows tie in the pools; three seeded
    # train steps, then an infer forward, through both tape kinds
    config = ModelConfig(variant=variant)
    masks = build(config, np.random.default_rng(0))
    floats = float_tape_model(build(config, np.random.default_rng(0)))
    states = [AdamState(model.params()) for model in (masks, floats)]
    data = np.random.default_rng(1)
    for step in range(3):
        x = np.round(data.standard_normal((6, config.input_len, 1)), 1)
        x[3:] = x[3:, ::100].repeat(100, axis=1)
        onehot = np.eye(2)[[0, 1, 1, 0, 1, 0]]
        got = []
        for model, state in zip((masks, floats), states):
            probs = model.forward(x, "train", np.random.default_rng([2, step]))
            model.backward(weighted_cce_grad(probs, onehot, np.array([1.0, 1.5])))
            grads = {k: g.copy() for k, g in model.grads().items()}
            adam_step(model.params(), model.grads(), state, TrainConfig())
            got.append((probs, grads, model.params(), model.buffers()))
        (probs, grads, params, buffers), (want_probs, want_grads, want_params, want_buffers) = got
        np.testing.assert_array_equal(probs, want_probs)
        for have, want in ((grads, want_grads), (params, want_params), (buffers, want_buffers)):
            assert have.keys() == want.keys()
            for k in want:
                np.testing.assert_array_equal(have[k], want[k], err_msg=f"step {step}: {k}")
    x = np.round(data.standard_normal((5, config.input_len, 1)), 1)
    np.testing.assert_array_equal(masks.forward(x, "infer"), floats.forward(x, "infer"))


@pytest.mark.parametrize("variant", VARIANTS)
def test_pool_dropout_and_relu_conv_tapes_hold_no_float_copy(variant, rng):
    # each of these tapes holds a bool mask of its layer's output shape
    model = build(ModelConfig(variant=variant), rng)
    layers = [layer for _, layer in walk(model)] + _tcn_dropouts(model)
    checked = [
        layer
        for layer in layers
        if isinstance(layer, (MaxPool1d, Dropout))
        or (isinstance(layer, Conv1d) and layer.spec.activation == "relu")
    ]
    assert len(checked) == {"cnn": 4, "cnn_lstm": 4, "cnn_tcn_lstm": 20}[variant]
    model.forward(rng.standard_normal((4, 6000, 1)), "train", rng)
    for layer in checked:
        arrays = [a for a in _flat(layer._cache) if isinstance(a, np.ndarray)]
        masks = [a for a in arrays if a.dtype == bool]
        floats = [a for a in arrays if a.dtype != bool]
        assert masks, type(layer).__name__
        if isinstance(layer, Conv1d):  # its one float array is its padded input
            assert len(floats) == 1 and floats[0].size != masks[0].size
        else:
            assert not floats, type(layer).__name__


def _flat(tape):
    for item in tape:
        yield from _flat(item) if isinstance(item, (list, tuple)) else (item,)


@pytest.mark.parametrize("variant", VARIANTS)
def test_only_the_first_conv_skips_its_input_gradient(variant, rng):
    model = build(replace(SMALL, variant=variant), rng)
    convs = {path: layer for path, layer in walk(model) if isinstance(layer, Conv1d)}
    assert [path for path, conv in convs.items() if not conv.input_grad] == ["trunk.conv1"]
    probs = model.forward(rng.standard_normal((4, 240, 1)), "train", rng)
    assert model.backward(weighted_cce_grad(probs, np.eye(2)[[0, 1, 0, 1]], np.ones(2))) is None


@pytest.mark.parametrize("variant", VARIANTS)
def test_infer_forward_records_no_tape(variant, rng):
    model = build(replace(SMALL, variant=variant), rng)
    model.forward(rng.standard_normal((4, 240, 1)), "train", rng)  # bn stats
    predict_proba(model, rng.standard_normal((5, 240, 1)), batch_size=2)
    assert _holding_tapes(model) == []
    with pytest.raises(StateError, match="without a forward"):
        model.backward(np.ones((1, 2)))


def test_save_load_round_trip(rng, tmp_path):
    model = build(SMALL, rng)
    model.forward(rng.standard_normal((4, 240, 1)), "train", rng)  # bn stats
    path = tmp_path / "model.json"
    model.save(path)
    clone = Model.load(path)
    for k, v in model.params().items():
        np.testing.assert_array_equal(clone.params()[k], v)
    x = rng.standard_normal((3, 240, 1))
    np.testing.assert_array_equal(clone.forward(x, "infer"), model.forward(x, "infer"))


def test_model_config_dict_round_trip():
    config = SMALL
    clone = model_config_from_dict(model_config_to_dict(config))
    assert clone == config


def test_output_classes_two_is_accepted_and_dropped():
    # manifests and config files written before the keys were removed carry
    # output_classes 2 and the TCN's use_skip true
    d = {**model_config_to_dict(SMALL), "output_classes": 2}
    d["tcn"]["use_skip"] = True
    assert model_config_from_dict(d) == SMALL
    assert "output_classes" not in model_config_to_dict(SMALL)
    assert "use_skip" not in model_config_to_dict(SMALL)["tcn"]


def test_other_output_classes_rejected():
    # the loss is one-hot over 2 classes and the AUC reads class 1; the TCN
    # always sums its blocks' outputs
    with pytest.raises(ConfigError, match="output_classes"):
        model_config_from_dict({**model_config_to_dict(SMALL), "output_classes": 3})
    d = model_config_to_dict(SMALL)
    d["tcn"]["use_skip"] = False
    with pytest.raises(ConfigError, match="use_skip"):
        model_config_from_dict(d)


def test_save_writes_format_2_with_seen_batch_buffers(rng, tmp_path):
    model = build(SMALL, rng)
    model.forward(rng.standard_normal((4, 240, 1)), "train", rng)
    path = tmp_path / "model.json"
    model.save(path)
    manifest = json.loads(path.read_text())
    assert manifest["format"] == "ppgemo-model/2"
    assert "bn_initialized" not in manifest
    for bn in ("bn1", "bn2"):
        assert manifest["buffers"][f"trunk.{bn}.seen_batch"] == {"data": [1.0], "shape": []}


def test_restore_carries_seen_batch(rng):
    model = build(SMALL, rng)
    fresh = model.snapshot()
    model.forward(rng.standard_normal((4, 240, 1)), "train", rng)
    model.restore(fresh)
    with pytest.raises(StateError, match="before any training batch"):
        model.forward(rng.standard_normal((1, 240, 1)), "infer")


def _drop_conv1_bias(manifest):
    del manifest["params"]["trunk.conv1.b"]


def _add_bn3_flag(manifest):
    manifest["buffers"]["trunk.bn3.seen_batch"] = {"shape": [], "data": [1.0]}


def _one_conv1_bias(manifest):
    # one value would broadcast into every bias
    manifest["params"]["trunk.conv1.b"] = {"shape": [1], "data": [0.5]}


@pytest.mark.parametrize(
    "edit, message",
    [
        (_drop_conv1_bias, r"missing \['trunk.conv1.b'\], unexpected \[\]"),
        (_add_bn3_flag, r"missing \[\], unexpected \['trunk.bn3.seen_batch'\]"),
        (_one_conv1_bias, r"trunk.conv1.b has shape \(1,\), this model's has \(4,\)"),
    ],
)
def test_load_rejects_arrays_that_do_not_fit(edit, message, rng, tmp_path):
    path = tmp_path / "model.json"
    build(SMALL, rng).save(path)
    manifest = json.loads(path.read_text())
    edit(manifest)
    path.write_text(json.dumps(manifest))
    with pytest.raises(ConfigError, match=message):
        Model.load(path)


def _truncate(text):
    return text[: len(text) // 2]


def _drop_config(text):
    manifest = json.loads(text)
    del manifest["config"]
    return json.dumps(manifest)


def _short_conv1_bias(text):
    manifest = json.loads(text)
    manifest["params"]["trunk.conv1.b"]["data"] = [0.5]  # its shape stays [4]
    return json.dumps(manifest)


@pytest.mark.parametrize(
    "edit, kind",
    [
        (_truncate, "JSONDecodeError"),
        (_drop_config, "KeyError"),
        (_short_conv1_bias, "ValueError"),
        (lambda text: "[1, 2]", "AttributeError"),
    ],
    ids=["truncated", "no-config", "data-shorter-than-shape", "json-list"],
)
def test_load_names_a_manifest_it_cannot_read(edit, kind, rng, tmp_path):
    path = tmp_path / "model.json"
    build(SMALL, rng).save(path)
    path.write_text(edit(path.read_text()))
    message = f"^cannot read model manifest {re.escape(str(path))}: {kind}: "
    with pytest.raises(ConfigError, match=message):
        Model.load(path)


def _v1_fixture():
    """A SMALL model saved in format ppgemo-model/1 after one training
    batch, and its infer probabilities for a seeded input."""
    manifest = json.loads((DATA / "model_v1.json").read_text())
    expected = json.loads((DATA / "model_v1_probs.json").read_text())
    x = np.random.default_rng(expected["input_seed"]).standard_normal(expected["input_shape"])
    return manifest, x, np.array(expected["probs"])


def test_loads_format_1_and_reproduces_its_probabilities():
    manifest, x, probs = _v1_fixture()
    assert manifest["format"] == "ppgemo-model/1" and manifest["bn_initialized"]
    model = Model.load(DATA / "model_v1.json")
    np.testing.assert_array_equal(model.forward(x, "infer"), probs)


def test_format_1_without_bn_initialized_fails_on_infer(tmp_path):
    manifest, x, _ = _v1_fixture()
    manifest["bn_initialized"] = False
    path = tmp_path / "model.json"
    path.write_text(json.dumps(manifest))
    model = Model.load(path)
    with pytest.raises(StateError, match="before any training batch"):
        model.forward(x, "infer")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("variant", VARIANTS)
def test_perfbench_tracer_records_spans_flops_and_tapes(variant):
    """perfbench's tracer reads model internals by name (`Model.trunk`,
    `Model.branches`, `Tcn.blocks`, `Conv1d.spec`, `Conv1d.output_len`,
    `Layer._cache`), and tier-1 never runs the benchmark: a rename fails
    here, not only there."""
    tracer_mod = _load_tracer()
    tracer = tracer_mod.Tracer()
    rng = np.random.default_rng(0)
    model = tracer.instrument(build(replace(SMALL, variant=variant), rng))
    x = rng.standard_normal((3, SMALL.input_len, 1))
    with tracer.operation(1, "step"):
        probs = model.forward(x, "train", rng)
        model.backward(probs - np.eye(2)[[0, 1, 0]])

    stages = [f"trunk.{name}" for name, _ in model.trunk] + list(model.branches) + ["head"]
    tcn = model.branches.get("tcn")
    if tcn is not None:
        stages += [
            f"tcn.block{b}.{name}" for b, block in enumerate(tcn.blocks) for name, _ in block.sublayers()
        ]
    names = [span[1] for span in tracer.spans]
    for stage in stages:
        assert names.count(f"{stage}.fwd") == 1, stage
        assert names.count(f"{stage}.bwd") == 1, stage

    flop_stages = [s for s in tracer_mod.FLOP_STAGES if s in stages]
    tape_stages = [s for s in tracer_mod.TAPE_STAGES if s in stages]
    assert "trunk.conv1" in flop_stages and "trunk.conv1" in tape_stages
    for stage in flop_stages:
        assert tracer.flops[f"{stage}.fwd"] > 0
        assert tracer.flops[f"{stage}.bwd"] == 2 * tracer.flops[f"{stage}.fwd"]
    for stage in tape_stages:
        assert tracer.tape_mb[stage] > 0, stage

    metrics = tracer.metrics({}, attempted=1, failed=0)
    assert set(metrics) == set(tracer_mod.per_layer_units())
    # the stages are the step root's direct children; how much of the step
    # they cover is a timing, so only their link to the root is checked
    assert metrics["trace.coverage_frac"] > 0


def _paper_step_arrays(batch):
    """A cnn_tcn_lstm train step at paper shapes, then an infer pass: the
    probabilities, gradients, post-Adam parameters and infer probabilities,
    with the set of threads the LSTM ran on."""
    model = build(ModelConfig(), np.random.default_rng(1))
    lstm = model.branches["lstm"]
    threads = set()

    def spy(fn):
        def call(*args):
            threads.add(threading.current_thread())
            return fn(*args)

        return call

    lstm.forward, lstm.backward = spy(lstm.forward), spy(lstm.backward)
    rng = np.random.default_rng(2)
    x = rng.standard_normal((batch, 6000, 1))
    onehot = np.eye(2)[rng.integers(0, 2, batch)]
    probs = model.forward(x, "train", np.random.default_rng(3))
    model.backward(weighted_cce_grad(probs, onehot, np.array([0.7, 1.3])))
    arrays = {"probs": probs, **{f"grad.{k}": v for k, v in model.grads().items()}}
    adam_step(model.params(), model.grads(), AdamState(model.params()), TrainConfig())
    arrays.update({f"param.{k}": v.copy() for k, v in model.params().items()})
    arrays["infer"] = predict_proba(model, x)
    return arrays, threads


@pytest.mark.parametrize("batch", [3, OVERLAP_BATCH, 64])
def test_branches_on_the_helper_give_the_sequential_bytes(batch):
    # on the main thread the LSTM and each conv's dW run on the helper from
    # OVERLAP_BATCH rows; in a worker thread everything runs in turn
    overlapped, main_threads = _paper_step_arrays(batch)
    out = []
    worker = threading.Thread(target=lambda: out.append(_paper_step_arrays(batch)))
    worker.start()
    worker.join(timeout=300)
    assert not worker.is_alive()
    (sequential, worker_threads), = out
    on_main = batch < OVERLAP_BATCH
    assert main_threads and (threading.main_thread() in main_threads) == on_main
    assert worker_threads == {worker}
    assert overlapped.keys() == sequential.keys()
    for key, a in overlapped.items():
        assert a.dtype == sequential[key].dtype and a.shape == sequential[key].shape, key
        assert a.tobytes() == sequential[key].tobytes(), key
