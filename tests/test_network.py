"""Network tests: forward pass, losses, exact gradients, checkpoints."""

import itertools
import json
import math
import struct
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from batches import make_batch, random_batch
from oracles import (
    _reference_masks,
    finite_difference_grads,
    max_relative_error,
    stacked_finite_difference_grads,
)
from vtapred import CVConfig, NetworkError, network, optim, predict
from vtapred.evaluation import build_examples
from vtapred.features import Cohort, fit_standardizer
from vtapred.network import (
    CHECKPOINT_DTYPES,
    CHECKPOINT_MAGIC,
    DROPOUT_BLOCK_VALUES,
    TASKS,
    CheckpointError,
    NetworkConfig,
    NetworkParams,
    Workspace,
    backward,
    draw_dropout_masks,
    dropout_layout,
    forward,
    init_params,
    load_checkpoint,
    loss,
    objective,
    save_checkpoint,
    tensor_shapes,
)
from vtapred.optim import train


def small_config(**overrides) -> NetworkConfig:
    base = dict(num_features=4, num_decades=2, use_embedding=True, embed_dim=3, hidden=(5, 4, 3))
    base.update(overrides)
    return NetworkConfig(**base)


def parameter_count(config: NetworkConfig) -> int:
    return sum(math.prod(shape) for shape in tensor_shapes(config).values())


def zero_params(config: NetworkConfig) -> NetworkParams:
    return NetworkParams(config, np.zeros(parameter_count(config)))


def rewrite_header(path, edit) -> None:
    """Apply ``edit`` to a saved checkpoint's JSON header in place, keeping its tensor bytes."""
    data = path.read_bytes()
    (header_len,) = struct.unpack("<I", data[5:9])
    header = json.loads(data[9:9 + header_len])
    edit(header)
    blob = json.dumps(header).encode("utf-8")
    path.write_bytes(data[:5] + struct.pack("<I", len(blob)) + blob + data[9 + header_len:])


class TestForward:
    def test_zero_weights_give_uniform_heads(self, rng):
        params = zero_params(small_config())
        outputs, _ = forward(params, rng.random((1, 4)), decade_index=np.array([1]))
        np.testing.assert_allclose(outputs["vta_probs"], [[0.5, 0.5]])
        np.testing.assert_allclose(outputs["nyhac_probs"], [[0.25] * 4])
        assert outputs["bmi"][0] == 0.0

    def test_inference_is_bit_identical(self, rng):
        params = init_params(small_config(), rng)
        x = rng.random((6, 4))
        idx = rng.integers(0, 3, 6)
        a, _ = forward(params, x, idx)
        b, _ = forward(params, x, idx)
        for key in ("vta_probs", "nyhac_probs", "bmi"):
            np.testing.assert_array_equal(a[key], b[key])

    def test_softmax_rows_sum_to_one_and_stay_positive(self, rng):
        params = init_params(small_config(), rng)
        outputs, _ = forward(params, rng.random((20, 4)), rng.integers(0, 3, 20))
        for key in ("vta_probs", "nyhac_probs"):
            np.testing.assert_allclose(outputs[key].sum(axis=1), 1.0, atol=1e-12)
            assert (outputs[key] > 0.0).all()

    def test_single_vector_rejected(self, rng):
        params = init_params(small_config(), rng)
        with pytest.raises(NetworkError, match="2-D"):
            forward(params, np.zeros(4), decade_index=np.array([0]))

    def test_feature_width_checked(self, rng):
        params = init_params(small_config(), rng)
        with pytest.raises(NetworkError, match="expected 4 features"):
            forward(params, np.zeros((1, 5)), decade_index=np.array([0]))

    def test_decade_required_with_embedding(self, rng):
        params = init_params(small_config(), rng)
        with pytest.raises(NetworkError, match="decade_index is required"):
            forward(params, np.zeros((1, 4)))

    def test_decade_range_checked(self, rng):
        params = init_params(small_config(), rng)
        with pytest.raises(NetworkError, match="decade_index outside"):
            forward(params, np.zeros((1, 4)), decade_index=np.array([3]))

    def test_decade_batch_length_checked(self, rng):
        params = init_params(small_config(), rng)
        with pytest.raises(NetworkError, match="length must match"):
            forward(params, np.zeros((2, 4)), decade_index=np.array([0]))

    @pytest.mark.parametrize("tasks", [("vta",), ("vta", "nyhac"), ("vta", "bmi")])
    def test_skipped_branches_leave_event_head_unchanged(self, rng, tasks):
        # a net holding fewer heads, built from a full net's tensors, gives the same event head
        cfg = small_config()
        params = init_params(cfg, rng)
        part_cfg = small_config(heads=tasks)
        kept = [params[name].ravel() for name in tensor_shapes(part_cfg)]
        part_params = NetworkParams(part_cfg, np.concatenate(kept))
        x = rng.random((9, 4))
        idx = rng.integers(0, 3, 9)
        masks = draw_dropout_masks(cfg, 9, 0.75, np.random.default_rng(4))
        part_masks = draw_dropout_masks(part_cfg, 9, 0.75, np.random.default_rng(4))
        full, _ = forward(params, x, idx, masks)
        part, cache = forward(part_params, x, idx, part_masks)
        for key in ("vta_probs", "vta_logits"):
            assert np.array_equal(part[key], full[key])
        assert [task for task in TASKS if task in cache] == list(tasks)

    def test_no_embedding_ignores_decades(self, rng):
        cfg = small_config(use_embedding=False, num_decades=0)
        params = init_params(cfg, rng)
        a, _ = forward(params, np.full((1, 4), 0.3))
        b, _ = forward(params, np.full((1, 4), 0.3), decade_index=np.array([99]))
        np.testing.assert_array_equal(a["vta_probs"], b["vta_probs"])


class TestInit:
    def test_same_seed_same_params(self):
        cfg = small_config()
        a = init_params(cfg, np.random.default_rng(7))
        b = init_params(cfg, np.random.default_rng(7))
        assert a.keys() == b.keys()
        for name in a:
            np.testing.assert_array_equal(a[name], b[name])

    def test_different_seeds_differ(self):
        cfg = small_config()
        a = init_params(cfg, np.random.default_rng(7))
        b = init_params(cfg, np.random.default_rng(8))
        assert any(not np.array_equal(a[n], b[n]) for n in a)

    def test_biases_start_at_zero(self, rng):
        params = init_params(small_config(), rng)
        for name, tensor in params.items():
            if name.endswith(("b1", "b2", "b3", "bout")):
                assert not tensor.any()

    def test_embedding_rows_bounded(self, rng):
        params = init_params(small_config(), rng)
        emb = params["embedding"]
        assert emb.shape == (3, 3)
        assert np.abs(emb).max() <= 0.05

    def test_weight_bounds_follow_fan_sizes(self, rng):
        cfg = small_config()
        params = init_params(cfg, rng)
        for name, shape in tensor_shapes(cfg).items():
            if len(shape) == 2 and name != "embedding":
                bound = math.sqrt(6.0 / (shape[0] + shape[1]))
                assert np.abs(params[name]).max() <= bound

    def test_tensors_are_views_of_one_buffer_that_copy_detaches(self, rng):
        params = init_params(small_config(), rng)
        flat = params.flat
        assert flat.size == sum(t.size for t in params.values())
        for tensor in params.values():
            assert np.shares_memory(tensor, flat)
        params["W1"][0, 0] = 7.0
        assert 7.0 in flat
        assert NetworkParams(params.config, flat)["W1"][0, 0] == 7.0  # the buffer is taken, not copied
        twin = params.astype(flat.dtype)
        assert not np.shares_memory(twin.flat, flat)
        twin["W1"][0, 0] = -7.0
        assert params["W1"][0, 0] == 7.0
        for name in params:
            assert np.shares_memory(twin[name], twin.flat)

    @pytest.mark.parametrize("case", ["short", "long", "2-D", "int64", "float16", "big-endian", "list", "tensors",
                                      "other-tensors"])
    def test_only_the_config_layout_in_one_float_buffer_is_taken(self, case):
        cfg = small_config()
        size = parameter_count(cfg)
        flat = {
            "short": np.zeros(size - 1),
            "long": np.zeros(size + 1),
            "2-D": np.zeros((1, size)),
            "int64": np.zeros(size, np.int64),
            "float16": np.zeros(size, np.float16),
            "big-endian": np.zeros(size, np.dtype(np.float64).newbyteorder("S")),
            "list": [0.0] * size,
            "tensors": dict(zero_params(cfg)),
            # once accepted, and saved as a file that would not load: "truncated tensor 'W1'"
            "other-tensors": {"w": np.zeros(1)},
        }[case]
        with pytest.raises(NetworkError, match=f"1-D float32 or float64 array of {size} values"):
            NetworkParams(cfg, flat)

    def test_astype_rounds_each_value_once_into_a_new_buffer(self):
        values = init_params(small_config(), np.random.default_rng(7))
        values.flat[:] += 1e-9  # values that float32 does not hold
        for dtype in (np.float32, np.float64):
            cast = values.astype(dtype)
            assert cast.config == values.config and cast.flat.dtype == dtype
            assert not np.shares_memory(cast.flat, values.flat)
            for name in values:
                assert cast[name].dtype == dtype
                assert np.array_equal(cast[name], values[name].astype(dtype)), (dtype, name)
        assert not np.array_equal(values.astype(np.float32).flat, values.flat)

    def test_parameter_sets_are_equal_only_to_themselves(self, rng):
        params = init_params(small_config(), rng)
        assert params == params and hash(params) == hash(params)
        assert params != params.astype(params.flat.dtype)
        assert len({params, params.zeros_like()}) == 2

    def test_numpy_integers_are_sizes(self, tmp_path):
        config = small_config(num_features=np.int64(4), num_decades=np.int32(2), use_embedding=np.bool_(True),
                              embed_dim=np.int8(3), hidden=(np.int64(5), 4, np.int16(3)))
        assert config == small_config()
        # stored as plain values, so that the config saves as JSON
        assert [type(getattr(config, f.name)) for f in fields(config)] == [int, bool, int, int, tuple, tuple]
        params = init_params(config, np.random.default_rng(7))
        save_checkpoint(tmp_path / "net.ckpt", params)
        loaded, _ = load_checkpoint(tmp_path / "net.ckpt")
        assert loaded.config == config
        assert loaded.flat.dtype == params.flat.dtype and loaded.flat.tobytes() == params.flat.tobytes()

    def test_embedding_needs_vocabulary(self):
        with pytest.raises(NetworkError, match="no decades"):
            NetworkConfig(num_features=4, num_decades=0, use_embedding=True)

    @pytest.mark.parametrize("heads", [(), ("nyhac",), ("vta", "bmi", "nyhac"), ("vta", "vta"), ("vta", "age")])
    def test_heads_start_with_the_event_head_in_task_order(self, heads):
        with pytest.raises(NetworkError, match="heads"):
            small_config(heads=heads)

    def test_fewer_heads_keep_the_full_layout_values(self):
        # the full three-branch layout is drawn whatever the heads, so every kept tensor is the same
        full = init_params(small_config(), np.random.default_rng(7))
        for heads in (("vta",), ("vta", "nyhac"), ("vta", "bmi")):
            part = init_params(small_config(heads=heads), np.random.default_rng(7))
            assert list(part) == [name for name in full if not name.startswith(
                tuple(f"{task}_" for task in TASKS if task not in heads))]
            for name in part:
                assert np.array_equal(part[name], full[name]), (heads, name)


class TestLoss:
    def test_uniform_probs_cost_log_two(self):
        params = zero_params(small_config())
        batch = make_batch([np.zeros(4)], [0], [1])
        outputs, _ = forward(params, batch.features, batch.decade_index)
        total, parts = loss(outputs, batch, 1.0, 1.0)
        assert parts["vta"] == pytest.approx(math.log(2.0), rel=1e-12)
        assert total == parts["vta"]

    def test_absent_auxiliaries_leave_pure_event_loss(self, rng):
        params = init_params(small_config(), rng)
        batch = make_batch([rng.random(4)], [1], [0])
        outputs, _ = forward(params, batch.features, batch.decade_index)
        total, parts = loss(outputs, batch, 1.0, 1.0)
        assert parts["nyhac"] == 0.0
        assert parts["bmi"] == 0.0
        assert total == parts["vta"]

    def test_exact_bmi_prediction_costs_nothing(self):
        # zero network predicts 0; a 0 target makes the squared error vanish
        params = zero_params(small_config())
        batch = make_batch([np.zeros(4)], [0], [0], y_bmi=[0.0])
        outputs, _ = forward(params, batch.features, batch.decade_index)
        _, parts = loss(outputs, batch, 1.0, 1.0)
        assert parts["bmi"] == 0.0

    def test_parts_always_sum_to_total(self, rng):
        params = init_params(small_config(), rng)
        batch = random_batch(rng, params.config, 12)
        outputs, _ = forward(params, batch.features, batch.decade_index)
        total, parts = loss(outputs, batch, lam_nyhac=0.7, lam_bmi=1.3)
        assert total == parts["vta"] + parts["nyhac"] + parts["bmi"]

    def test_float32_rows_are_summed_in_float64(self):
        n = 5000
        bmi = np.random.default_rng(0).random(n).astype(np.float32)
        batch = make_batch(np.zeros((n, 1)), np.zeros(n), np.zeros(n), y_bmi=[0.0] * n)
        batch = replace(batch, y_bmi=batch.y_bmi.astype(np.float32))  # as optim.train casts it
        outputs = {"vta_logits": np.zeros((n, 2), np.float32), "bmi": bmi}
        _, parts = loss(outputs, batch, 0.0, 1.0)
        squares = bmi ** 2
        assert squares.dtype == np.float32
        assert parts["bmi"] == float(squares.sum(dtype=np.float64) / n) != float(squares.sum() / n)

    def test_lambda_scales_linearly(self, rng):
        params = init_params(small_config(), rng)
        batch = make_batch([rng.random(4)], [0], [1], [2], [0.4])
        outputs, _ = forward(params, batch.features, batch.decade_index)
        _, base = loss(outputs, batch, lam_nyhac=1.0, lam_bmi=1.0)
        _, doubled = loss(outputs, batch, lam_nyhac=2.0, lam_bmi=2.0)
        assert doubled["nyhac"] == pytest.approx(2.0 * base["nyhac"], rel=1e-12)
        assert doubled["bmi"] == pytest.approx(2.0 * base["bmi"], rel=1e-12)
        assert base["vta"] == doubled["vta"]

    def test_loss_names_the_head_the_network_lacks(self, rng):
        params = init_params(small_config(heads=("vta", "bmi")), rng)
        batch = random_batch(rng, params.config, 6)
        outputs, _ = forward(params, batch.features, batch.decade_index)
        with pytest.raises(NetworkError, match="'nyhac' head"):
            loss(outputs, batch, 1.0, 1.0)
        assert loss(outputs, batch, 0.0, 1.0)[1]["bmi"] > 0.0

    def test_zero_lambda_removes_terms(self, rng):
        params = init_params(small_config(), rng)
        batch = make_batch([rng.random(4)], [0], [1], [2], [0.4])
        outputs, _ = forward(params, batch.features, batch.decade_index)
        total, parts = loss(outputs, batch, lam_nyhac=0.0, lam_bmi=0.0)
        assert parts["nyhac"] == 0.0 and parts["bmi"] == 0.0
        assert total == parts["vta"]


class TestActiveTasks:
    @pytest.mark.parametrize("lam_nyhac", [0.0, 0.5])
    @pytest.mark.parametrize("lam_bmi", [0.0, 2.0])
    @pytest.mark.parametrize("nyhac, bmi", [(None, None), (2, None), (None, 0.4), (1, 0.3)])
    def test_inactive_exactly_when_loss_gives_zero(self, rng, lam_nyhac, lam_bmi, nyhac, bmi):
        params = init_params(small_config(), rng)
        batch = make_batch(rng.random((2, 4)), [0, 1], [1, 0], [nyhac, None], [bmi, None])
        outputs, _ = forward(params, batch.features, batch.decade_index)
        _, parts = loss(outputs, batch, lam_nyhac, lam_bmi)
        tasks = tuple(objective(batch, lam_nyhac, lam_bmi))
        assert tasks[0] == "vta"
        for task in ("nyhac", "bmi"):
            assert (task in tasks) == (parts[task] != 0.0)

    def test_zero_weight_leaves_the_targets_unread(self, rng):
        batch = replace(random_batch(rng, small_config(), 4), y_nyhac=None, y_bmi=None, bmi_mask=None)
        assert tuple(objective(batch, 0.0, 0.0)) == ("vta",)

    @pytest.mark.parametrize("multi_task", [False, True], ids=["single-task", "multi-task"])
    def test_an_epoch_builds_the_objective_twice(self, rng, monkeypatch, multi_task):
        calls = []

        def spy(*args):
            calls.append(args)
            return objective(*args)

        monkeypatch.setattr(network, "objective", spy)
        params = init_params(small_config(), rng)
        train(random_batch(rng, params.config, 6), CVConfig(epochs=3, multi_task=multi_task), params, rng)
        assert len(calls) == 2 * 3  # one in loss and one in backward


class TestBackward:
    def test_event_head_delta_is_probs_minus_onehot(self, rng):
        params = init_params(small_config(), rng)
        batch = make_batch([rng.random(4)], [1], [1])
        outputs, cache = forward(params, batch.features, batch.decade_index)
        grads = backward(params, cache, batch, 1.0, 1.0)
        expected = outputs["vta_probs"][0] - np.array([0.0, 1.0])
        np.testing.assert_allclose(grads["vta_bout"], expected, atol=1e-15)

    def test_gradients_match_finite_differences(self):
        # 50 random (params, batch) pairs, some with dropout masks in force
        worst = 0.0
        for trial in range(50):
            rng = np.random.default_rng(1000 + trial)
            cfg = small_config()
            params = init_params(cfg, rng)
            n = int(rng.integers(1, 4))
            batch = random_batch(rng, cfg, n)
            masks = draw_dropout_masks(cfg, n, 0.75, rng) if trial % 3 == 0 else None
            lam_n = float(rng.choice([0.0, 0.5, 1.0]))
            lam_b = float(rng.choice([0.0, 1.0, 2.0]))

            def loss_fn():
                outputs, _ = forward(params, batch.features, batch.decade_index, masks)
                return loss(outputs, batch, lam_n, lam_b)[0]

            _, cache = forward(params, batch.features, batch.decade_index, masks)
            analytic = backward(params, cache, batch, lam_n, lam_b)
            numeric = finite_difference_grads(loss_fn, params)
            worst = max(worst, max_relative_error(analytic, numeric))
        assert worst < 1e-4

    def test_stacked_oracle_agrees_with_the_one_entry_oracle(self):
        rng = np.random.default_rng(12)
        cfg = small_config()
        params = init_params(cfg, rng)
        batch = random_batch(rng, cfg, 8)
        assert tuple(objective(batch, 0.5, 2.0)) == TASKS

        def loss_fn():
            outputs, _ = forward(params, batch.features, batch.decade_index)
            return loss(outputs, batch, 0.5, 2.0)[0]

        one_entry = finite_difference_grads(loss_fn, params)
        stacked = stacked_finite_difference_grads(cfg, params, batch, 0.5, 2.0, block=7)
        assert list(stacked) == list(one_entry)
        assert max_relative_error(stacked, one_entry) < 1e-6

    def test_masked_input_feature_kills_its_weight_rows(self, rng):
        cfg = small_config()
        params = init_params(cfg, rng)
        batch = random_batch(rng, cfg, 3)
        masks = draw_dropout_masks(cfg, 3, 0.75, rng)
        j = 2
        masks["input"][:, j] = 0.0
        _, cache = forward(params, batch.features, batch.decade_index, masks)
        grads = backward(params, cache, batch, 1.0, 1.0)
        assert not grads["W1"][j, :].any()

    def test_absent_auxiliaries_match_single_task_gradients(self, rng):
        cfg = small_config()
        params = init_params(cfg, rng)
        batch = make_batch(rng.random((5, 4)), rng.integers(0, 3, 5), rng.integers(0, 2, 5))
        _, cache = forward(params, batch.features, batch.decade_index)
        multi = backward(params, cache, batch, lam_nyhac=1.0, lam_bmi=1.0)
        single = backward(params, cache, batch, lam_nyhac=0.0, lam_bmi=0.0)
        for name in ("W1", "b1", "embedding", "vta_W2", "vta_b2", "vta_W3", "vta_b3", "vta_Wout", "vta_bout"):
            np.testing.assert_array_equal(multi[name], single[name])
        for name in multi:
            if name.startswith(("nyhac_", "bmi_")):
                assert not multi[name].any()

    def test_a_second_backward_on_one_cache_gives_the_same_gradients(self, rng):
        # backward's temporaries share the forward workspace; none may overwrite what the cache reads
        cfg = small_config()
        params = init_params(cfg, rng)
        batch = random_batch(rng, cfg, 6)
        masks = draw_dropout_masks(cfg, 6, 0.75, rng)
        _, cache = forward(params, batch.features, batch.decade_index, masks, Workspace())
        first = backward(params, cache, batch, 1.0, 1.0)
        second = backward(params, cache, batch, 1.0, 1.0)
        assert first.flat.tobytes() == second.flat.tobytes()

    @pytest.mark.parametrize("keep_prob", [1.0, 0.75], ids=["no-dropout", "dropout"])
    def test_float32_gradients_follow_float64_at_the_same_values(self, keep_prob):
        # criterion 1's network and batch; both precisions start from the same float32 values
        for seed in (2024, 1, 2, 3):
            rng = np.random.default_rng(seed)
            config = NetworkConfig(num_features=7, num_decades=6, use_embedding=True)
            values = init_params(config, rng).astype(np.float32)
            batch = random_batch(rng, config, 50)
            grads = {}
            for params in (values, values.astype(np.float64)):
                dtype = params.flat.dtype
                masks = draw_dropout_masks(config, 50, keep_prob, np.random.default_rng(seed), dtype=dtype)
                _, cache = forward(params, batch.features, batch.decade_index, masks)
                grads[dtype] = backward(params, cache, batch, 1.0, 1.0).flat
            got, want = grads[np.dtype(np.float32)], grads[np.dtype(np.float64)]
            assert got.dtype == np.float32
            assert np.linalg.norm(got - want) <= 1e-6 * np.linalg.norm(want), seed

    def test_embedding_gradient_is_local_to_used_rows(self, rng):
        cfg = small_config()
        params = init_params(cfg, rng)
        batch = make_batch(rng.random((4, 4)), [1] * 4, [1] * 4)
        _, cache = forward(params, batch.features, batch.decade_index)
        grads = backward(params, cache, batch, 1.0, 1.0)
        assert grads["embedding"][1].any()
        assert not grads["embedding"][0].any()
        assert not grads["embedding"][2].any()

    def test_training_leaves_unused_embedding_rows_untouched(self, rng, monkeypatch):
        monkeypatch.setattr(optim, "KEEP_PROB", 1.0)
        cfg = small_config()
        params = init_params(cfg, rng)
        before = params["embedding"].copy()
        batch = make_batch(rng.random((8, 4)), [2] * 8, rng.integers(0, 2, 8))
        train(batch, CVConfig(epochs=30), params, np.random.default_rng(5))
        after = params["embedding"]
        np.testing.assert_array_equal(after[0], before[0])
        np.testing.assert_array_equal(after[1], before[1])
        assert not np.array_equal(after[2], before[2])


class TestDropoutMasks:
    def test_keep_prob_one_is_no_op(self, rng):
        assert draw_dropout_masks(small_config(), 4, 1.0, rng) is None

    def test_masks_of_fewer_heads_cut_the_same_block(self):
        full = draw_dropout_masks(small_config(), 9, 0.75, np.random.default_rng(3))
        part = draw_dropout_masks(small_config(heads=("vta", "bmi")), 9, 0.75, np.random.default_rng(3))
        assert list(part) == ["input", "h1", "vta_h2", "vta_h3", "bmi_h2", "bmi_h3"]
        for name, mask in part.items():
            assert np.array_equal(mask, full[name]), name

    @pytest.mark.parametrize("heads", [TASKS, ("vta",)], ids=["all-heads", "vta-only"])
    @pytest.mark.parametrize("chunks", [0.5, 1, 3.25], ids=["under-one-chunk", "one-chunk", "chunks-and-rest"])
    def test_row_chunks_draw_the_whole_block_stream(self, heads, chunks):
        cfg = small_config(heads=heads)
        rows = DROPOUT_BLOCK_VALUES // sum(width for _, width, _ in dropout_layout(cfg))
        n = int(chunks * rows)
        rng, oracle_rng = np.random.default_rng(8), np.random.default_rng(8)
        masks = draw_dropout_masks(cfg, n, 0.75, rng)
        want = _reference_masks(cfg, n, 0.75, oracle_rng)
        layout = dropout_layout(cfg)
        assert [name for name, _, _ in layout] == list(want)
        assert list(masks) == [name for name, _, held in layout if held]
        for name, mask in masks.items():
            assert mask.tobytes() == want[name].tobytes(), name
        assert rng.random() == oracle_rng.random()

    # 17 inputs (7 features + 10 embedding) and 480 hidden units: 497 lanes a row, so rows do not
    # end on whole 64-bit words and the chunks must hold a multiple of four rows (128 here)
    @pytest.mark.parametrize("n", [1, 3, 127, 129, 416], ids=["one-row", "three-rows", "chunk-less-one",
                                                              "chunk-plus-one", "chunks-and-rest"])
    def test_odd_width_chunks_read_one_whole_draw(self, n):
        cfg = NetworkConfig(num_features=7, num_decades=5, use_embedding=True)
        assert sum(width for _, width, _ in dropout_layout(cfg)) == 497
        rng, oracle_rng = np.random.default_rng(11), np.random.default_rng(11)
        masks = draw_dropout_masks(cfg, n, 0.75, rng)
        want = _reference_masks(cfg, n, 0.75, oracle_rng)
        assert list(masks) == list(want)
        for name, mask in masks.items():
            assert mask.tobytes() == want[name].tobytes(), name
        assert rng.bit_generator.random_raw() == oracle_rng.bit_generator.random_raw()

    def test_kept_fraction_is_keep_prob_on_the_lane_grid(self):
        cfg = NetworkConfig(num_features=7, num_decades=5, use_embedding=True)
        masks = draw_dropout_masks(cfg, 2016, 0.6, np.random.default_rng(5))
        decisions = sum(mask.size for mask in masks.values())
        kept = sum(int(np.count_nonzero(mask)) for mask in masks.values())
        p = math.ceil(0.6 * 65536) / 65536
        assert decisions > 10**6
        assert abs(kept / decisions - p) < 5 * math.sqrt(p * (1 - p) / decisions)

    def test_tiny_keep_prob_gives_zero_or_its_inverse(self, rng):
        masks = draw_dropout_masks(small_config(), 50, 1e-7, rng)
        for mask in masks.values():
            assert set(np.unique(mask).tolist()) <= {0.0, 1e7}

    def test_draw_holds_no_block_beside_the_masks(self):
        cfg = NetworkConfig(num_features=26, num_decades=5, use_embedding=True)
        n = 5000
        tracemalloc.start()
        try:
            masks = draw_dropout_masks(cfg, n, 0.75, np.random.default_rng(0), Workspace())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        mask_bytes = sum(mask.nbytes for mask in masks.values())
        assert mask_bytes == n * 516 * 8
        assert peak < mask_bytes + 2 * 2**20

    def test_float32_masks_keep_the_same_units(self):
        cfg = small_config()
        n = int(3.25 * (DROPOUT_BLOCK_VALUES // sum(width for _, width, _ in dropout_layout(cfg))))
        rng32, rng64 = np.random.default_rng(3), np.random.default_rng(3)
        masks32 = draw_dropout_masks(cfg, n, 0.75, rng32, Workspace(), np.float32)
        masks64 = draw_dropout_masks(cfg, n, 0.75, rng64, Workspace())
        assert list(masks32) == list(masks64)
        for name, mask in masks32.items():
            assert mask.dtype == np.float32 and masks64[name].dtype == np.float64
            assert np.array_equal(mask != 0, masks64[name] != 0), name
            assert np.array_equal(mask, masks64[name].astype(np.float32)), name
        assert rng32.random() == rng64.random()

    def test_mask_values_are_zero_or_inverse_keep(self, rng):
        masks = draw_dropout_masks(small_config(), 50, 0.75, rng)
        assert set(masks) == {"input", "h1", "vta_h2", "vta_h3", "nyhac_h2", "nyhac_h3", "bmi_h2", "bmi_h3"}
        for name, mask in masks.items():
            values = np.unique(mask)
            assert set(values.tolist()) <= {0.0, 1.0 / 0.75}

    def test_mask_shapes_follow_layout(self, rng):
        cfg = small_config()
        masks = draw_dropout_masks(cfg, 6, 0.75, rng)
        assert masks["input"].shape == (6, cfg.input_dim)
        assert masks["h1"].shape == (6, 5)
        assert masks["vta_h2"].shape == (6, 4)
        assert masks["bmi_h3"].shape == (6, 3)

    def test_same_seed_same_masks(self):
        cfg = small_config()
        a = draw_dropout_masks(cfg, 9, 0.75, np.random.default_rng(3))
        b = draw_dropout_masks(cfg, 9, 0.75, np.random.default_rng(3))
        for name in a:
            np.testing.assert_array_equal(a[name], b[name])

    def test_bad_keep_prob_rejected(self, rng):
        with pytest.raises(NetworkError, match="keep_prob"):
            draw_dropout_masks(small_config(), 4, 0.0, rng)


class TestWorkspace:
    def test_reuse_across_dtypes_gives_the_asked_dtype(self, rng):
        work = Workspace()
        for dtype in (np.float64, np.float32, np.float64):
            assert work("a", (3, 2), dtype).dtype == dtype
        # one workspace through float32, float64 and float32 epochs computes as a fresh one would
        cfg = small_config()
        batch = random_batch(rng, cfg, 6)
        values = init_params(cfg, rng)
        for params in (values.astype(np.float32), values, values.astype(np.float32)):
            dtype = params.flat.dtype
            masks = draw_dropout_masks(cfg, 6, 0.75, np.random.default_rng(1), work, dtype)
            outputs, cache = forward(params, batch.features, batch.decade_index, masks, work)
            grads = backward(params, cache, batch, 1.0, 1.0)
            assert {a.dtype for a in (*masks.values(), *outputs.values(), grads.flat)} == {dtype}
            _, fresh = forward(params, batch.features, batch.decade_index,
                               {name: mask.copy() for name, mask in masks.items()})
            assert grads.flat.tobytes() == backward(params, fresh, batch, 1.0, 1.0).flat.tobytes()


def two_row_cohort() -> Cohort:
    """Row r1 knows every target; row r2 has no functional class and no BMI."""
    return Cohort(
        X=np.zeros((2, 4)), names=("a", "b", "c", "d"), record_ids=("r1", "r2"),
        patient_ids=("p1", "p2"), y_vta=np.array([1, 0]), decade_index=np.array([0, 1]),
        num_decades=1, y_nyhac=np.array([3, -1]), bmi=np.array([25.0, 0.0]),
        bmi_mask=np.array([True, False]),
    )


class TestBatch:
    def test_missing_targets_become_masks(self):
        cohort = two_row_cohort()
        bmi_standardizer = fit_standardizer(np.array([20.0, 30.0]))
        batch = build_examples(cohort, np.arange(2), fit_standardizer(cohort.X), bmi_standardizer)
        assert batch.y_nyhac.tolist() == [3, -1]
        assert batch.bmi_mask.tolist() == [True, False]
        assert batch.y_bmi.tolist() == [0.5, 0.0]
        assert len(batch) == 2

    def test_empty_batch_rejected(self):
        cohort = two_row_cohort()
        with pytest.raises(NetworkError, match="zero examples"):
            build_examples(cohort, np.array([], dtype=int), fit_standardizer(cohort.X), None)


class TestPredict:
    def test_returns_event_probabilities(self, rng):
        params = init_params(small_config(), rng)
        probs = predict(params, random_batch(rng, params.config, 7, with_aux=False))
        assert probs.shape == (7,)
        assert np.all((probs > 0.0) & (probs < 1.0))


class TestCheckpoint:
    def test_round_trip_is_exact(self, rng, tmp_path):
        for dtype, heads in itertools.product((np.float64, np.float32), (TASKS, ("vta",), ("vta", "bmi"))):
            params = init_params(small_config(heads=heads), rng).astype(dtype)
            path = tmp_path / "model.ckpt"
            save_checkpoint(path, params, extra={"seed": 7})
            loaded, header = load_checkpoint(path)
            assert loaded.config == params.config
            assert loaded.flat.dtype == dtype
            assert header["dtype"] == np.dtype(dtype).name and header["dtype"] in CHECKPOINT_DTYPES
            assert path.read_bytes().endswith(params.flat.astype(np.dtype(dtype).newbyteorder("<")).tobytes())
            assert header["network"]["heads"] == list(heads)
            assert list(loaded) == list(params)
            for name in params:
                np.testing.assert_array_equal(loaded[name], params[name])
            assert header["extra"] == {"seed": 7}

    def test_loaded_buffer_is_a_writable_copy_of_the_payload(self, rng, tmp_path):
        path = tmp_path / "model.ckpt"
        for dtype in (np.float64, np.float32):
            save_checkpoint(path, init_params(small_config(), rng).astype(dtype))
            loaded, _ = load_checkpoint(path)
            assert loaded.flat.flags.writeable and loaded.flat.flags.owndata
            loaded["W1"][0, 0] = 3.0
            assert 3.0 in loaded.flat

    @pytest.mark.parametrize("network", [
        {"num_features": 0},
        {"hidden": [5, 4]},
        {"embed_dim": -3},
        {"heads": ["nyhac", "vta"]},
        {"heads": "vta"},
        {"heads": 3},
        # values of the wrong JSON type, and an unknown key, which once loaded: truncated to an int,
        # read as truthy, or ignored
        {"num_features": 7.9},
        {"hidden": [5.7, 4.2, 3.1]},
        {"use_embedding": "no"},
        {"num_features": True},
        {"dropout": 0.5},
    ])
    def test_rejected_header_value_is_a_bad_header(self, rng, tmp_path, network):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, init_params(small_config(), rng))
        rewrite_header(path, lambda header: header["network"].update(network))
        with pytest.raises(CheckpointError, match="bad checkpoint header"):
            load_checkpoint(path)

    @pytest.mark.parametrize("key", ["num_decades", "embed_dim", "hidden", "heads"])
    def test_missing_network_key_is_a_bad_header(self, rng, tmp_path, key):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, init_params(small_config(), rng))
        rewrite_header(path, lambda header: header["network"].pop(key))
        with pytest.raises(CheckpointError, match=f"bad checkpoint header: network lacks \\['{key}'\\]"):
            load_checkpoint(path)

    @pytest.mark.parametrize("dtype", ["float16", "int64", "<f4", None, 4, "absent"])
    def test_rejected_dtype_is_a_bad_header(self, rng, tmp_path, dtype):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, init_params(small_config(), rng))
        if dtype == "absent":
            rewrite_header(path, lambda header: header.pop("dtype"))
        else:
            rewrite_header(path, lambda header: header.update(dtype=dtype))
        with pytest.raises(CheckpointError, match="bad checkpoint header"):
            load_checkpoint(path)

    def test_rejects_unknown_magic(self, tmp_path):
        path = tmp_path / "bogus.ckpt"
        path.write_bytes(b"NOPE" + bytes(16))
        with pytest.raises(CheckpointError, match="not a checkpoint"):
            load_checkpoint(path)

    def test_rejects_unknown_version(self, rng, tmp_path):
        params = init_params(small_config(), rng)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params)
        for version in (1, 99):  # version 1 was the float64-only layout without a dtype
            data = bytearray(path.read_bytes())
            data[4] = version
            path.with_name("old.ckpt").write_bytes(bytes(data))
            with pytest.raises(CheckpointError, match=f"version {version}$"):
                load_checkpoint(path.with_name("old.ckpt"))

    def test_rejects_truncated_tensors(self, rng, tmp_path):
        for dtype in (np.float64, np.float32):
            params = init_params(small_config(), rng).astype(dtype)
            path = tmp_path / "model.ckpt"
            save_checkpoint(path, params)
            data = path.read_bytes()
            for cut, name in ((16, "bmi_Wout"), (3, "bmi_bout"), (params.flat.nbytes, "embedding")):
                path.write_bytes(data[:-cut])
                with pytest.raises(CheckpointError, match=f"truncated tensor '{name}'"):
                    load_checkpoint(path)

    def test_header_shapes_are_checked_against_the_payload_before_allocating(self, rng, tmp_path):
        # the header asks for a W1 of 10**15 rows, petabytes at either dtype, and the file holds no tensor
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, init_params(small_config(use_embedding=False), rng))
        rewrite_header(path, lambda header: header["network"].update(num_features=10**15))
        data = path.read_bytes()
        (header_len,) = struct.unpack("<I", data[5:9])
        path.write_bytes(data[:9 + header_len])
        with pytest.raises(CheckpointError, match="truncated tensor 'W1'"):
            load_checkpoint(path)

    def test_rejects_trailing_bytes(self, rng, tmp_path):
        for dtype in (np.float64, np.float32):
            params = init_params(small_config(), rng).astype(dtype)
            path = tmp_path / "model.ckpt"
            save_checkpoint(path, params)
            data = path.read_bytes()
            for stray in (3, 8):  # 3 bytes are not even a whole value of either dtype
                path.write_bytes(data + b"\x00" * stray)
                with pytest.raises(CheckpointError, match=f"{stray} trailing bytes"):
                    load_checkpoint(path)

    def test_magic_constant_stable(self):
        assert CHECKPOINT_MAGIC == b"VTPN"
