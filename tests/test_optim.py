"""Optimizer tests: clipping, the AdaDelta recursion, the training loop."""

from dataclasses import fields

import numpy as np
import pytest

from batches import at_dtype, make_batch, random_batch
from oracles import adadelta_scalar_step, train_reference
from vtapred import (
    ABLATION_ROWS,
    AdaDeltaState,
    Batch,
    CVConfig,
    NetworkConfig,
    NetworkParams,
    TrainConfig,
    TrainingError,
    ablation_config,
    adadelta_step,
    clip,
    init_params,
    train,
    write_loss_history,
)
from vtapred import optim
from vtapred.network import FlatTensors, forward


def tiny_params(values: dict[str, np.ndarray]) -> NetworkParams:
    """Wrap bare tensors so the optimizer can iterate them."""
    cfg = NetworkConfig(num_features=1, use_embedding=False)
    return NetworkParams(cfg, values)


def grads_like(params: NetworkParams, **values) -> FlatTensors:
    """Gradients in the parameters' layout: zero except the named tensors."""
    grads = params.tensors.zeros_like()
    for name, value in values.items():
        grads[name][...] = value
    return grads


class TestClip:
    def test_clamps_above(self):
        assert clip(np.array([0.5]), 0.1)[0] == 0.1

    def test_clamps_below(self):
        assert clip(np.array([-0.5]), 0.1)[0] == -0.1

    def test_leaves_interior_alone(self):
        assert clip(np.array([-0.05]), 0.1)[0] == -0.05

    def test_idempotent(self, rng):
        g = rng.normal(0.0, 1.0, (20, 20))
        once = clip(g, 0.1)
        np.testing.assert_array_equal(clip(once, 0.1), once)

    def test_bound_holds_everywhere(self, rng):
        g = rng.normal(0.0, 5.0, 1000)
        assert np.abs(clip(g, 0.1)).max() <= 0.1 + 1e-15


class TestAdaDeltaStep:
    def test_first_step_worked_value(self):
        params = tiny_params({"w": np.zeros(1)})
        state = AdaDeltaState(params)
        adadelta_step(state, params, grads_like(params, w=[0.1]))
        # E[g2] = 0.05 * 0.01 = 5e-4; dx = -sqrt(1e-6)/sqrt(5.01e-4) * 0.1
        assert params.tensors["w"][0] == pytest.approx(-4.468e-3, abs=5e-7)
        assert state.sq_grad["w"][0] == pytest.approx(5e-4, rel=1e-12)

    def test_matches_scalar_oracle_over_many_steps(self, rng):
        params = tiny_params({"w": rng.normal(0.0, 1.0, 8)})
        state = AdaDeltaState(params)
        eg2 = np.zeros(8)
        ed2 = np.zeros(8)
        x = params.tensors["w"].copy()
        for _ in range(200):
            g = rng.normal(0.0, 0.3, 8)
            adadelta_step(state, params, grads_like(params, w=g))
            for i in range(8):
                dx, eg2[i], ed2[i] = adadelta_scalar_step(g[i], eg2[i], ed2[i])
                x[i] += dx
            np.testing.assert_allclose(params.tensors["w"], x, rtol=1e-12)
            np.testing.assert_allclose(state.sq_grad["w"], eg2, rtol=1e-12)
            np.testing.assert_allclose(state.sq_delta["w"], ed2, rtol=1e-12)

    def test_zero_gradient_leaves_params_alone(self, rng):
        params = tiny_params({"w": rng.normal(0.0, 1.0, 5)})
        before = params.tensors["w"].copy()
        state = AdaDeltaState(params)
        state.sq_grad["w"][:] = 0.25
        state.sq_delta["w"][:] = 0.04
        adadelta_step(state, params, grads_like(params))
        np.testing.assert_array_equal(params.tensors["w"], before)
        # accumulators decay toward zero by rho
        np.testing.assert_allclose(state.sq_grad["w"], 0.95 * 0.25, rtol=1e-12)
        np.testing.assert_allclose(state.sq_delta["w"], 0.95 * 0.04, rtol=1e-12)

    def test_non_finite_gradient_names_the_tensor(self, rng):
        params = tiny_params({"w": np.zeros(3), "v": np.zeros(2)})
        state = AdaDeltaState(params)
        grads = grads_like(params, v=[0.1, np.nan])
        with pytest.raises(TrainingError, match="non-finite gradient in tensor 'v'"):
            adadelta_step(state, params, grads)

    def test_accumulators_stay_non_negative(self, rng):
        params = tiny_params({"w": np.zeros(6)})
        state = AdaDeltaState(params)
        for _ in range(50):
            adadelta_step(state, params, grads_like(params, w=rng.normal(0.0, 1.0, 6)))
            assert (state.sq_grad["w"] >= 0.0).all()
            assert (state.sq_delta["w"] >= 0.0).all()

    def test_recipe_comes_from_the_module_constants(self, rng, monkeypatch):
        # non-default constants prove the step reads them at call time, not baked-in literals
        monkeypatch.setattr(optim, "ADADELTA_RHO", 0.9)
        monkeypatch.setattr(optim, "ADADELTA_EPS", 1e-4)
        params = tiny_params({"w": rng.normal(0.0, 1.0, 4)})
        state = AdaDeltaState(params)
        eg2, ed2, x = np.zeros(4), np.zeros(4), params.tensors["w"].copy()
        for _ in range(20):
            g = rng.normal(0.0, 0.3, 4)
            adadelta_step(state, params, grads_like(params, w=g))
            for i in range(4):
                dx, eg2[i], ed2[i] = adadelta_scalar_step(g[i], eg2[i], ed2[i], rho=0.9, eps=1e-4)
                x[i] += dx
            np.testing.assert_allclose(params.tensors["w"], x, rtol=1e-12)
            np.testing.assert_allclose(state.sq_grad["w"], eg2, rtol=1e-12)
            np.testing.assert_allclose(state.sq_delta["w"], ed2, rtol=1e-12)

    def test_rejects_a_dict_of_gradients(self):
        params = tiny_params({"w": np.zeros(2)})
        with pytest.raises(ValueError, match="laid out like params"):
            adadelta_step(AdaDeltaState(params), params, {"w": np.zeros(2)})

    @pytest.mark.parametrize("layout", [{"w": np.zeros(3)}, {"v": np.zeros(2)}, {"w": np.zeros(2), "v": np.zeros(1)}])
    def test_rejects_a_mismatched_layout(self, layout):
        params = tiny_params({"w": np.zeros(2)})
        with pytest.raises(ValueError, match="laid out like params"):
            adadelta_step(AdaDeltaState(params), params, FlatTensors(layout))
        assert not params.tensors.flat.any()


def separable_batch(n: int = 60, seed: int = 4) -> Batch:
    rng = np.random.default_rng(seed)
    y = np.arange(n) % 2
    features = [np.clip(rng.normal(0.75 if label else 0.25, 0.06, 5), 0.0, 1.0) for label in y]
    return make_batch(features, np.zeros(n), y)


class TestTrain:
    def _config(self) -> NetworkConfig:
        return NetworkConfig(num_features=5, use_embedding=False, hidden=(12, 8, 4))

    def test_bit_identical_given_same_seed(self):
        batch = separable_batch()
        cfg = TrainConfig(epochs=40)
        runs = []
        for _ in range(2):
            params = init_params(self._config(), np.random.default_rng(21))
            trained, history = train(batch, cfg, params, np.random.default_rng(9))
            runs.append((trained, history))
        a, b = runs
        for name in a[0].tensors:
            np.testing.assert_array_equal(a[0].tensors[name], b[0].tensors[name])
        assert a[1] == b[1]

    def test_zero_epochs_is_identity(self, rng):
        params = init_params(self._config(), rng)
        before = {k: v.copy() for k, v in params.tensors.items()}
        trained, history = train(separable_batch(), TrainConfig(epochs=0), params, rng)
        assert history == []
        for name, tensor in trained.tensors.items():
            np.testing.assert_array_equal(tensor, before[name])

    def test_loss_decreases_end_to_end(self, rng):
        params = init_params(self._config(), rng)
        _, history = train(
            separable_batch(), TrainConfig(epochs=250, keep_prob=1.0), params, rng
        )
        assert history[-1]["loss"] < history[0]["loss"]

    def test_history_is_finite_and_clipped(self, rng):
        params = init_params(self._config(), rng)
        _, history = train(separable_batch(), TrainConfig(epochs=60), params, rng)
        assert len(history) == 60
        for row in history:
            assert np.isfinite(row["loss"])
            assert row["max_grad"] <= 0.1 + 1e-15
            assert row["loss"] == row["vta_loss"] + row["nyhac_loss"] + row["bmi_loss"]

    def test_non_finite_loss_reports_epoch(self, rng):
        params = init_params(self._config(), rng)
        params.tensors["W1"][0, 0] = np.nan
        with pytest.raises(TrainingError, match="non-finite loss at epoch 0"):
            train(separable_batch(), TrainConfig(epochs=5), params, rng)

    def test_accepts_prebuilt_batch(self, rng):
        params = init_params(self._config(), rng)
        batch = separable_batch()
        _, history = train(batch, TrainConfig(epochs=3), params, rng)
        assert len(history) == 3

    def test_training_accuracy_on_easy_task(self, rng):
        batch = separable_batch(n=80)
        params = init_params(self._config(), rng)
        train(batch, TrainConfig(epochs=300), params, np.random.default_rng(2))
        outputs, _ = forward(params, batch.features)
        predicted = (outputs["vta_probs"][:, 1] >= 0.5).astype(int)
        assert (predicted == batch.y_vta).mean() >= 0.95


class TestTrainMatchesReference:
    """The flat-buffer trainer reproduces the tensor-by-tensor reference to the bit."""

    @pytest.mark.parametrize("keep_prob", [0.75, 1.0])
    @pytest.mark.parametrize("row", ABLATION_ROWS)
    def test_bit_identical(self, row, keep_prob):
        cv = ablation_config(row, CVConfig(train=TrainConfig(epochs=12, keep_prob=keep_prob)))
        net = NetworkConfig(num_features=9, num_decades=5, use_embedding=cv.use_embedding)
        rng = np.random.default_rng(31)
        batch = random_batch(rng, net, 40)
        params = init_params(net, rng)
        want, want_history = train_reference(batch, cv.train, net, dict(params.tensors), np.random.default_rng(8))
        got, history = train(batch, cv.train, params, np.random.default_rng(8))
        assert history == want_history
        assert list(got.tensors) == list(want)
        for name, tensor in want.items():
            assert np.array_equal(got.tensors[name], tensor), name


class TestTrainPrecision:
    """A float32 fit follows the float64 fit from the same values: same dropout units, rounding apart."""

    def test_float32_history_follows_float64(self):
        cv = ablation_config("multi_task", CVConfig(train=TrainConfig(epochs=100)))
        net = NetworkConfig(num_features=9, num_decades=5, use_embedding=True)
        rng = np.random.default_rng(31)
        batch = random_batch(rng, net, 40)
        start32 = at_dtype(init_params(net, rng), np.float32)
        start64 = at_dtype(start32, np.float64)  # train updates its params in place
        rng32, rng64 = np.random.default_rng(8), np.random.default_rng(8)
        got, history32 = train(batch, cv.train, start32, rng32)
        want, history64 = train(batch, cv.train, start64, rng64)
        assert got.tensors.flat.dtype == np.float32 and want.tensors.flat.dtype == np.float64
        assert rng32.random() == rng64.random()
        for column in ("loss", "vta_loss", "nyhac_loss", "bmi_loss"):
            a = np.array([row[column] for row in history32])
            b = np.array([row[column] for row in history64])
            assert a.dtype == np.float64
            assert np.linalg.norm(a - b) <= 1e-6 * np.linalg.norm(b), column
        np.testing.assert_allclose([row["loss"] for row in history32], [row["loss"] for row in history64], rtol=1e-6)

    def test_gradients_in_another_dtype_rejected(self):
        params = at_dtype(tiny_params({"w": np.zeros(2)}), np.float32)
        with pytest.raises(ValueError, match="in its dtype"):
            adadelta_step(AdaDeltaState(params), params, FlatTensors({"w": np.zeros(2)}))
        assert AdaDeltaState(params).sq_grad.flat.dtype == np.float32


class TestTrainConfigValidation:
    def test_defaults_are_the_published_recipe(self):
        cfg = TrainConfig()
        assert [f.name for f in fields(TrainConfig)] == ["epochs", "keep_prob", "lam_nyhac", "lam_bmi"]
        assert (cfg.epochs, cfg.keep_prob) == (1000, 0.75)
        assert (optim.ADADELTA_RHO, optim.ADADELTA_EPS, optim.CLIP_LIMIT) == (0.95, 1e-6, 0.1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epochs": -1},
            {"keep_prob": 0.0},
            {"keep_prob": 1.5},
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("lam_nyhac", -1.0),
            ("lam_nyhac", float("nan")),
            ("lam_bmi", -1.0),
            ("lam_bmi", float("nan")),
        ],
    )
    def test_impossible_values_name_the_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})


class TestLossHistoryExport:
    def test_csv_layout(self, tmp_path, rng):
        params = init_params(NetworkConfig(num_features=5, use_embedding=False, hidden=(6, 4, 3)), rng)
        _, history = train(separable_batch(n=20), TrainConfig(epochs=4), params, rng)
        out = tmp_path / "loss.csv"
        write_loss_history(out, history)
        lines = out.read_text().splitlines()
        assert lines[0] == "epoch,loss,vta_loss,nyhac_loss,bmi_loss"
        assert len(lines) == 5
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[1]) == pytest.approx(history[0]["loss"], rel=1e-11)
