"""Optimizer tests: clipping, the AdaDelta recursion, the training loop."""

import math

import numpy as np
import pytest

from batches import make_batch, random_batch
from oracles import adadelta_scalar_step, train_reference
from vtapred import CVConfig, TrainingError
from vtapred import optim
from vtapred.evaluation import ABLATION_ROWS, ablation_config
from vtapred.network import (
    Batch, NetworkConfig, NetworkParams, draw_dropout_masks, forward, init_params, tensor_shapes,
)
from vtapred.optim import AdaDeltaState, adadelta_step, clip, train, write_loss_history


def zeros_of(config: NetworkConfig) -> NetworkParams:
    """Parameters of ``config`` that are all 0."""
    return NetworkParams(config, np.zeros(sum(math.prod(shape) for shape in tensor_shapes(config).values())))


def tiny_params(b1) -> NetworkParams:
    """A tiny real network, one shared unit per value of ``b1`` and the event head alone; its other values are 0.

    ``vta_bout``, two values, is its last tensor.
    """
    b1 = np.asarray(b1, dtype=float)
    params = zeros_of(NetworkConfig(num_features=1, use_embedding=False, hidden=(b1.size, 1, 1), heads=("vta",)))
    params["b1"][...] = b1
    return params


def grads_like(params: NetworkParams, **values) -> NetworkParams:
    """Gradients in the parameters' layout: zero except the named tensors."""
    grads = params.zeros_like()
    for name, value in values.items():
        grads[name][...] = value
    return grads


class TestClip:
    def test_clamps_above(self):
        assert clip(np.array([0.5]))[0] == 0.1

    def test_clamps_below(self):
        assert clip(np.array([-0.5]))[0] == -0.1

    def test_leaves_interior_alone(self):
        assert clip(np.array([-0.05]))[0] == -0.05

    def test_idempotent(self, rng):
        g = rng.normal(0.0, 1.0, (20, 20))
        once = clip(g)
        np.testing.assert_array_equal(clip(once), once)

    def test_bound_holds_everywhere(self, rng):
        g = rng.normal(0.0, 5.0, 1000)
        assert np.abs(clip(g)).max() <= 0.1 + 1e-15

    def test_limit_comes_from_the_module_constant(self, monkeypatch):
        monkeypatch.setattr(optim, "CLIP_LIMIT", 0.25)
        np.testing.assert_array_equal(clip(np.array([-0.5, 0.2, 0.5])), [-0.25, 0.2, 0.25])


class TestAdaDeltaStep:
    def test_first_step_worked_value(self):
        params = tiny_params(np.zeros(1))
        state = AdaDeltaState(params)
        adadelta_step(state, params, grads_like(params, b1=[0.1]))
        # E[g2] = 0.05 * 0.01 = 5e-4; dx = -sqrt(1e-6)/sqrt(5.01e-4) * 0.1
        assert params["b1"][0] == pytest.approx(-4.468e-3, abs=5e-7)
        assert state.sq_grad["b1"][0] == pytest.approx(5e-4, rel=1e-12)

    def test_matches_scalar_oracle_over_many_steps(self, rng):
        params = tiny_params(rng.normal(0.0, 1.0, 8))
        state = AdaDeltaState(params)
        eg2 = np.zeros(8)
        ed2 = np.zeros(8)
        x = params["b1"].copy()
        for _ in range(200):
            g = rng.normal(0.0, 0.3, 8)
            adadelta_step(state, params, grads_like(params, b1=g))
            for i in range(8):
                dx, eg2[i], ed2[i] = adadelta_scalar_step(g[i], eg2[i], ed2[i])
                x[i] += dx
            np.testing.assert_allclose(params["b1"], x, rtol=1e-12)
            np.testing.assert_allclose(state.sq_grad["b1"], eg2, rtol=1e-12)
            np.testing.assert_allclose(state.sq_delta["b1"], ed2, rtol=1e-12)

    def test_zero_gradient_leaves_params_alone(self, rng):
        params = tiny_params(rng.normal(0.0, 1.0, 5))
        before = params["b1"].copy()
        state = AdaDeltaState(params)
        state.sq_grad["b1"][:] = 0.25
        state.sq_delta["b1"][:] = 0.04
        adadelta_step(state, params, grads_like(params))
        np.testing.assert_array_equal(params["b1"], before)
        # accumulators decay toward zero by rho
        np.testing.assert_allclose(state.sq_grad["b1"], 0.95 * 0.25, rtol=1e-12)
        np.testing.assert_allclose(state.sq_delta["b1"], 0.95 * 0.04, rtol=1e-12)

    def test_non_finite_gradient_names_the_tensor(self, rng):
        params = tiny_params(np.zeros(3))
        state = AdaDeltaState(params)
        grads = grads_like(params, vta_bout=[0.1, np.nan])
        with pytest.raises(TrainingError, match="non-finite gradient in tensor 'vta_bout'"):
            adadelta_step(state, params, grads)

    def test_accumulators_stay_non_negative(self, rng):
        params = tiny_params(np.zeros(6))
        state = AdaDeltaState(params)
        for _ in range(50):
            adadelta_step(state, params, grads_like(params, b1=rng.normal(0.0, 1.0, 6)))
            assert (state.sq_grad["b1"] >= 0.0).all()
            assert (state.sq_delta["b1"] >= 0.0).all()

    def test_recipe_comes_from_the_module_constants(self, rng, monkeypatch):
        # non-default constants prove the step reads them at call time, not baked-in literals
        monkeypatch.setattr(optim, "ADADELTA_RHO", 0.9)
        monkeypatch.setattr(optim, "ADADELTA_EPS", 1e-4)
        params = tiny_params(rng.normal(0.0, 1.0, 4))
        state = AdaDeltaState(params)
        eg2, ed2, x = np.zeros(4), np.zeros(4), params["b1"].copy()
        for _ in range(20):
            g = rng.normal(0.0, 0.3, 4)
            adadelta_step(state, params, grads_like(params, b1=g))
            for i in range(4):
                dx, eg2[i], ed2[i] = adadelta_scalar_step(g[i], eg2[i], ed2[i], rho=0.9, eps=1e-4)
                x[i] += dx
            np.testing.assert_allclose(params["b1"], x, rtol=1e-12)
            np.testing.assert_allclose(state.sq_grad["b1"], eg2, rtol=1e-12)
            np.testing.assert_allclose(state.sq_delta["b1"], ed2, rtol=1e-12)

    def test_rejects_a_dict_of_gradients(self):
        params = tiny_params(np.zeros(2))
        with pytest.raises(ValueError, match="grads must be a NetworkParams of params.config"):
            adadelta_step(AdaDeltaState(params), params, dict(params.zeros_like()))

    # the tiny network has hidden=(2, 1, 1): 13 values
    @pytest.mark.parametrize("layout", [
        {"hidden": (3, 1, 1)},
        {"hidden": (1, 2, 1)},  # as many values, other widths
        {"hidden": (2, 1, 1), "heads": ("vta", "bmi")},
        {"hidden": (2, 1, 1), "num_features": 2},
    ])
    def test_rejects_a_mismatched_layout(self, layout):
        params = tiny_params(np.zeros(2))
        other = zeros_of(NetworkConfig(**{"num_features": 1, "use_embedding": False, "heads": ("vta",), **layout}))
        with pytest.raises(ValueError, match="grads must be a NetworkParams of params.config"):
            adadelta_step(AdaDeltaState(params), params, other)
        assert not params.flat.any()


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
        cfg = CVConfig(epochs=40)
        runs = []
        for _ in range(2):
            params = init_params(self._config(), np.random.default_rng(21))
            trained, history = train(batch, cfg, params, np.random.default_rng(9))
            runs.append((trained, history))
        a, b = runs
        for name in a[0]:
            np.testing.assert_array_equal(a[0][name], b[0][name])
        assert a[1] == b[1]

    def test_zero_epochs_is_identity(self, rng):
        params = init_params(self._config(), rng)
        before = {k: v.copy() for k, v in params.items()}
        trained, history = train(separable_batch(), CVConfig(epochs=0), params, rng)
        assert history == []
        for name, tensor in trained.items():
            np.testing.assert_array_equal(tensor, before[name])

    def test_loss_decreases_end_to_end(self, rng, monkeypatch):
        monkeypatch.setattr(optim, "KEEP_PROB", 1.0)
        params = init_params(self._config(), rng)
        _, history = train(separable_batch(), CVConfig(epochs=250), params, rng)
        assert history[-1]["loss"] < history[0]["loss"]

    def test_history_is_finite_and_clipped(self, rng):
        params = init_params(self._config(), rng)
        _, history = train(separable_batch(), CVConfig(epochs=60), params, rng)
        assert len(history) == 60
        for row in history:
            assert np.isfinite(row["loss"])
            assert row["max_grad"] <= 0.1 + 1e-15
            assert row["loss"] == row["vta_loss"] + row["nyhac_loss"] + row["bmi_loss"]

    def test_non_finite_loss_reports_epoch(self, rng):
        params = init_params(self._config(), rng)
        params["W1"][0, 0] = np.nan
        with pytest.raises(TrainingError, match="non-finite loss at epoch 0"):
            train(separable_batch(), CVConfig(epochs=5), params, rng)

    def test_accepts_prebuilt_batch(self, rng):
        params = init_params(self._config(), rng)
        batch = separable_batch()
        _, history = train(batch, CVConfig(epochs=3), params, rng)
        assert len(history) == 3

    def test_training_accuracy_on_easy_task(self, rng):
        batch = separable_batch(n=80)
        params = init_params(self._config(), rng)
        train(batch, CVConfig(epochs=300), params, np.random.default_rng(2))
        outputs, _ = forward(params, batch.features)
        predicted = (outputs["vta_probs"][:, 1] >= 0.5).astype(int)
        assert (predicted == batch.y_vta).mean() >= 0.95


class TestTrainMatchesReference:
    """The flat-buffer trainer reproduces the tensor-by-tensor reference to the bit."""

    @pytest.mark.parametrize("keep_prob", [0.75, 1.0])
    @pytest.mark.parametrize("row", ABLATION_ROWS)
    def test_bit_identical(self, row, keep_prob, monkeypatch):
        monkeypatch.setattr(optim, "KEEP_PROB", keep_prob)
        _, cv = ablation_config(row, CVConfig(epochs=12))
        net = NetworkConfig(num_features=9, num_decades=5, use_embedding=cv.use_embedding)
        rng = np.random.default_rng(31)
        batch = random_batch(rng, net, 40)
        params = init_params(net, rng)
        want, want_history = train_reference(batch, cv, net, dict(params), np.random.default_rng(8),
                                             keep_prob)
        got, history = train(batch, cv, params, np.random.default_rng(8))
        assert history == want_history
        assert list(got) == list(want)
        for name, tensor in want.items():
            assert np.array_equal(got[name], tensor), name

    def test_keep_prob_comes_from_the_module_constant(self, monkeypatch):
        # a non-default constant proves train reads it at call time, not a baked-in literal
        monkeypatch.setattr(optim, "KEEP_PROB", 1.0)
        drawn = []

        def spy(config, n, keep_prob, *args):
            masks = draw_dropout_masks(config, n, keep_prob, *args)
            drawn.append((keep_prob, masks))
            return masks

        monkeypatch.setattr(optim, "draw_dropout_masks", spy)
        cfg = CVConfig(epochs=8)
        net = NetworkConfig(num_features=9, num_decades=5, use_embedding=True)
        rng = np.random.default_rng(31)
        batch = random_batch(rng, net, 40)
        params = init_params(net, rng)
        want, want_history = train_reference(batch, cfg, net, dict(params), np.random.default_rng(8), 1.0)
        dropout_rng = np.random.default_rng(8)
        got, history = train(batch, cfg, params, dropout_rng)
        assert drawn == [(1.0, None)] * 8  # no masks, and the generator is never drawn from
        assert dropout_rng.random() == np.random.default_rng(8).random()
        assert history == want_history
        for name, tensor in want.items():
            assert np.array_equal(got[name], tensor), name


class TestTrainPrecision:
    """A float32 fit follows the float64 fit from the same values: same dropout units, rounding apart."""

    def test_float32_history_follows_float64(self):
        _, cv = ablation_config("multi_task", CVConfig(epochs=100))
        net = NetworkConfig(num_features=9, num_decades=5, use_embedding=True)
        rng = np.random.default_rng(31)
        batch = random_batch(rng, net, 40)
        start32 = init_params(net, rng).astype(np.float32)
        start64 = start32.astype(np.float64)  # train updates its params in place
        rng32, rng64 = np.random.default_rng(8), np.random.default_rng(8)
        got, history32 = train(batch, cv, start32, rng32)
        want, history64 = train(batch, cv, start64, rng64)
        assert got.flat.dtype == np.float32 and want.flat.dtype == np.float64
        assert rng32.random() == rng64.random()
        for column in ("loss", "vta_loss", "nyhac_loss", "bmi_loss"):
            a = np.array([row[column] for row in history32])
            b = np.array([row[column] for row in history64])
            assert a.dtype == np.float64
            assert np.linalg.norm(a - b) <= 1e-6 * np.linalg.norm(b), column
        np.testing.assert_allclose([row["loss"] for row in history32], [row["loss"] for row in history64], rtol=1e-6)

    def test_gradients_in_another_dtype_rejected(self):
        params = tiny_params(np.zeros(2)).astype(np.float32)
        with pytest.raises(ValueError, match="in the dtype of params"):
            adadelta_step(AdaDeltaState(params), params, params.astype(np.float64))
        assert AdaDeltaState(params).sq_grad.flat.dtype == np.float32


class TestTrainRecipe:
    def test_defaults_are_the_published_recipe(self):
        cfg = CVConfig()
        assert cfg.epochs == 1000 and cfg.multi_task is True
        assert (optim.ADADELTA_RHO, optim.ADADELTA_EPS, optim.CLIP_LIMIT, optim.KEEP_PROB) == (0.95, 1e-6, 0.1, 0.75)
        assert optim.AUX_WEIGHT == 1.0
        assert (cfg.aux_weight, CVConfig(multi_task=False).aux_weight) == (1.0, 0.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epochs": -1},
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ValueError, match=r"epochs must be >= 0, got -1"):
            CVConfig(**kwargs)


class TestLossHistoryExport:
    def test_csv_layout(self, tmp_path, rng):
        params = init_params(NetworkConfig(num_features=5, use_embedding=False, hidden=(6, 4, 3)), rng)
        _, history = train(separable_batch(n=20), CVConfig(epochs=4), params, rng)
        out = tmp_path / "loss.csv"
        write_loss_history(out, history)
        lines = out.read_text().splitlines()
        assert lines[0] == "epoch,loss,vta_loss,nyhac_loss,bmi_loss"
        assert len(lines) == 5
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[1]) == pytest.approx(history[0]["loss"], rel=1e-11)
