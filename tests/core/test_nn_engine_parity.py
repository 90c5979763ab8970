"""Fused-vs-oracle nn parity through the full DeepOD stack.

The fused kernels of ``repro.nn.engine`` are drop-in replacements for
the per-op oracles of ``tests/oracles/nn.py``: a same-seed short ``fit``
run inside ``reference_engine()`` must land on the same losses and
validation MAE as the production path, and the swap must reach every
layer the model builds.
"""

import numpy as np
import pytest

import repro.core.trajectory_encoder
from repro.core import DeepODConfig, DeepODTrainer, build_deepod
from repro.experiments import config_hash, make_run_id
from repro.nn import (
    GRU, LSTM, BatchNorm2d, Conv2d, IntervalResNetBlock, Tensor,
)
from tests.oracles import nn as oracle


def engine_config(**overrides):
    base = dict(d_s=8, d_t=8, d1_m=16, d2_m=8, d3_m=16, d4_m=8,
                d5_m=16, d6_m=8, d7_m=16, d9_m=16, d_h=16, d_traf=8,
                batch_size=16, epochs=1, seed=0,
                use_external_features=False)
    base.update(overrides)
    return DeepODConfig(**base)


def _fit(dataset, **overrides):
    model = build_deepod(dataset, engine_config(**overrides))
    trainer = DeepODTrainer(model, dataset, eval_every=1000)
    history = trainer.fit(track_validation=False)
    return model, trainer, history


def _fit_reference(dataset, **overrides):
    """``_fit`` on the oracles, MAE read before the swap is undone."""
    with oracle.reference_engine():
        model, trainer, history = _fit(dataset, **overrides)
        mae = trainer.validation_mae()
    return model, mae, history


class TestConfigWiring:
    def test_validation(self):
        # The engine switches are gone: not settable, but tolerated as
        # legacy keys of saved configs.
        with pytest.raises(TypeError):
            engine_config(nn_engine="reference")
        legacy = dict(vars(engine_config()), nn_engine="reference",
                      embed_engine="reference")
        assert DeepODConfig.from_dict(legacy) == engine_config()
        with pytest.raises(ValueError, match="unknown fields"):
            DeepODConfig.from_dict(dict(vars(engine_config()), bogus=1))

    def test_env_default(self, monkeypatch):
        """The default config — and so its hash and run id — must not
        depend on the caller's environment."""
        monkeypatch.delenv("REPRO_NN_ENGINE", raising=False)
        unset = DeepODConfig()
        hash_unset = config_hash(unset)
        run_unset = make_run_id("mini-chengdu", unset, 0)
        monkeypatch.setenv("REPRO_NN_ENGINE", "reference")
        assert DeepODConfig() == unset
        assert config_hash(DeepODConfig()) == hash_unset
        assert make_run_id("mini-chengdu", DeepODConfig(), 0) == run_unset

    def test_engine_reaches_all_layers(self, tiny_dataset):
        model = build_deepod(tiny_dataset, engine_config())
        enc = model.trajectory_encoder
        resnet = enc.interval_encoder.resnet
        with oracle.reference_engine():
            assert enc.lstm.forward.__func__ is oracle.lstm_forward
            assert enc.lstm.encode_spans.__func__ is oracle.lstm_encode_spans
            assert resnet.forward.__func__ is oracle.interval_block_forward
            assert resnet.conv1.forward.__func__ is oracle.conv2d_forward
            assert resnet.bn2.forward.__func__ is \
                oracle.batchnorm2d_forward
            assert enc.mlp.forward_with_tail.__func__ is \
                oracle.mlp_forward_with_tail
        assert enc.lstm.forward.__func__ is LSTM.forward
        assert resnet.forward.__func__ is IntervalResNetBlock.forward

    def test_sequence_encoder_variants_get_engine(self, tiny_dataset):
        gru = build_deepod(tiny_dataset,
                           engine_config(sequence_encoder="gru"))
        with oracle.reference_engine():
            assert gru.trajectory_encoder.lstm.forward.__func__ is \
                oracle.gru_forward
            # The mean-pooling encoder reaches the pool via its module.
            assert repro.core.trajectory_encoder.masked_mean_pool is \
                oracle.masked_mean_pool

    def test_swap_restored_when_block_raises(self):
        fused = (Conv2d.forward, BatchNorm2d.forward, GRU.forward)
        with pytest.raises(RuntimeError):
            with oracle.reference_engine():
                raise RuntimeError("boom")
        assert (Conv2d.forward, BatchNorm2d.forward, GRU.forward) == fused


class TestFitParity:
    def test_same_seed_fit_matches(self, tiny_dataset):
        _, trainer_f, hist_f = _fit(tiny_dataset)
        _, mae_r, hist_r = _fit_reference(tiny_dataset)
        # The paths differ only in GEMM association order, so losses
        # agree to high precision and the final MAE to rounding noise.
        np.testing.assert_allclose(hist_f.train_loss, hist_r.train_loss,
                                   rtol=1e-6)
        np.testing.assert_allclose(trainer_f.validation_mae(), mae_r,
                                   rtol=1e-5)

    def test_same_seed_fit_matches_gru(self, tiny_dataset):
        _, trainer_f, hist_f = _fit(tiny_dataset, sequence_encoder="gru")
        _, mae_r, hist_r = _fit_reference(tiny_dataset,
                                          sequence_encoder="gru")
        np.testing.assert_allclose(hist_f.train_loss, hist_r.train_loss,
                                   rtol=1e-6)
        np.testing.assert_allclose(trainer_f.validation_mae(), mae_r,
                                   rtol=1e-5)

    def test_predictions_match(self, tiny_dataset):
        model_f, _, _ = _fit(tiny_dataset)
        trips = tiny_dataset.split.test[:8]
        with oracle.reference_engine():
            model_r, _, _ = _fit(tiny_dataset)
            pred_r = model_r.predict([t.od for t in trips])
        pred_f = model_f.predict([t.od for t in trips])
        np.testing.assert_allclose(pred_f, pred_r, rtol=1e-5)


class TestSequenceLayerDefaults:
    def test_layers_resolve_env(self, monkeypatch):
        """``REPRO_NN_ENGINE`` no longer selects anything: layers built
        with it set run the same fused kernels."""
        x = Tensor(np.random.default_rng(1).normal(size=(2, 3, 4)))
        outputs = {}
        for value in (None, "reference"):
            if value is None:
                monkeypatch.delenv("REPRO_NN_ENGINE", raising=False)
            else:
                monkeypatch.setenv("REPRO_NN_ENGINE", value)
            outputs[value] = [
                layer(x, lengths=[3, 2])[0].data
                for layer in (LSTM(4, 3, rng=np.random.default_rng(0)),
                              GRU(4, 3, rng=np.random.default_rng(0)))]
        for a, b in zip(outputs[None], outputs["reference"]):
            np.testing.assert_array_equal(a, b)
