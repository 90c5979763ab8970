"""DeepOD hyper-parameter configuration.

Defaults follow the paper's tuned values (Section 6.2):
d_s = 64, d_t = 64, d1_m = 128, d2_m = 64, d_h = 128, d3_m = 128,
d4_m = d8_m = 64, d5_m = 128, d6_m = 64, d7_m = 128, d9_m = 128,
d_traf = 128 — scaled down by default for CPU training; the benchmark
harness can restore the paper-scale sizes via ``paper_scale()``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Any, Mapping, Optional

# Keys older config.json files may carry.  They named the oracle-vs-
# production switches of the embedding and nn layers, which now have a
# single implementation, so loading ignores them.
LEGACY_CONFIG_KEYS = ("nn_engine", "embed_engine")


@dataclass
class DeepODConfig:
    """All model dimensions and training knobs of DeepOD.

    Attribute names mirror Table 1 / Section 6.2 of the paper:
    ``d_s``/``d_t`` are the road and time-slot embedding widths, ``d{i}_m``
    the widths of MLP layers i = 1..9, ``d_h`` the LSTM state size and
    ``d_traf`` the traffic-CNN output width.  ``aux_weight`` is the loss
    weight w of Algorithm 1.
    """

    # Embedding widths (Eq. 1 and Section 4.2).
    d_s: int = 32
    d_t: int = 32
    # MLP layer widths (Eq. 11, 17-20).
    d1_m: int = 64      # Time Interval Encoder hidden
    d2_m: int = 32      # Time Interval Encoder output (tcode width)
    d3_m: int = 64      # Trajectory Encoder hidden
    d4_m: int = 32      # Trajectory Encoder output = stcode width
    d5_m: int = 64      # External Features Encoder hidden
    d6_m: int = 32      # External Features Encoder output (ocode width)
    d7_m: int = 64      # MLP1 hidden
    d9_m: int = 64      # MLP2 hidden
    d_h: int = 64       # LSTM hidden size
    d_traf: int = 32    # traffic CNN output width
    # d8_m (code width) must equal d4_m so code and stcode are comparable
    # (Section 4.6); exposed as a read-only property below.

    # Training (Section 6.1 / Algorithm 1).
    aux_weight: float = 0.7        # w; per-city defaults in Section 6.3
    # Relative scale of the auxiliary term.  The paper's main loss is MAE
    # in raw seconds (hundreds) while the auxiliary Euclidean code
    # distance is O(1), so even w = 0.7 leaves the main loss dominant.
    # This implementation z-scores the targets (main loss becomes O(1)),
    # so the auxiliary term is rescaled to restore the paper's effective
    # main:aux gradient ratio.
    aux_scale: float = 0.1
    learning_rate: float = 0.01
    lr_decay_epochs: int = 2
    lr_decay_factor: float = 5.0
    batch_size: int = 64           # paper: 1024; scaled for CPU
    epochs: int = 4
    grad_clip: Optional[float] = 5.0
    seed: int = 0

    # Feature toggles for the ablation variants (Section 6.4.2 / 6.5).
    use_trajectory_encoder: bool = True    # off => N-st
    use_spatial_encoding: bool = True      # off => N-sp
    use_temporal_encoding: bool = True     # off => N-tp
    use_external_features: bool = True     # off => N-other
    # Embedding initialisation variants (Table 7).
    init_road_embedding: str = "node2vec"  # node2vec | onehot(R-one)
    init_slot_embedding: str = "node2vec"  # node2vec | onehot(T-one)
    temporal_graph: str = "weekly"         # weekly | daily(T-day)
    use_timestamp_directly: bool = False   # True => T-stamp
    # Sequence model of the Trajectory Encoder.  The paper instantiates
    # "an RNN model (e.g., LSTM)"; GRU and order-insensitive mean pooling
    # are provided for the design-choice ablation bench.
    sequence_encoder: str = "lstm"         # lstm | gru | mean

    # Target normalisation: training on z-scored travel times stabilises
    # MAE optimisation; predictions are de-normalised before metrics.
    normalize_targets: bool = True

    def __post_init__(self):
        for name in ("d_s", "d_t", "d1_m", "d2_m", "d3_m", "d4_m", "d5_m",
                     "d6_m", "d7_m", "d9_m", "d_h", "d_traf"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not 0.0 <= self.aux_weight <= 1.0:
            raise ValueError("aux_weight w must be in [0, 1]")
        if self.learning_rate <= 0:
            raise ValueError("learning rate must be positive")
        if self.batch_size < 1 or self.epochs < 1:
            raise ValueError("batch size and epochs must be >= 1")
        if self.init_road_embedding not in ("node2vec", "deepwalk", "line",
                                            "onehot"):
            raise ValueError("unknown road-embedding initialisation")
        if self.init_slot_embedding not in ("node2vec", "deepwalk", "line",
                                            "onehot"):
            raise ValueError("unknown slot-embedding initialisation")
        if self.temporal_graph not in ("weekly", "daily"):
            raise ValueError("temporal_graph must be weekly or daily")
        if self.sequence_encoder not in ("lstm", "gru", "mean"):
            raise ValueError("sequence_encoder must be lstm, gru or mean")

    @property
    def d8_m(self) -> int:
        """Output width of MLP1; tied to d4_m (Section 4.6)."""
        return self.d4_m

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "DeepODConfig":
        """Rebuild a config saved as ``dataclasses.asdict`` JSON.

        Drops :data:`LEGACY_CONFIG_KEYS` and rejects any other unknown
        field; raises ``ValueError`` (or ``TypeError`` for a malformed
        value) so each caller can wrap it in its own error type.
        """
        payload = {k: v for k, v in payload.items()
                   if k not in LEGACY_CONFIG_KEYS}
        unknown = set(payload) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown fields {sorted(unknown)}")
        return cls(**payload)

    def with_overrides(self, **kwargs) -> "DeepODConfig":
        """A copy with some fields replaced (used by sweeps and variants)."""
        return replace(self, **kwargs)


def paper_scale() -> DeepODConfig:
    """The exact hyper-parameters of Section 6.2 (GPU-scale)."""
    return DeepODConfig(
        d_s=64, d_t=64, d1_m=128, d2_m=64, d3_m=128, d4_m=64, d5_m=128,
        d6_m=64, d7_m=128, d9_m=128, d_h=128, d_traf=128,
        batch_size=1024)
