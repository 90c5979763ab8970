"""OD input encoder M_O (paper Section 4.6, Eq. 19).

Builds Z9 = concat(D^s_1, D^s_n, D^t, ocode, r[1], r[-1], t_r) — the
embeddings of the matched origin/destination segments, the departure-time
slot embedding, the external-feature code, the two position ratios and the
normalised time remainder — and applies MLP1 to produce code.

Ablation behaviour follows the model variants of Section 6.4.2/6.5:
spatial/temporal/external contributions are zeroed when disabled, and the
T-stamp variant replaces the slot embedding with the raw timestamp value.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..analysis.contracts import shaped
from ..nn import Module, Tensor, TwoLayerMLP, concat
from ..trajectory.model import ODInput
from .config import DeepODConfig
from .embeddings import RoadSegmentEmbedding, TimeSlotEmbedding
from .external_encoder import ExternalFeaturesEncoder


class ODEncoder(Module):
    """Batch of OD inputs -> code (batch, d8_m)."""

    def __init__(self, config: DeepODConfig,
                 road_embedding: RoadSegmentEmbedding,
                 slot_embedding: TimeSlotEmbedding,
                 external_encoder: Optional[ExternalFeaturesEncoder],
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.config = config
        self.road_embedding = road_embedding
        self.slot_embedding = slot_embedding
        if config.use_external_features and external_encoder is None:
            raise ValueError(
                "external features enabled but no encoder supplied")
        if external_encoder is not None:
            self.external_encoder = external_encoder
        else:
            self.external_encoder = None
        in_width = (2 * config.d_s          # D^s_1, D^s_n
                    + config.d_t            # D^t
                    + config.d6_m           # ocode
                    + 3)                    # r[1], r[-1], t_r
        if config.use_timestamp_directly:
            in_width += 1                   # raw timestamp feature (T-stamp)
        self.mlp1 = TwoLayerMLP(in_width, config.d7_m, config.d8_m, rng=rng)

    @shaped("_ -> (B, config.d8_m)")
    def forward(self, ods: Sequence[ODInput],
                speed_matrices: Optional[np.ndarray] = None) -> Tensor:
        if not len(ods):
            raise ValueError("empty OD batch")
        cfg = self.config
        batch = len(ods)
        for od in ods:
            if not od.is_matched:
                raise ValueError(
                    "OD inputs must be map-matched before encoding")

        # Spatial part: embeddings of origin/destination segments.
        if cfg.use_spatial_encoding:
            origin = self.road_embedding(
                np.array([od.origin_edge for od in ods]))
            dest = self.road_embedding(
                np.array([od.destination_edge for od in ods]))
        else:
            origin = Tensor(np.zeros((batch, cfg.d_s)))
            dest = Tensor(np.zeros((batch, cfg.d_s)))

        # Temporal part: slot embedding of the departure time + remainder
        # (vectorised Eq. 2-3 over the batch).
        slot_cfg = self.slot_embedding.slot_config
        departs = np.fromiter((od.depart_time for od in ods),
                              dtype=np.float64, count=batch)
        slots = slot_cfg.slots_of(departs)
        remainders = slot_cfg.remainders_of(departs) / slot_cfg.slot_seconds
        if cfg.use_temporal_encoding and not cfg.use_timestamp_directly:
            d_t = self.slot_embedding.lookup_slots(slots)
        else:
            d_t = Tensor(np.zeros((batch, cfg.d_t)))

        # External part.
        if cfg.use_external_features and self.external_encoder is not None:
            if speed_matrices is None:
                raise ValueError(
                    "speed matrices required when external features are on")
            ocode = self.external_encoder(
                [od.weather for od in ods], speed_matrices)
        else:
            ocode = Tensor(np.zeros((batch, cfg.d6_m)))

        floats = np.stack([
            np.array([od.ratio_start for od in ods]),
            np.array([od.ratio_end for od in ods]),
            remainders,
        ], axis=1)

        pieces = [origin, dest, d_t, ocode, Tensor(floats)]
        if cfg.use_timestamp_directly:
            # T-stamp: the raw departure timestamp as a (large) float — the
            # paper shows this dominates and degrades accuracy (Table 7).
            stamps = np.array([[od.depart_time] for od in ods])
            pieces.append(Tensor(stamps))
        z9 = concat(pieces, axis=1)
        return self.mlp1(z9)                               # Eq. 19
