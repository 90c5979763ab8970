"""Time Interval Encoder (paper Section 4.3, Eq. 4-11 and Figure 6).

Encodes one time interval [t[1], t[-1]] into a fixed-length vector tcode:

1. normalise both endpoints into (slot, remainder) pairs;
2. look up the embeddings of the Δd covered slots (Eq. 4) and stack them
   into a (Δd, d_t) matrix Dt;
3. run the ResNet CNN block (three convolutions with BatchNorm + ReLU and a
   residual add, Eq. 5-8);
4. average-pool over the Δd axis (Eq. 10);
5. concatenate the two remainders and apply a two-layer MLP (Eq. 11).

Batching: intervals in one batch cover different numbers of slots, so the
slot matrices are padded to the batch maximum and the average pool masks
the padding.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from ..analysis.contracts import shaped
from ..nn import (
    IntervalResNetBlock, Module, Tensor, TwoLayerMLP,
    masked_mean_pool,
)
from ..temporal.timeslot import TimeSlotConfig
from .config import DeepODConfig
from .embeddings import TimeSlotEmbedding


class TimeIntervalEncoder(Module):
    """Interval -> tcode (batched)."""

    def __init__(self, config: DeepODConfig,
                 slot_embedding: TimeSlotEmbedding,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.config = config
        self.slot_embedding = slot_embedding
        self.resnet = IntervalResNetBlock(rng=rng)
        # Eq. 11: input is Z5 (d_t) concatenated with the two remainders.
        self.mlp = TwoLayerMLP(config.d_t + 2, config.d1_m, config.d2_m,
                               rng=rng)

    @property
    def slot_config(self) -> TimeSlotConfig:
        return self.slot_embedding.slot_config

    @shaped("_ -> (B, config.d2_m)")
    def forward(self, intervals: Sequence[Tuple[float, float]]) -> Tensor:
        """Encode a batch of (start, end) timestamp intervals.

        Returns a (batch, d2_m) tensor of tcodes.
        """
        arr = np.asarray(intervals, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] != 2 or not arr.shape[0]:
            raise ValueError(
                f"expected a non-empty (batch, 2) interval array, got "
                f"shape {arr.shape}")
        if np.any(arr[:, 1] < arr[:, 0]):
            raise ValueError("interval end precedes start")
        cfg = self.slot_config
        batch = arr.shape[0]
        # Vectorised Eq. 2-4 over the whole batch: first/last slot per
        # interval and both remainders (normalised to [0, 1) so they do
        # not dominate).
        first = cfg.slots_of(arr[:, 0])
        counts = cfg.slots_of(arr[:, 1]) - first + 1      # Δd per row
        remainders = cfg.remainders_of(arr) / cfg.slot_seconds

        # Pad slot indices with each interval's last slot; the pooling mask
        # below removes the padded rows from the average.
        max_len = int(counts.max())
        offs = np.arange(max_len)
        padded = first[:, None] + np.minimum(offs[None, :],
                                             (counts - 1)[:, None])
        mask = (offs[None, :] < counts[:, None]).astype(np.float64)

        # (batch * max_len,) -> (batch, 1, max_len, d_t)
        emb = self.slot_embedding.lookup_slots(padded.reshape(-1))
        d_t = self.config.d_t
        dt_tensor = emb.reshape(batch, 1, max_len, d_t)
        row_mask = Tensor(mask[:, None, :, None])
        z4 = self.resnet(dt_tensor, mask=row_mask)        # Eq. 5-8
        z4 = z4.reshape(batch, max_len, d_t)
        # Masked average pool over the slot axis (Eq. 10).
        z5 = masked_mean_pool(z4, mask)
        # Eq. 11 with the constant remainders fused in as the MLP tail.
        return self.mlp.forward_with_tail(z5, remainders)
