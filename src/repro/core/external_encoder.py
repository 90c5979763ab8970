"""External Features Encoder (paper Section 4.5, Eq. 18).

Encodes the optional external features f of an OD input:

* weather — an N_wea = 16-dimensional one-hot code O_wea;
* current traffic condition — the grid speed matrix C closest before the
  departure time, passed through a CNN of three Conv2d->BatchNorm2d->ReLU
  blocks followed by average pooling, giving D_traf (d_traf wide);

then ocode = W6 ReLU(W5 [O_wea, D_traf] + b5) + b6.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..analysis.contracts import shaped
from ..datagen.weather import N_WEATHER_TYPES
from ..nn import (
    ConvBNReLU, Module, Tensor, TwoLayerMLP, concat, global_avg_pool2d,
)
from .config import DeepODConfig


class TrafficConditionCNN(Module):
    """Speed matrix -> D_traf (Section 4.5's three-block CNN)."""

    def __init__(self, d_traf: int,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.d_traf = d_traf
        self.block1 = ConvBNReLU(1, 8, kernel_size=3, stride=2, padding=1,
                                 rng=rng)
        self.block2 = ConvBNReLU(8, 16, kernel_size=3, stride=2, padding=1,
                                 rng=rng)
        self.block3 = ConvBNReLU(16, d_traf, kernel_size=3, stride=1,
                                 padding=1, rng=rng)

    @shaped("(B, *, *) -> (B, d_traf)")
    def forward(self, matrices: Tensor) -> Tensor:
        """(batch, rows, cols) speed matrices -> (batch, d_traf)."""
        if matrices.ndim != 3:
            raise ValueError(
                f"expected (batch, rows, cols), got {matrices.shape}")
        b, r, c = matrices.shape
        x = matrices.reshape(b, 1, r, c)
        x = self.block3(self.block2(self.block1(x)))
        return global_avg_pool2d(x)


class ExternalFeaturesEncoder(Module):
    """(weather ids, speed matrices) -> ocode (batch, d6_m)."""

    def __init__(self, config: DeepODConfig,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.config = config
        self.cnn = TrafficConditionCNN(config.d_traf, rng=rng)
        self.mlp = TwoLayerMLP(N_WEATHER_TYPES + config.d_traf,
                               config.d5_m, config.d6_m, rng=rng)

    @shaped("_, _ -> (B, config.d6_m)")
    def forward(self, weather_ids: Sequence[int],
                speed_matrices: np.ndarray) -> Tensor:
        """Encode a batch of external features.

        Parameters
        ----------
        weather_ids:
            Per-trip weather category ids in [0, N_wea).
        speed_matrices:
            (batch, rows, cols) array of normalised speed matrices.
        """
        ids = np.asarray(weather_ids, dtype=np.int64)
        if np.any(ids < 0) or np.any(ids >= N_WEATHER_TYPES):
            raise ValueError("weather id out of range")
        one_hot = np.zeros((len(ids), N_WEATHER_TYPES))
        one_hot[np.arange(len(ids)), ids] = 1.0
        d_traf = self.cnn(Tensor(np.asarray(speed_matrices, dtype=float)))
        z8 = concat([Tensor(one_hot), d_traf], axis=1)
        return self.mlp(z8)                               # Eq. 18
