"""Recurrent layers: the LSTM of DeepOD's Trajectory Encoder (Eq. 12-16).

The paper encodes a spatio-temporal path — a sequence of concatenated
(tcode_i, D^s_i) vectors — with a standard LSTM and keeps the final hidden
state h_n as the sequence representation.  :class:`LSTMCell` implements one
unit exactly per Eq. 12-16; :class:`LSTM` unrolls it over a padded batch of
variable-length sequences and gathers h at each sequence's true last step.

:class:`LSTM` runs the whole batch through
:func:`~repro.nn.engine.lstm_sequence_fused` — one input-projection GEMM
plus a single hand-written BPTT node.  The one-:class:`LSTMCell`-call-
per-timestep unroll it replaced is the parity oracle in
``tests/oracles/nn.py``.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from ..analysis.contracts import shaped
from .engine import (
    lstm_sequence_fused, lstm_span_encode_fused, sequence_mask,
)
from .init import ensure_generator
from .modules import Module, Parameter
from .tensor import Tensor, concat


class LSTMCell(Module):
    """One LSTM unit (Eq. 12-16).

    Gate order inside the fused weight matrices is (forget, input, output,
    cell candidate), i.e. rows [0:H] compute f, [H:2H] compute i, [2H:3H]
    compute o and [3H:4H] compute the tanh candidate.
    """

    def __init__(self, input_size: int, hidden_size: int, *,
                 rng: np.random.Generator,
                 forget_bias: float = 1.0):
        super().__init__()
        rng = ensure_generator(rng, "LSTMCell")
        self.input_size = input_size
        self.hidden_size = hidden_size
        k = 1.0 / np.sqrt(hidden_size)
        shape = (4 * hidden_size, input_size + hidden_size)
        self.weight = Parameter(rng.uniform(-k, k, size=shape))
        bias = rng.uniform(-k, k, size=(4 * hidden_size,))
        # Positive forget-gate bias is a standard stabilisation.
        bias[:hidden_size] += forget_bias
        self.bias = Parameter(bias)

    @shaped("(B, input_size), _ -> (B, hidden_size), (B, hidden_size)")
    def forward(self, x: Tensor, state: Tuple[Tensor, Tensor]
                ) -> Tuple[Tensor, Tensor]:
        """Advance one step.

        Parameters
        ----------
        x: (batch, input_size) input D^st_j.
        state: (h_{j-1}, c_{j-1}) each (batch, hidden_size).

        Returns
        -------
        (h_j, c_j)
        """
        h_prev, c_prev = state
        zx = concat([x, h_prev], axis=-1)
        gates = zx @ self.weight.T + self.bias
        hs = self.hidden_size
        f = gates[:, 0 * hs:1 * hs].sigmoid()       # Eq. 12
        i = gates[:, 1 * hs:2 * hs].sigmoid()       # Eq. 13
        o = gates[:, 2 * hs:3 * hs].sigmoid()       # Eq. 14
        g = gates[:, 3 * hs:4 * hs].tanh()
        c = f * c_prev + i * g                      # Eq. 15
        h = o * c.tanh()                            # Eq. 16
        return h, c


def _check_lengths(lengths: Optional[Sequence[int]], batch: int,
                   steps: int) -> np.ndarray:
    if lengths is None:
        lengths = [steps] * batch
    lengths = np.asarray(lengths, dtype=np.int64)
    if len(lengths) != batch:
        raise ValueError("lengths must have one entry per batch row")
    if np.any(lengths < 1) or np.any(lengths > steps):
        raise ValueError("sequence lengths must be in [1, time]")
    return lengths


def _check_state_dtype(tensor: Tensor, param: Parameter,
                       layer: str) -> None:
    """The recurrence must run in the parameter dtype end to end.

    Applied to the input before the fused kernel, whose buffers are
    allocated in the parameter dtype and would otherwise silently cast
    a mismatched input.  Fail loudly instead so the caller fixes the
    input dtype.  (Dtype-neutral by construction —
    N001-clean: no literal dtype appears here.)
    """
    if tensor.dtype != param.dtype:
        raise TypeError(
            f"{layer} input/state dtype {tensor.dtype} does not match "
            f"the parameter dtype {param.dtype}; cast the inputs to the "
            f"parameter dtype instead of relying on silent casts")


class LSTM(Module):
    """Unrolled LSTM over padded batches of variable-length sequences."""

    def __init__(self, input_size: int, hidden_size: int, *,
                 rng: np.random.Generator):
        super().__init__()
        self.cell = LSTMCell(input_size, hidden_size, rng=rng)
        self.hidden_size = hidden_size
        self.input_size = input_size

    @shaped("(B, T, input_size) -> (B, T, hidden_size), (B, hidden_size)")
    def forward(self, x: Tensor, lengths: Optional[Sequence[int]] = None
                ) -> Tuple[Tensor, Tensor]:
        """Run the LSTM over a (batch, time, input_size) tensor.

        Parameters
        ----------
        x:
            Padded input batch.
        lengths:
            True sequence lengths; padding steps beyond a sequence's length
            do not update its state.  Defaults to full length.

        Returns
        -------
        outputs: (batch, time, hidden) all hidden states (padded steps hold
            the carried-over state).
        final: (batch, hidden) h at each sequence's final true step — the
            h_n of Eq. 16 used by the Trajectory Encoder.
        """
        batch, steps, _ = x.shape
        lengths = _check_lengths(lengths, batch, steps)
        _check_state_dtype(x, self.cell.weight, "LSTM")
        mask = sequence_mask(lengths, steps)
        stacked = lstm_sequence_fused(
            x, self.cell.weight, self.cell.bias, self.hidden_size, mask)
        # Masked steps carry state, so the last step holds each row's
        # true final hidden state.
        return stacked, stacked[:, steps - 1, :]

    @shaped("(total, *), (total, *), _, _ -> (*, hidden_size)")
    def encode_spans(self, tcodes: Tensor, scodes: Tensor,
                     index_map: np.ndarray,
                     lengths: Sequence[int]) -> Tensor:
        """Hot path: flat per-element codes straight to h_n.

        Equivalent to ``forward(concat([tcodes, scodes])[index_map],
        lengths)[1]`` without materialising the concatenation, the
        padded batch or the full output sequence (see
        :func:`~repro.nn.engine.lstm_span_encode_fused`).
        """
        batch, steps = index_map.shape
        lengths = _check_lengths(lengths, batch, steps)
        _check_state_dtype(tcodes, self.cell.weight, "LSTM")
        _check_state_dtype(scodes, self.cell.weight, "LSTM")
        return lstm_span_encode_fused(
            tcodes, scodes, self.cell.weight, self.cell.bias,
            self.hidden_size, lengths, index_map)
