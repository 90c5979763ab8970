"""Per-op forwards: the oracles of the fused kernels in ``repro.nn``.

Each function here is the autograd composition a fused layer replaced —
one ``LSTMCell``/``GRUCell`` call per timestep, slicing+concat im2col
convolution, elementwise batch norm, literal-concat MLP tails and the
elementwise loss and pooling chains.  The layer parity tests call them
directly; :func:`reference_engine` swaps them into the layer classes and
the ``repro.core`` modules for whole-stack same-seed comparisons.
"""

import contextlib
from typing import List, Optional, Sequence, Tuple

import numpy as np

import repro.core.interval_encoder
import repro.core.model
import repro.core.trajectory_encoder
from repro.nn import (
    GRU, LSTM, BatchNorm2d, Conv2d, ConvBNReLU, IntervalResNetBlock,
    Tensor, TwoLayerMLP, concat, euclidean_loss, mae_loss, stack,
)
from repro.nn.rnn import _check_lengths, _check_state_dtype


# ----------------------------------------------------------------------
# Convolution and batch norm
# ----------------------------------------------------------------------
def pad2d(x: Tensor, pad: Tuple[int, int, int, int]) -> Tensor:
    """Zero-pad the last two axes of ``x`` by (top, bottom, left, right)."""
    top, bottom, left, right = pad
    if top == bottom == left == right == 0:
        return x
    pad_width = [(0, 0)] * (x.ndim - 2) + [(top, bottom), (left, right)]
    out_data = np.pad(x.data, pad_width)

    slices = tuple([slice(None)] * (x.ndim - 2) +
                   [slice(top, out_data.shape[-2] - bottom),
                    slice(left, out_data.shape[-1] - right)])

    def backward(grad):
        return (grad[slices],)

    return Tensor._make(out_data, (x,), backward)


def _im2col(x: Tensor, kh: int, kw: int, stride: Tuple[int, int]
            ) -> Tuple[Tensor, int, int]:
    """Unfold (N, C, H, W) into (N, out_h*out_w, C*kh*kw) patches with
    differentiable slicing + concat (no hand-written backward)."""
    n, c, h, w = x.shape
    sh, sw = stride
    out_h = (h - kh) // sh + 1
    out_w = (w - kw) // sw + 1
    if out_h <= 0 or out_w <= 0:
        raise ValueError(
            f"kernel ({kh}x{kw}) larger than padded input ({h}x{w})")
    rows = []
    for di in range(kh):
        for dj in range(kw):
            patch = x[:, :, di:di + sh * out_h:sh, dj:dj + sw * out_w:sw]
            rows.append(patch.reshape(n, c, out_h * out_w, 1))
    # (N, C, L, kh*kw) -> (N, L, C*kh*kw)
    stacked = concat(rows, axis=3)
    cols = stacked.transpose((0, 2, 1, 3)).reshape(
        n, out_h * out_w, c * kh * kw)
    return cols, out_h, out_w


def conv2d_forward(self: Conv2d, x: Tensor) -> Tensor:
    """``Conv2d.forward`` as pad2d + im2col + GEMM autograd ops."""
    if x.ndim != 4:
        raise ValueError(f"Conv2d expects (N, C, H, W), got {x.shape}")
    ph, pw = self.padding
    if ph or pw:
        x = pad2d(x, (ph, ph, pw, pw))
    kh, kw = self.kernel_size
    cols, out_h, out_w = _im2col(x, kh, kw, self.stride)
    flat_w = self.weight.reshape(self.out_channels,
                                 self.in_channels * kh * kw)
    out = cols @ flat_w.T                        # (N, L, C_out)
    if self.bias is not None:
        out = out + self.bias
    n = x.shape[0]
    return out.transpose((0, 2, 1)).reshape(
        n, self.out_channels, out_h, out_w)


_batchnorm2d_forward = BatchNorm2d.forward


def batchnorm2d_forward(self: BatchNorm2d, x: Tensor) -> Tensor:
    """Training-mode batch norm as a chain of elementwise nodes; eval
    mode is the production running-statistics path."""
    if not self.training:
        return _batchnorm2d_forward(self, x)
    if x.ndim != 4:
        raise ValueError(f"BatchNorm2d expects (N, C, H, W), got {x.shape}")
    axes = (0, 2, 3)
    self._update_running(x.data.mean(axis=axes), x.data.var(axis=axes))
    mu = x.mean(axis=axes, keepdims=True)
    centered = x - mu
    variance = (centered ** 2).mean(axis=axes, keepdims=True)
    norm = centered / ((variance + self.eps) ** 0.5)
    w = self.weight.reshape(1, self.num_features, 1, 1)
    b = self.bias.reshape(1, self.num_features, 1, 1)
    return norm * w + b


def conv_bn_relu_forward(self: ConvBNReLU, x: Tensor) -> Tensor:
    return self.bn(self.conv(x)).relu()


def interval_block_forward(self: IntervalResNetBlock, x: Tensor,
                           mask: Optional[Tensor] = None) -> Tensor:
    """Eq. 5-8 composed from the per-layer modules."""
    if mask is not None:
        x = x * mask
    z1 = self.bn1(self.conv1(x)).relu()
    if mask is not None:
        z1 = z1 * mask
    z2 = self.bn2(self.conv2(z1)).relu()
    if mask is not None:
        z2 = z2 * mask
    return x + self.conv3(z2)


# ----------------------------------------------------------------------
# Perceptron
# ----------------------------------------------------------------------
def mlp_forward(self: TwoLayerMLP, x: Tensor) -> Tensor:
    return self.fc2(self.fc1(x).relu())


def mlp_forward_with_tail(self: TwoLayerMLP, x: Tensor,
                          tail: np.ndarray) -> Tensor:
    """The literal concat the fused constant tail replaces."""
    joined = concat([x, Tensor(np.asarray(tail, dtype=x.dtype))], axis=-1)
    return self.fc2(self.fc1(joined).relu())


# ----------------------------------------------------------------------
# Recurrent layers
# ----------------------------------------------------------------------
def lstm_forward(self: LSTM, x: Tensor,
                 lengths: Optional[Sequence[int]] = None
                 ) -> Tuple[Tensor, Tensor]:
    """One :class:`LSTMCell` call per timestep, padded steps frozen."""
    batch, steps, _ = x.shape
    lengths = _check_lengths(lengths, batch, steps)
    dtype = self.cell.weight.dtype
    h = Tensor(np.zeros((batch, self.hidden_size), dtype=dtype))
    c = Tensor(np.zeros((batch, self.hidden_size), dtype=dtype))
    outputs: List[Tensor] = []
    for t in range(steps):
        h_new, c_new = self.cell(x[:, t, :], (h, c))
        # Freeze state on padded steps: mask=1 while t < length.
        mask = Tensor((t < lengths).astype(dtype)[:, None])
        h = h_new * mask + h * (1.0 - mask)
        c = c_new * mask + c * (1.0 - mask)
        outputs.append(h)
    stacked = stack(outputs, axis=1)
    # A float64 input would silently upcast every activation of a
    # float32 model; the unroll must fail like the fused kernel does.
    _check_state_dtype(stacked, self.cell.weight, "LSTM")
    return stacked, h


def lstm_encode_spans(self: LSTM, tcodes: Tensor, scodes: Tensor,
                      index_map: np.ndarray,
                      lengths: Sequence[int]) -> Tensor:
    """``LSTM.encode_spans`` as concat + gather + forward + last step."""
    dst = concat([tcodes, scodes], axis=1)
    batch, steps = index_map.shape
    padded = dst[index_map.reshape(-1)].reshape(batch, steps, dst.shape[1])
    return self(padded, lengths=lengths)[1]


def gru_forward(self: GRU, x: Tensor,
                lengths: Optional[Sequence[int]] = None
                ) -> Tuple[Tensor, Tensor]:
    """One :class:`GRUCell` call per timestep, padded steps frozen."""
    batch, steps, _ = x.shape
    lengths = _check_lengths(lengths, batch, steps)
    dtype = self.cell.weight_gates.dtype
    h = Tensor(np.zeros((batch, self.hidden_size), dtype=dtype))
    outputs: List[Tensor] = []
    for t in range(steps):
        h_new = self.cell(x[:, t, :], h)
        mask = Tensor((t < lengths).astype(dtype)[:, None])
        h = h_new * mask + h * (1.0 - mask)
        outputs.append(h)
    stacked = stack(outputs, axis=1)
    _check_state_dtype(stacked, self.cell.weight_gates, "GRU")
    return stacked, h


# ----------------------------------------------------------------------
# Pooling
# ----------------------------------------------------------------------
def masked_mean_pool(x: Tensor, mask: np.ndarray) -> Tensor:
    """``(x * mask).sum(1) / counts`` over a (B, T, D) batch."""
    counts = Tensor(mask.sum(axis=1, keepdims=True))
    return (x * Tensor(mask[:, :, None])).sum(axis=1) / counts


# (owner, attribute, oracle) triples :func:`reference_engine` installs.
_SWAPS = (
    (LSTM, "forward", lstm_forward),
    (LSTM, "encode_spans", lstm_encode_spans),
    (GRU, "forward", gru_forward),
    (Conv2d, "forward", conv2d_forward),
    (BatchNorm2d, "forward", batchnorm2d_forward),
    (ConvBNReLU, "forward", conv_bn_relu_forward),
    (IntervalResNetBlock, "forward", interval_block_forward),
    (TwoLayerMLP, "forward", mlp_forward),
    (TwoLayerMLP, "forward_with_tail", mlp_forward_with_tail),
    (repro.core.model, "mae_loss_fused", mae_loss),
    (repro.core.model, "euclidean_loss_fused", euclidean_loss),
    (repro.core.interval_encoder, "masked_mean_pool", masked_mean_pool),
    (repro.core.trajectory_encoder, "masked_mean_pool", masked_mean_pool),
)


@contextlib.contextmanager
def reference_engine():
    """Run every fused layer, loss and pool on its per-op oracle.

    Models built and trained inside the block take the per-op paths
    end to end; the production bindings are restored on exit, also
    when the block raises.
    """
    saved = [(owner, name, getattr(owner, name))
             for owner, name, _ in _SWAPS]
    try:
        for owner, name, oracle in _SWAPS:
            setattr(owner, name, oracle)
        yield
    finally:
        for owner, name, original in saved:
            setattr(owner, name, original)
