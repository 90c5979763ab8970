"""Functional operations built on :class:`repro.nn.tensor.Tensor`.

These free functions mirror the operations DeepOD's equations use:
activations (Eq. 9, 12-16), losses (MAE main loss, Euclidean auxiliary loss
of Algorithm 1), and pooling used by the Time Interval Encoder
(Eq. 5-10) and the External Features Encoder (Eq. 18).
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, concat, stack  # noqa: F401  (re-exported)


def relu(x: Tensor) -> Tensor:
    """Rectified linear unit, Eq. 9 of the paper."""
    return x.relu()


def sigmoid(x: Tensor) -> Tensor:
    return x.sigmoid()


def tanh(x: Tensor) -> Tensor:
    return x.tanh()


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    exp = shifted.exp()
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def dropout(x: Tensor, p: float, training: bool,
            rng: np.random.Generator = None) -> Tensor:
    """Inverted dropout; identity when ``training`` is False or ``p == 0``.

    Whenever a mask is actually drawn the caller must supply a seeded
    Generator (reprolint D002): dropout masks are part of the training
    stream, so an entropy-seeded fallback here would make
    otherwise-identical runs diverge.  The identity paths (eval mode,
    ``p == 0``) draw nothing and accept ``rng=None``.
    """
    if not training or p <= 0.0:
        return x
    if not isinstance(rng, np.random.Generator):
        raise TypeError(
            "dropout requires an explicit np.random.Generator when a mask "
            f"is drawn (got {type(rng).__name__})")
    mask = (rng.random(x.shape) >= p) / (1.0 - p)
    return x * Tensor(mask)


# ----------------------------------------------------------------------
# Losses
#
# The bare names are per-op chains (the baselines train through them);
# the ``*_fused`` twins are single autograd nodes with hand-written
# backwards, which ``DeepOD.training_losses`` uses.  Fused buffers keep
# the input dtype so a float32 model never silently upcasts.
# ----------------------------------------------------------------------
def mae_loss(pred: Tensor, target: Tensor) -> Tensor:
    """Mean absolute error — the paper's main loss (Algorithm 1, line 11)."""
    target = target if isinstance(target, Tensor) else Tensor(target)
    return (pred - target).abs().mean()


def mse_loss(pred: Tensor, target: Tensor) -> Tensor:
    target = target if isinstance(target, Tensor) else Tensor(target)
    return ((pred - target) ** 2).mean()


def euclidean_loss(a: Tensor, b: Tensor) -> Tensor:
    """Batch-mean Euclidean distance, the auxiliary loss of Algorithm 1.

    ``auxiliaryloss = sqrt(sum_j (code[j] - stcode[j])^2)`` averaged over
    the batch dimension so its scale is comparable with the main loss.
    """
    diff = a - b
    sq = (diff ** 2).sum(axis=-1)
    # Epsilon keeps the sqrt differentiable when code == stcode exactly.
    return ((sq + 1e-12) ** 0.5).mean()


def smooth_l1_loss(pred: Tensor, target: Tensor, beta: float = 1.0) -> Tensor:
    """Huber-style loss used for robustness experiments."""
    target = target if isinstance(target, Tensor) else Tensor(target)
    diff = pred - target
    abs_diff = diff.abs()
    quad_mask = Tensor((abs_diff.data < beta).astype(np.float64))
    lin_mask = Tensor((abs_diff.data >= beta).astype(np.float64))
    quad = (diff ** 2) * (0.5 / beta) * quad_mask
    lin = (abs_diff - 0.5 * beta) * lin_mask
    return (quad + lin).mean()


def mae_loss_fused(pred: Tensor, target: Tensor) -> Tensor:
    """Single-node mean absolute error (twin of :func:`mae_loss`)."""
    target = target if isinstance(target, Tensor) else Tensor(target)
    diff = pred.data - target.data
    out = np.abs(diff).mean()

    def backward(grad):
        g = grad * np.sign(diff) / diff.size
        return g, -g

    return Tensor._make(np.asarray(out), (pred, target), backward)


def euclidean_loss_fused(a: Tensor, b: Tensor) -> Tensor:
    """Single-node batch-mean Euclidean distance (twin of
    :func:`euclidean_loss`, same epsilon)."""
    diff = a.data - b.data
    dist = np.sqrt((diff * diff).sum(axis=-1) + 1e-12)
    out = dist.mean()

    def backward(grad):
        g = grad * diff / (dist[..., None] * dist.size)
        return g, -g

    return Tensor._make(np.asarray(out), (a, b), backward)


def smooth_l1_loss_fused(pred: Tensor, target: Tensor,
                         beta: float = 1.0) -> Tensor:
    """Single-node Huber-style loss (twin of :func:`smooth_l1_loss`;
    the ``|diff| == beta`` tie takes the linear branch, as there)."""
    target = target if isinstance(target, Tensor) else Tensor(target)
    diff = pred.data - target.data
    abs_diff = np.abs(diff)
    quad = abs_diff < beta
    out = np.where(quad, diff * diff * (0.5 / beta),
                   abs_diff - 0.5 * beta).mean()

    def backward(grad):
        g = grad * np.where(quad, diff / beta,
                            np.sign(diff)) / diff.size
        return g, -g

    return Tensor._make(np.asarray(out), (pred, target), backward)


# ----------------------------------------------------------------------
# Pooling helpers used by the CNN encoders
# ----------------------------------------------------------------------
def avg_pool_over_axis(x: Tensor, axis: int) -> Tensor:
    """Average-pool away one axis (Eq. 10: column means of Z4)."""
    return x.mean(axis=axis)


def masked_mean_pool(x: Tensor, mask: np.ndarray) -> Tensor:
    """Masked average pool over the time axis as a single node.

    ``x`` is (B, T, D), ``mask`` a (B, T) 0/1 array; returns the
    (B, D) mean of each row's unmasked steps — the single-node form of
    the ``(x * mask).sum(1) / counts`` chain, used by the Time Interval
    Encoder (Eq. 10) and the mean-pooling sequence ablation.
    """
    weights = mask / mask.sum(axis=1, keepdims=True)    # (B, T)
    out = np.einsum("btd,bt->bd", x.data, weights)

    def backward(grad):
        return (grad[:, None, :] * weights[:, :, None],)

    return Tensor._make(out, (x,), backward)


def global_avg_pool2d(x: Tensor) -> Tensor:
    """Average over the trailing two spatial axes (N, C, H, W) -> (N, C)."""
    return x.mean(axis=(-2, -1))
