"""``repro.nn`` — a from-scratch reverse-mode autograd + neural-network
framework on numpy.

This package substitutes for PyTorch 1.0 (which the paper uses but which is
unavailable offline); it implements exactly the layers DeepOD's equations
require: Linear/MLP (Eq. 11, 17-20), LSTM (Eq. 12-16), Conv2d + BatchNorm2d
and the interval ResNet block (Eq. 5-8), embeddings-as-one-hot-products
(Eq. 1), Adam with step decay (Section 6.1), and MAE / Euclidean losses
(Algorithm 1).
"""

from .tensor import Tensor, concat, stack, zeros, ones, unbroadcast
from .engine import (
    sequence_mask,
    lstm_sequence_fused, lstm_span_encode_fused, gru_sequence_fused,
    conv2d_fused,
    batchnorm2d_fused, conv_bn_relu_fused, interval_resnet_fused,
    mlp2_fused, validate_bench_fit, validate_bench_fit_file,
)
from .functional import (
    relu, sigmoid, tanh, softmax, log_softmax, dropout,
    mae_loss, mse_loss, euclidean_loss, smooth_l1_loss,
    mae_loss_fused, euclidean_loss_fused, smooth_l1_loss_fused,
    avg_pool_over_axis, masked_mean_pool, global_avg_pool2d,
)
from .modules import (
    Parameter, Module, Linear, TwoLayerMLP, Sequential, ReLU, Tanh,
    Embedding, LayerNorm, Dropout,
)
from .rnn import LSTMCell, LSTM
from .gru import GRU, GRUCell
from .conv import Conv2d, BatchNorm2d, ConvBNReLU, IntervalResNetBlock
from .optim import (
    Optimizer, SGD, Adam, RMSProp, AdaGrad, StepDecay, CosineDecay,
    EarlyStopping,
)
from .serialization import (
    save_arrays, load_arrays, save_state, load_state, state_dict_bytes,
    parameter_count,
)
from .gradcheck import check_gradient, check_module_gradients, numeric_gradient

__all__ = [
    "Tensor", "concat", "stack", "zeros", "ones", "unbroadcast",
    "sequence_mask", "lstm_sequence_fused", "lstm_span_encode_fused",
    "gru_sequence_fused",
    "conv2d_fused", "batchnorm2d_fused", "conv_bn_relu_fused",
    "interval_resnet_fused", "mlp2_fused",
    "validate_bench_fit", "validate_bench_fit_file",
    "relu", "sigmoid", "tanh", "softmax", "log_softmax", "dropout",
    "mae_loss", "mse_loss", "euclidean_loss", "smooth_l1_loss",
    "mae_loss_fused", "euclidean_loss_fused", "smooth_l1_loss_fused",
    "avg_pool_over_axis", "masked_mean_pool",
    "global_avg_pool2d",
    "Parameter", "Module", "Linear", "TwoLayerMLP", "Sequential",
    "ReLU", "Tanh", "Embedding", "LayerNorm", "Dropout",
    "LSTMCell", "LSTM", "GRU", "GRUCell",
    "Conv2d", "BatchNorm2d", "ConvBNReLU", "IntervalResNetBlock",
    "Optimizer", "SGD", "Adam", "RMSProp", "AdaGrad", "StepDecay",
    "CosineDecay", "EarlyStopping",
    "save_arrays", "load_arrays", "save_state", "load_state",
    "state_dict_bytes", "parameter_count",
    "check_gradient", "check_module_gradients", "numeric_gradient",
]
