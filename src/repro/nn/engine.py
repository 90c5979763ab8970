"""The fused ``nn`` engine: batched sequence kernels for the hot path.

Every layer of ``repro.nn`` that DeepOD trains through runs on these
kernels; there is no runtime switch.  The per-op compositions they
replaced (one ``LSTMCell`` call per timestep, slicing+concat im2col,
elementwise batch-norm and loss chains) live on as parity oracles in
``tests/oracles/nn.py``, whose ``reference_engine()`` context manager
swaps them back in for the whole-stack parity tests and the fit-speedup
bench.

What "fused" means here:

* ``lstm_sequence_fused`` / ``gru_sequence_fused`` run a whole padded
  (batch, time, features) batch through the recurrence as a *single*
  autograd node.  The input projection for all timesteps is one
  ``(B·T, G)`` GEMM, the per-step work is pure numpy on preallocated
  saved-activation buffers, and the backward is hand-written
  backpropagation-through-time — no per-step Tensor graph, no per-step
  mask Tensor allocations (length masking uses one precomputed
  ``(B, T)`` boolean mask).
* ``conv2d_fused`` / ``batchnorm2d_fused`` collapse the im2col
  convolution and the training-mode batch normalisation into one node
  each (the per-op forms build ``kh·kw`` slice nodes and a chain of
  elementwise nodes respectively).
* The fused elementwise loss chains live in
  :mod:`repro.nn.functional` (``mae_loss_fused`` etc.).

Saved-activation buffers keep the *parameter* dtype (float64 for the
default ``repro.nn`` zone, float32 when a model is cast down) — the
kernels never silently upcast, which the recurrent layers assert.

``BENCH_fit.json`` — written by ``benchmarks/test_fit_speedup.py`` —
is validated fail-closed by :func:`validate_bench_fit`.
"""

from __future__ import annotations

import json
from typing import Dict, Optional, Tuple

import numpy as np

from .tensor import Tensor, scatter_rows


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """Matches ``Tensor.sigmoid`` bit-for-bit (same clip window)."""
    return 1.0 / (1.0 + np.exp(-np.clip(z, -60, 60)))


def sequence_mask(lengths: np.ndarray, steps: int) -> np.ndarray:
    """One (B, T) boolean mask: ``mask[b, t]`` iff ``t < lengths[b]``.

    Precomputed once per forward instead of one Tensor per step.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    return np.arange(steps)[None, :] < lengths[:, None]


# ----------------------------------------------------------------------
# Fused LSTM sequence kernel
# ----------------------------------------------------------------------
def _lstm_unroll(gates_all: np.ndarray, w_h: np.ndarray,
                 mask_tm: np.ndarray, hs: int):
    """Shared LSTM recurrence (Eq. 12-16) over time-major gate inputs.

    ``gates_all`` is (T, B, 4H) holding the input projection plus bias;
    it is overwritten in place with the gate *activations* (the saved
    buffers BPTT needs).  Returns ``(h_all, c_all, tanh_c, h_final)``.
    """
    steps, batch = gates_all.shape[:2]
    dtype = gates_all.dtype
    h_all = np.empty((steps, batch, hs), dtype=dtype)
    c_all = np.empty((steps, batch, hs), dtype=dtype)
    tanh_c = np.empty((steps, batch, hs), dtype=dtype)
    rec = np.empty((batch, 4 * hs), dtype=dtype)

    h = np.zeros((batch, hs), dtype=dtype)
    c = np.zeros((batch, hs), dtype=dtype)
    for t in range(steps):
        gates = gates_all[t]
        gates += np.matmul(h, w_h.T, out=rec)
        # One in-place sigmoid over the (f, i, o) block and one tanh
        # over g — same elementwise sequence as ``_sigmoid``, without
        # three separate allocations per step.
        zs = gates[:, :3 * hs]
        np.clip(zs, -60, 60, out=zs)
        np.negative(zs, out=zs)
        np.exp(zs, out=zs)
        zs += 1.0
        np.reciprocal(zs, out=zs)
        zg = gates[:, 3 * hs:]
        np.tanh(zg, out=zg)
        f = gates[:, 0 * hs:1 * hs]
        i = gates[:, 1 * hs:2 * hs]
        o = gates[:, 2 * hs:3 * hs]
        c_cand = f * c + i * zg                         # Eq. 15
        tc = np.tanh(c_cand, out=tanh_c[t])
        m = mask_tm[t]
        h_all[t] = h = np.where(m, o * tc, h)           # Eq. 16
        c_all[t] = c = np.where(m, c_cand, c)
    return h_all, c_all, tanh_c, h


def _lstm_bptt(grad_tm: Optional[np.ndarray], grad_final: np.ndarray,
               gates_all: np.ndarray, c_all: np.ndarray,
               tanh_c: np.ndarray, w_h: np.ndarray,
               mask_tm: np.ndarray, hs: int) -> np.ndarray:
    """Shared hand-written BPTT; returns time-major (T, B, 4H) dgates.

    ``grad_tm`` carries per-step output gradients (or ``None`` when
    only the final hidden state was consumed); ``grad_final`` seeds the
    running dh.
    """
    steps, batch = gates_all.shape[:2]
    dtype = gates_all.dtype
    dgates_all = np.empty((steps, batch, 4 * hs), dtype=dtype)
    dh = grad_final.astype(dtype, copy=True)
    dc = np.zeros((batch, hs), dtype=dtype)
    for t in range(steps - 1, -1, -1):
        m = mask_tm[t]
        dh_t = grad_tm[t] + dh if grad_tm is not None else dh
        a_t = gates_all[t]
        f = a_t[:, 0 * hs:1 * hs]
        i = a_t[:, 1 * hs:2 * hs]
        o = a_t[:, 2 * hs:3 * hs]
        g = a_t[:, 3 * hs:4 * hs]
        tc = tanh_c[t]
        c_prev = (c_all[t - 1] if t
                  else np.zeros((batch, hs), dtype=dtype))
        # Masked rows forward both h and c straight to step t-1.
        dh_cand = np.where(m, dh_t, 0.0)
        dc_cand = np.where(m, dc, 0.0) + dh_cand * o * (1.0 - tc * tc)
        do = dh_cand * tc
        df = dc_cand * c_prev
        di = dc_cand * g
        dg = dc_cand * i
        dz = dgates_all[t]
        np.multiply(df * f, 1.0 - f, out=dz[:, 0 * hs:1 * hs])
        np.multiply(di * i, 1.0 - i, out=dz[:, 1 * hs:2 * hs])
        np.multiply(do * o, 1.0 - o, out=dz[:, 2 * hs:3 * hs])
        np.multiply(dg, 1.0 - g * g, out=dz[:, 3 * hs:4 * hs])
        dh = dz @ w_h + np.where(m, 0.0, dh_t)
        dc = dc_cand * f + np.where(m, 0.0, dc)
    return dgates_all


def lstm_sequence_fused(x: Tensor, weight: Tensor, bias: Tensor,
                        hidden_size: int, mask: np.ndarray) -> Tensor:
    """Run an LSTM (paper Eq. 12-16) over a padded batch in one node.

    Parameters
    ----------
    x: (B, T, D) input batch.
    weight: (4H, D+H) fused gate weights, rows ordered (f, i, o, g).
    bias: (4H,) gate bias.
    mask: (B, T) boolean; padded steps carry the previous state.

    Returns
    -------
    (B, T, H) outputs tensor; ``outputs[:, t]`` is the masked-carried
    hidden state, so ``outputs[:, -1]`` is h at each row's true last
    step.
    """
    batch, steps, in_size = x.shape
    hs = hidden_size
    w = weight.data
    w_x = w[:, :in_size]                     # (4H, D)
    w_h = w[:, in_size:]                     # (4H, H)
    dtype = w.dtype
    xd = x.data

    # Time-major working layout: per-step slices of (T, B, ·) arrays
    # are contiguous, so the recurrence GEMM writes straight into the
    # saved-activation storage instead of copying strided slices.
    x_tm = np.ascontiguousarray(xd.transpose(1, 0, 2))
    flat_x = x_tm.reshape(steps * batch, in_size)
    gates_all = (flat_x @ w_x.T + bias.data).reshape(steps, batch, 4 * hs)
    mask_tm = mask.T[:, :, None]             # (T, B, 1)

    h_all, c_all, tanh_c, _ = _lstm_unroll(gates_all, w_h, mask_tm, hs)
    outputs = np.ascontiguousarray(h_all.transpose(1, 0, 2))

    def backward(grad: np.ndarray):
        grad_tm = np.ascontiguousarray(grad.transpose(1, 0, 2))
        zero_h = np.zeros((batch, hs), dtype=dtype)
        dgates_all = _lstm_bptt(grad_tm, zero_h, gates_all, c_all,
                                tanh_c, w_h, mask_tm, hs)
        flat = dgates_all.reshape(steps * batch, 4 * hs)
        dx = np.ascontiguousarray(
            (flat @ w_x).reshape(steps, batch, in_size).transpose(1, 0, 2))
        dw_x = flat.T @ flat_x
        h_prev = np.zeros((steps, batch, hs), dtype=dtype)
        h_prev[1:] = h_all[:-1]
        dw_h = flat.T @ h_prev.reshape(steps * batch, hs)
        dw = np.concatenate([dw_x, dw_h], axis=1)
        db = flat.sum(axis=0)
        return dx, dw, db

    return Tensor._make(outputs, (x, weight, bias), backward)


def lstm_span_encode_fused(tcodes: Tensor, scodes: Tensor,
                           weight: Tensor, bias: Tensor,
                           hidden_size: int, lengths: np.ndarray,
                           index_map: np.ndarray) -> Tensor:
    """Encode flat per-element codes straight to the LSTM's h_n.

    The Trajectory Encoder's hot path (Eq. 12-17): every path element
    of the batch has a time code ``tcodes[j]`` and a segment code
    ``scodes[j]`` (both flat over ``total`` elements), and
    ``index_map[b, t]`` names the flat row feeding step ``t`` of batch
    row ``b``.  The per-op composition materialises
    ``concat([tcodes, scodes])``, gathers it into a padded (B, T, D)
    tensor, runs the LSTM and slices the last step — four graph nodes
    and three full-batch copies.  This kernel fuses all of it and runs
    the recurrence *packed*:

    - the input projection runs unpadded on the flat codes (one GEMM
      per code family, each row projected once however often the
      padding would repeat it);
    - batch rows are sorted by length descending, so at step ``t``
      only the prefix of rows still inside their sequence is touched —
      no masking arithmetic, and short rows simply freeze.  Each row's
      update is identical to the padded unroll's (rows are independent
      through every elementwise op and GEMM row), so parity with the
      reference composition holds;
    - BPTT emits gate gradients for exactly the ``total`` live
      (row, step) pairs, and the input gradient scatters back at the
      narrow code width.

    Parameters
    ----------
    tcodes: (total, D_t) flat time codes.
    scodes: (total, D_s) flat segment codes.
    weight: (4H, D_t+D_s+H) fused gate weights, (f, i, o, g) rows.
    bias: (4H,) gate bias.
    lengths: (B,) true sequence lengths (1 <= length <= T).
    index_map: (B, T) int rows into the flat codes; entries at
        ``t >= lengths[b]`` are padding and never read.

    Returns
    -------
    (B, H) tensor — h at each row's true last step (Eq. 16's h_n).
    """
    total, d_t = tcodes.shape
    d_s = scodes.shape[1]
    in_size = d_t + d_s
    batch, steps = index_map.shape
    hs = hidden_size
    w = weight.data
    w_h = w[:, in_size:]
    dtype = w.dtype

    lengths = np.asarray(lengths, dtype=np.int64)
    order = np.argsort(-lengths, kind="stable")
    lens_sorted = lengths[order]
    # active[t] = rows still running at step t; a non-increasing
    # prefix length because rows are sorted by length descending.
    active = np.searchsorted(-lens_sorted, -np.arange(steps),
                             side="left")
    idx_tm = np.ascontiguousarray(index_map[order].T)    # (T, B)

    # Project the flat codes once; steps gather *gate* rows on demand.
    gx = tcodes.data @ w[:, :d_t].T
    gx += scodes.data @ w[:, d_t:in_size].T
    gx += bias.data

    gates_all = np.empty((steps, batch, 4 * hs), dtype=dtype)
    h_all = np.empty((steps, batch, hs), dtype=dtype)
    c_all = np.empty((steps, batch, hs), dtype=dtype)
    tanh_c = np.empty((steps, batch, hs), dtype=dtype)
    rec = np.empty((batch, 4 * hs), dtype=dtype)
    h = np.zeros((batch, hs), dtype=dtype)
    c = np.zeros((batch, hs), dtype=dtype)
    for t in range(steps):
        nt = int(active[t])
        gates = gates_all[t, :nt]
        np.take(gx, idx_tm[t, :nt], axis=0, out=gates)
        hn = h[:nt]
        gates += np.matmul(hn, w_h.T, out=rec[:nt])
        # Same elementwise sequence as ``_lstm_unroll``/``_sigmoid``.
        zs = gates[:, :3 * hs]
        np.clip(zs, -60, 60, out=zs)
        np.negative(zs, out=zs)
        np.exp(zs, out=zs)
        zs += 1.0
        np.reciprocal(zs, out=zs)
        zg = gates[:, 3 * hs:]
        np.tanh(zg, out=zg)
        f = gates[:, 0 * hs:1 * hs]
        i = gates[:, 1 * hs:2 * hs]
        o = gates[:, 2 * hs:3 * hs]
        cn = c[:nt]
        cn *= f
        cn += i * zg                                 # Eq. 15
        c_all[t, :nt] = cn
        tc = np.tanh(cn, out=tanh_c[t, :nt])
        np.multiply(o, tc, out=hn)                   # Eq. 16
        h_all[t, :nt] = hn
    h_final = np.empty_like(h)
    h_final[order] = h

    # Packed layout bounds: step t's live rows occupy
    # [bounds[t], bounds[t+1]) and the live pairs total ``total``.
    bounds = np.concatenate([[0], np.cumsum(active)])

    def backward(grad: np.ndarray):
        dh = np.ascontiguousarray(grad[order]).astype(dtype, copy=False)
        dc = np.zeros((batch, hs), dtype=dtype)
        zero_c = np.zeros((batch, hs), dtype=dtype)
        dz_packed = np.empty((int(bounds[-1]), 4 * hs), dtype=dtype)
        for t in range(steps - 1, -1, -1):
            nt = int(active[t])
            a_t = gates_all[t, :nt]
            f = a_t[:, 0 * hs:1 * hs]
            i = a_t[:, 1 * hs:2 * hs]
            o = a_t[:, 2 * hs:3 * hs]
            g = a_t[:, 3 * hs:4 * hs]
            tc = tanh_c[t, :nt]
            c_prev = c_all[t - 1, :nt] if t else zero_c[:nt]
            dh_cand = dh[:nt]
            dc_cand = dc[:nt] + dh_cand * o * (1.0 - tc * tc)
            do = dh_cand * tc
            df = dc_cand * c_prev
            di = dc_cand * g
            dg = dc_cand * i
            dz = dz_packed[bounds[t]:bounds[t + 1]]
            np.multiply(df * f, 1.0 - f, out=dz[:, 0 * hs:1 * hs])
            np.multiply(di * i, 1.0 - i, out=dz[:, 1 * hs:2 * hs])
            np.multiply(do * o, 1.0 - o, out=dz[:, 2 * hs:3 * hs])
            np.multiply(dg, 1.0 - g * g, out=dz[:, 3 * hs:4 * hs])
            # Rows past the prefix pass dh/dc straight through to
            # step t-1 untouched — the packed analogue of the padded
            # kernel's np.where carries.
            dh[:nt] = dz @ w_h
            dc[:nt] = dc_cand * f
        rows = np.concatenate(
            [idx_tm[t, :active[t]] for t in range(steps)])
        # Live pairs hit every flat row exactly once (index_map is the
        # canonical span layout), so the input gradient is a permuted
        # assignment of the projected gate gradients — no accumulation.
        proj = dz_packed @ w[:, :in_size]
        if rows.size == total and np.array_equal(
                np.sort(rows), np.arange(total)):
            dcodes = np.empty((total, in_size), dtype=dtype)
            dcodes[rows] = proj
        else:
            dcodes = scatter_rows(rows, proj, total)
        xg_t = tcodes.data[rows]
        xg_s = scodes.data[rows]
        hp = np.zeros((int(bounds[-1]), hs), dtype=dtype)
        for t in range(1, steps):
            hp[bounds[t]:bounds[t + 1]] = h_all[t - 1, :active[t]]
        dw = np.concatenate([
            dz_packed.T @ xg_t, dz_packed.T @ xg_s,
            dz_packed.T @ hp], axis=1)
        db = dz_packed.sum(axis=0)
        return dcodes[:, :d_t], dcodes[:, d_t:], dw, db

    return Tensor._make(h_final, (tcodes, scodes, weight, bias), backward)


# ----------------------------------------------------------------------
# Fused GRU sequence kernel
# ----------------------------------------------------------------------
def gru_sequence_fused(x: Tensor, weight_gates: Tensor, bias_gates: Tensor,
                       weight_cand: Tensor, bias_cand: Tensor,
                       hidden_size: int, mask: np.ndarray) -> Tensor:
    """Run a GRU (Cho et al. 2014) over a padded batch in one node.

    Same contract as :func:`lstm_sequence_fused`; gate order inside
    ``weight_gates`` is (z, r) as in :class:`repro.nn.GRUCell`.
    """
    batch, steps, in_size = x.shape
    hs = hidden_size
    wg = weight_gates.data
    wc = weight_cand.data
    wg_x, wg_h = wg[:, :in_size], wg[:, in_size:]
    wc_x, wc_h = wc[:, :in_size], wc[:, in_size:]
    dtype = wg.dtype
    xd = x.data

    flat_x = xd.reshape(batch * steps, in_size)
    gx_gates = (flat_x @ wg_x.T + bias_gates.data).reshape(
        batch, steps, 2 * hs)
    gx_cand = (flat_x @ wc_x.T + bias_cand.data).reshape(batch, steps, hs)

    zr_all = np.empty((batch, steps, 2 * hs), dtype=dtype)
    h_tilde_all = np.empty((batch, steps, hs), dtype=dtype)
    h_prev_all = np.empty((batch, steps, hs), dtype=dtype)
    s_all = np.empty((batch, steps, hs), dtype=dtype)
    outputs = np.empty((batch, steps, hs), dtype=dtype)

    h = np.zeros((batch, hs), dtype=dtype)
    for t in range(steps):
        h_prev_all[:, t] = h
        zr = _sigmoid(gx_gates[:, t] + h @ wg_h.T)
        zr_all[:, t] = zr
        z, r = zr[:, :hs], zr[:, hs:]
        s = r * h
        s_all[:, t] = s
        h_tilde = np.tanh(gx_cand[:, t] + s @ wc_h.T)
        h_tilde_all[:, t] = h_tilde
        m = mask[:, t, None]
        h = np.where(m, (1.0 - z) * h + z * h_tilde, h)
        outputs[:, t] = h

    def backward(grad: np.ndarray):
        dgg_all = np.empty((batch, steps, 2 * hs), dtype=dtype)
        dgc_all = np.empty((batch, steps, hs), dtype=dtype)
        dh = np.zeros((batch, hs), dtype=dtype)
        for t in range(steps - 1, -1, -1):
            m = mask[:, t, None]
            dh_t = grad[:, t] + dh
            dh_cand = np.where(m, dh_t, 0.0)
            zr = zr_all[:, t]
            z, r = zr[:, :hs], zr[:, hs:]
            h_tilde = h_tilde_all[:, t]
            h_prev = h_prev_all[:, t]
            dz = dh_cand * (h_tilde - h_prev)
            dh_prev = dh_cand * (1.0 - z) + np.where(m, 0.0, dh_t)
            dpc = (dh_cand * z) * (1.0 - h_tilde * h_tilde)
            dgc_all[:, t] = dpc
            ds = dpc @ wc_h
            dr = ds * h_prev
            dh_prev += ds * r
            dgg = dgg_all[:, t]
            dgg[:, :hs] = dz * z * (1.0 - z)
            dgg[:, hs:] = dr * r * (1.0 - r)
            dh = dh_prev + dgg @ wg_h
        flat_gg = dgg_all.reshape(batch * steps, 2 * hs)
        flat_gc = dgc_all.reshape(batch * steps, hs)
        dx = (flat_gg @ wg_x + flat_gc @ wc_x).reshape(
            batch, steps, in_size)
        dwg = np.concatenate([
            flat_gg.T @ flat_x,
            flat_gg.T @ h_prev_all.reshape(batch * steps, hs)], axis=1)
        dwc = np.concatenate([
            flat_gc.T @ flat_x,
            flat_gc.T @ s_all.reshape(batch * steps, hs)], axis=1)
        return (dx, dwg, flat_gg.sum(axis=0), dwc, flat_gc.sum(axis=0))

    return Tensor._make(
        outputs, (x, weight_gates, bias_gates, weight_cand, bias_cand),
        backward)


# ----------------------------------------------------------------------
# Fused convolution / batch normalisation
# ----------------------------------------------------------------------
def conv2d_fused(x: Tensor, weight: Tensor, bias: Optional[Tensor],
                 stride: Tuple[int, int],
                 padding: Tuple[int, int]) -> Tensor:
    """im2col + GEMM convolution as a single autograd node.

    The reference :class:`repro.nn.Conv2d` assembles ``kh·kw`` slice
    nodes whose backwards each allocate a padded-input-sized buffer;
    here the unfold is a zero-copy ``sliding_window_view`` and the
    backward scatters gradient back with one strided add per kernel
    offset.
    """
    n, cin, h, w = x.shape
    cout, _, kh, kw = weight.shape
    sh, sw = stride
    ph, pw = padding
    xd = x.data
    if ph or pw:
        xd = np.pad(xd, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    hp, wp = xd.shape[2], xd.shape[3]
    out_h = (hp - kh) // sh + 1
    out_w = (wp - kw) // sw + 1
    if out_h <= 0 or out_w <= 0:
        raise ValueError(
            f"kernel ({kh}x{kw}) larger than padded input ({hp}x{wp})")
    # (N, C, out_h, out_w, kh, kw) view, then one contiguous copy.
    windows = np.lib.stride_tricks.sliding_window_view(
        xd, (kh, kw), axis=(2, 3))[:, :, ::sh, ::sw]
    cols = np.ascontiguousarray(windows.transpose(0, 2, 3, 1, 4, 5))
    cols = cols.reshape(n * out_h * out_w, cin * kh * kw)
    flat_w = weight.data.reshape(cout, cin * kh * kw)
    out = cols @ flat_w.T
    if bias is not None:
        out += bias.data
    out = np.ascontiguousarray(
        out.reshape(n, out_h, out_w, cout).transpose(0, 3, 1, 2))

    def backward(grad: np.ndarray):
        g = np.ascontiguousarray(grad.transpose(0, 2, 3, 1)).reshape(
            n * out_h * out_w, cout)
        dw = (g.T @ cols).reshape(weight.shape)
        db = g.sum(axis=0) if bias is not None else None
        dcols = (g @ flat_w).reshape(n, out_h, out_w, cin, kh, kw)
        dxp = np.zeros((n, cin, hp, wp), dtype=grad.dtype)
        for di in range(kh):
            for dj in range(kw):
                dxp[:, :, di:di + sh * out_h:sh,
                    dj:dj + sw * out_w:sw] += \
                    dcols[:, :, :, :, di, dj].transpose(0, 3, 1, 2)
        dx = dxp[:, :, ph:hp - ph, pw:wp - pw] if (ph or pw) else dxp
        if bias is not None:
            return dx, dw, db
        return dx, dw

    parents = (x, weight) if bias is None else (x, weight, bias)
    return Tensor._make(out, parents, backward)


def batchnorm2d_fused(x: Tensor, weight: Tensor, bias: Tensor,
                      eps: float) -> Tensor:
    """Training-mode batch normalisation as a single autograd node.

    Normalises with the batch statistics over (N, H, W) per channel —
    identical to the reference op chain in
    :class:`repro.nn.BatchNorm2d` — with the standard hand-derived
    backward.  Running-statistics bookkeeping stays in the module.
    """
    axes = (0, 2, 3)
    xd = x.data
    count = xd.shape[0] * xd.shape[2] * xd.shape[3]
    mu = xd.mean(axis=axes, keepdims=True)
    var = ((xd - mu) ** 2).mean(axis=axes, keepdims=True)
    istd = 1.0 / np.sqrt(var + eps)
    xhat = (xd - mu) * istd
    wq = weight.data.reshape(1, -1, 1, 1)
    out = xhat * wq + bias.data.reshape(1, -1, 1, 1)

    def backward(grad: np.ndarray):
        dw = (grad * xhat).sum(axis=axes)
        db = grad.sum(axis=axes)
        dxhat = grad * wq
        dx = (istd / count) * (
            count * dxhat
            - dxhat.sum(axis=axes, keepdims=True)
            - xhat * (dxhat * xhat).sum(axis=axes, keepdims=True))
        return dx, dw, db

    return Tensor._make(out, (x, weight, bias), backward)


def conv_bn_relu_fused(x: Tensor, conv_w: Tensor, conv_b: Optional[Tensor],
                       bn_w: Tensor, bn_b: Tensor,
                       stride: Tuple[int, int], padding: Tuple[int, int],
                       eps: float, mask: Optional[np.ndarray] = None
                       ) -> Tuple[Tensor, np.ndarray, np.ndarray]:
    """Conv2d → training-mode BatchNorm2d → ReLU (→ optional mask) as
    one autograd node.

    The whole block works in the flat ``(N·H'·W', C_out)`` layout the
    im2col GEMM produces, so the batch statistics, the affine transform
    and the ReLU never materialise intermediate NCHW tensors.  ``mask``
    (broadcastable against the NCHW output, e.g. ``(N, 1, H', 1)``)
    zeroes padding rows after the ReLU exactly like the reference
    ``relu() * mask`` chain.

    Returns ``(out, batch_mean, batch_var)``; running-statistics
    bookkeeping stays in the :class:`~repro.nn.BatchNorm2d` module.
    """
    n, cin, h, w = x.shape
    cout, _, kh, kw = conv_w.shape
    sh, sw = stride
    ph, pw = padding
    xd = x.data
    if ph or pw:
        xd = np.pad(xd, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    hp, wp = xd.shape[2], xd.shape[3]
    out_h = (hp - kh) // sh + 1
    out_w = (wp - kw) // sw + 1
    if out_h <= 0 or out_w <= 0:
        raise ValueError(
            f"kernel ({kh}x{kw}) larger than padded input ({hp}x{wp})")
    windows = np.lib.stride_tricks.sliding_window_view(
        xd, (kh, kw), axis=(2, 3))[:, :, ::sh, ::sw]
    cols = np.ascontiguousarray(windows.transpose(0, 2, 3, 1, 4, 5))
    cols = cols.reshape(n * out_h * out_w, cin * kh * kw)
    flat_w = conv_w.data.reshape(cout, cin * kh * kw)
    y = cols @ flat_w.T                                  # (N·L, C_out)
    if conv_b is not None:
        y += conv_b.data
    count = y.shape[0]
    # Axis-0 reductions on narrow arrays are slow in numpy; route the
    # channel sums through BLAS (ones-vector GEMV / einsum column dots)
    # and fold the BN affine into one multiply-add per element.
    ones = np.ones(count, dtype=y.dtype)
    mean = (ones @ y) / count
    y -= mean                                            # centred, in place
    var = np.einsum("ij,ij->j", y, y) / count
    istd = 1.0 / np.sqrt(var + eps)
    a = istd * bn_w.data
    z = y * a
    z += bn_b.data                                       # == xhat·γ + β
    zr = np.maximum(z, 0.0)
    pos = zr > 0.0
    out = np.ascontiguousarray(
        zr.reshape(n, out_h, out_w, cout).transpose(0, 3, 1, 2))
    if mask is not None:
        out = out * mask

    def backward(grad: np.ndarray):
        if mask is not None:
            grad = grad * mask
        # Fresh buffer: the ReLU gate multiply also materialises the
        # (N, H', W', C) layout without mutating the incoming grad.
        g = grad.transpose(0, 2, 3, 1).reshape(count, cout) * pos
        xhat = y * istd                                  # y is centred
        dbn_w = np.einsum("ij,ij->j", g, xhat)
        dbn_b = ones @ g
        dxhat = np.multiply(g, bn_w.data, out=g)
        s1 = ones @ dxhat
        s2 = np.einsum("ij,ij->j", dxhat, xhat)
        # dy = (istd/count)·(count·dxhat − s1 − xhat·s2), in-place
        dy = np.multiply(dxhat, istd, out=dxhat)
        np.multiply(xhat, istd * s2 / count, out=xhat)
        dy -= xhat
        dy -= istd * s1 / count
        db = ones @ dy if conv_b is not None else None
        dw = (dy.T @ cols).reshape(conv_w.shape)
        dcols = (dy @ flat_w).reshape(n, out_h, out_w, cin, kh, kw)
        dxp = np.zeros((n, cin, hp, wp), dtype=grad.dtype)
        for di in range(kh):
            for dj in range(kw):
                dxp[:, :, di:di + sh * out_h:sh,
                    dj:dj + sw * out_w:sw] += \
                    dcols[:, :, :, :, di, dj].transpose(0, 3, 1, 2)
        dx = dxp[:, :, ph:hp - ph, pw:wp - pw] if (ph or pw) else dxp
        if conv_b is not None:
            return dx, dw, db, dbn_w, dbn_b
        return dx, dw, dbn_w, dbn_b

    parents = ((x, conv_w, bn_w, bn_b) if conv_b is None
               else (x, conv_w, conv_b, bn_w, bn_b))
    return Tensor._make(out, parents, backward), mean, var


def interval_resnet_fused(x: Tensor,
                          conv1_w: Tensor, conv1_b: Tensor,
                          bn1_w: Tensor, bn1_b: Tensor,
                          conv2_w: Tensor, conv2_b: Tensor,
                          bn2_w: Tensor, bn2_b: Tensor,
                          conv3_w: Tensor, conv3_b: Tensor,
                          eps1: float, eps2: float,
                          mask: Optional[np.ndarray] = None
                          ) -> Tuple[Tensor, np.ndarray, np.ndarray,
                                     np.ndarray, np.ndarray]:
    """The whole Time Interval Encoder residual block (paper Eq. 5-8)
    as one autograd node.

    Specialised to the block's shape contract — ``(N, 1, Δd, d_t)``
    input, two ``(k, 1)`` same-padded convolutions with training-mode
    BatchNorm + ReLU (+ optional padding-row mask), a 1x1 convolution
    and the residual add.  Because the input and output channel counts
    are 1 and every kernel spans only the Δd axis, the entire block
    runs in the GEMM-friendly ``(N, Δd, d_t, C)`` layout with no
    NCHW transposes at all; layer-to-layer hand-off is a reshape.

    The Δd-axis convolutions are decomposed per kernel tap: one
    contiguous GEMM for the centre tap plus one shifted slice-GEMM per
    off-centre tap, so no im2col buffer, no ``np.pad`` and no strided
    ``sliding_window_view`` copy is ever materialised (those layout
    shuffles dominate the cost at the block's narrow channel widths).
    Taps that fall entirely off a short Δd axis contribute nothing;
    with Δd = 1 each convolution collapses to a single GEMM.

    ``mask`` is the usual ``(N, 1, Δd, 1)`` padding-row mask; it is
    applied to the input (so the residual uses the masked input, same
    as the reference ``x * mask`` pre-step) and after each ReLU.

    Returns ``(out, mean1, var1, mean2, var2)`` — the batch statistics
    feed the two BatchNorm modules' running buffers.
    """
    n, cin, height, width = x.shape
    if cin != 1 or conv3_w.shape[0] != 1:
        raise ValueError("interval_resnet_fused expects C_in = C_out = 1")
    c1 = conv1_w.shape[0]
    c2 = conv2_w.shape[0]
    k = conv1_w.shape[2]
    if conv1_w.shape[3] != 1 or conv2_w.shape[3] != 1 or k % 2 == 0:
        raise ValueError("interval_resnet_fused expects odd (k, 1) kernels")
    p = k // 2
    dtype = conv1_w.data.dtype
    rows = n * height * width
    ones = np.ones(rows, dtype=dtype)

    m_rows = None
    mbool = None
    if mask is not None:
        m_rows = mask.reshape(n, height, 1)          # broadcast over d_t
        mbool = np.ascontiguousarray(np.broadcast_to(
            m_rows > 0.0, (n, height, width))).reshape(rows, 1)

    x0 = x.data.reshape(n, height, width)
    if m_rows is not None:
        x0 = x0 * m_rows

    def _tap_slices(s: int):
        """(destination, source) Δd-slices for a tap shifted by ``s``."""
        if s > 0:
            return slice(0, height - s), slice(s, height)
        return slice(-s, height), slice(0, height + s)

    def _conv_h(src_flat: np.ndarray, w_taps: np.ndarray, ci: int,
                co: int, saved: dict) -> np.ndarray:
        """Same-padded (k, 1) convolution along Δd as per-tap GEMMs.

        ``src_flat`` is (rows, ci) viewed as (N, Δd, W, ci); ``w_taps``
        is (k, co, ci).  The contiguous shifted source copies are kept
        in ``saved`` for the weight gradients.
        """
        y = src_flat @ w_taps[p].T                   # centre tap
        ynd = y.reshape(n, height, width, co)
        src_nd = src_flat.reshape(n, height, width, ci)
        for dh in range(k):
            s = dh - p
            if s == 0 or height - abs(s) <= 0:
                continue
            dst, src = _tap_slices(s)
            xs = np.ascontiguousarray(src_nd[:, src]).reshape(-1, ci)
            saved[dh] = xs
            ynd[:, dst] += (xs @ w_taps[dh].T).reshape(
                n, height - abs(s), width, co)
        return y

    def _conv_h_backward(dy_flat: np.ndarray, src_flat: np.ndarray,
                         w_taps: np.ndarray, ci: int, co: int,
                         saved: dict):
        """Input and weight gradients of :func:`_conv_h`."""
        dx = dy_flat @ w_taps[p]
        dwt = np.zeros_like(w_taps)
        dwt[p] = dy_flat.T @ src_flat
        dxnd = dx.reshape(n, height, width, ci)
        dynd = dy_flat.reshape(n, height, width, co)
        for dh in range(k):
            s = dh - p
            if s == 0 or height - abs(s) <= 0:
                continue
            dst, src = _tap_slices(s)
            dys = np.ascontiguousarray(dynd[:, dst]).reshape(-1, co)
            dwt[dh] = dys.T @ saved[dh]
            dxnd[:, src] += (dys @ w_taps[dh]).reshape(
                n, height - abs(s), width, ci)
        return dx, dwt

    def _bn_relu(y: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
                 eps: float):
        """Centre ``y`` in place; return (z_relu, pos, mean, var, istd)."""
        mean = (ones @ y) / rows
        y -= mean
        var = np.einsum("ij,ij->j", y, y) / rows
        istd = 1.0 / np.sqrt(var + eps)
        z = y * (istd * gamma)
        z += beta
        # One boolean gate covers the ReLU and the padding-row mask
        # (mask is strictly 0/1): ``z * pos`` zeroes exactly the rows
        # ``max(z, 0) * mask`` would, and ``pos`` doubles as the fused
        # backward multiplier.
        pos = z > 0.0
        if mbool is not None:
            pos &= mbool
        z *= pos
        return z, pos, mean, var, istd

    w1t = np.ascontiguousarray(
        conv1_w.data.reshape(c1, 1, k).transpose(2, 0, 1))   # (k, c1, 1)
    w2t = np.ascontiguousarray(
        conv2_w.data.reshape(c2, c1, k).transpose(2, 0, 1))  # (k, c2, c1)
    w3f = conv3_w.data.reshape(1, c2)

    saved1: dict = {}
    saved2: dict = {}
    xf = x0.reshape(rows, 1)
    y1 = _conv_h(xf, w1t, 1, c1, saved1)
    y1 += conv1_b.data
    z1, pos1, mean1, var1, istd1 = _bn_relu(
        y1, bn1_w.data, bn1_b.data, eps1)            # Eq. 5

    y2 = _conv_h(z1, w2t, c1, c2, saved2)
    y2 += conv2_b.data
    z2, pos2, mean2, var2, istd2 = _bn_relu(
        y2, bn2_w.data, bn2_b.data, eps2)            # Eq. 6

    y3 = z2 @ w3f.T
    y3 += conv3_b.data                               # Eq. 7
    out = x0 + y3.reshape(n, height, width)          # Eq. 8 (residual)
    out = out.reshape(n, 1, height, width)

    def _bn_backward(g: np.ndarray, y_centred: np.ndarray,
                     gamma: np.ndarray, istd: np.ndarray):
        """BatchNorm backward in the flat layout.

        Mutates ``g`` and consumes ``y_centred`` (dead after this
        call): ``xhat`` never materialises — the reductions against it
        fold its per-column ``istd`` factor into the scalar, and the
        mean/variance correction is written into ``y_centred``.
        """
        dgamma = np.einsum("ij,ij->j", g, y_centred) * istd
        dbeta = ones @ g
        dxhat = np.multiply(g, gamma, out=g)
        s1 = ones @ dxhat
        s2 = np.einsum("ij,ij->j", dxhat, y_centred) * istd
        dy = np.multiply(dxhat, istd, out=dxhat)
        np.multiply(y_centred, (istd * istd) * s2 / rows, out=y_centred)
        y_centred += istd * s1 / rows
        dy -= y_centred
        return dy, dgamma, dbeta

    def backward(grad: np.ndarray):
        go = grad.reshape(n, height, width)
        dy3 = go.reshape(rows, 1)
        dw3 = (dy3.T @ z2).reshape(conv3_w.shape)
        db3 = ones @ dy3
        dz2 = dy3 @ w3f
        dz2 *= pos2
        dy2, dg2, dbb2 = _bn_backward(dz2, y2, bn2_w.data, istd2)
        db2 = ones @ dy2
        dz1, dw2t = _conv_h_backward(dy2, z1, w2t, c1, c2, saved2)
        dw2 = np.ascontiguousarray(
            dw2t.transpose(1, 2, 0)).reshape(conv2_w.shape)
        dz1 *= pos1
        dy1, dg1, dbb1 = _bn_backward(dz1, y1, bn1_w.data, istd1)
        db1 = ones @ dy1
        dx0f, dw1t = _conv_h_backward(dy1, xf, w1t, 1, c1, saved1)
        dw1 = np.ascontiguousarray(
            dw1t.transpose(1, 2, 0)).reshape(conv1_w.shape)
        dx0 = dx0f.reshape(n, height, width)
        dx0 += go                                    # residual branch
        if m_rows is not None:
            dx0 *= m_rows
        return (dx0.reshape(x.shape), dw1, db1, dg1, dbb1,
                dw2, db2, dg2, dbb2, dw3, db3)

    node = Tensor._make(
        out, (x, conv1_w, conv1_b, bn1_w, bn1_b,
              conv2_w, conv2_b, bn2_w, bn2_b, conv3_w, conv3_b),
        backward)
    return node, mean1, var1, mean2, var2


# ----------------------------------------------------------------------
# Fused two-layer perceptron
# ----------------------------------------------------------------------
def mlp2_fused(x: Tensor, w1: Tensor, b1: Tensor,
               w2: Tensor, b2: Tensor,
               const_tail: Optional[np.ndarray] = None) -> Tensor:
    """``W2·ReLU(W1 x + b1) + b2`` (the paper's recurring MLP) as one
    autograd node — two GEMMs forward, four backward, no intermediate
    graph nodes.

    ``const_tail`` fuses the common ``concat([x, constants])`` input
    pattern (position ratios, interval remainders): the tail columns
    of ``W1`` multiply the constant features directly, skipping the
    concat node, its backward split and the dead gradient the constant
    leaf would otherwise get.
    """
    xd = x.data
    lead = xd.shape[:-1]
    d_x = xd.shape[-1]
    flat_x = xd.reshape(-1, d_x)
    if const_tail is None:
        h = flat_x @ w1.data.T
    else:
        h = flat_x @ w1.data[:, :d_x].T
        h += const_tail.reshape(-1, const_tail.shape[-1]) \
            @ w1.data[:, d_x:].T
    h += b1.data
    np.maximum(h, 0.0, out=h)
    pos = h > 0.0
    out = h @ w2.data.T
    out += b2.data
    out = out.reshape(lead + (w2.shape[0],))

    def backward(grad: np.ndarray):
        g = grad.reshape(-1, grad.shape[-1])
        dw2 = g.T @ h
        db2 = g.sum(axis=0)
        dh = (g @ w2.data)
        dh *= pos
        db1 = dh.sum(axis=0)
        if const_tail is None:
            dw1 = dh.T @ flat_x
            dx = (dh @ w1.data).reshape(xd.shape)
        else:
            dw1 = np.empty_like(w1.data)
            dw1[:, :d_x] = dh.T @ flat_x
            dw1[:, d_x:] = dh.T @ const_tail.reshape(
                -1, const_tail.shape[-1])
            dx = (dh @ w1.data[:, :d_x]).reshape(xd.shape)
        return dx, dw1, db1, dw2, db2

    return Tensor._make(out, (x, w1, b1, w2, b2), backward)


# ----------------------------------------------------------------------
# BENCH_fit.json schema
# ----------------------------------------------------------------------
_PHASE_KEYS = ("forward_s", "backward_s", "optimizer_s")
_ENGINE_KEYS = ("fit_s",) + _PHASE_KEYS


def validate_bench_fit(payload: Dict) -> Dict:
    """Validate a ``BENCH_fit.json`` document; returns it unchanged."""
    if not isinstance(payload, dict):
        raise ValueError("bench payload must be a JSON object")
    if payload.get("bench") != "fit_engine_speedup":
        raise ValueError("bench must be 'fit_engine_speedup' "
                         f"(got {payload.get('bench')!r})")
    for key in ("scale", "speedup", "floor"):
        if not isinstance(payload.get(key), (int, float)):
            raise ValueError(f"{key} must be a number")
    workload = payload.get("workload")
    if not isinstance(workload, dict):
        raise ValueError("workload must be an object")
    for key in ("trips", "steps", "batch_size", "sequence_encoder"):
        if key not in workload:
            raise ValueError(f"workload missing {key!r}")
    for engine in ("reference", "fast"):
        stats = payload.get(engine)
        if not isinstance(stats, dict):
            raise ValueError(f"{engine} must be an object")
        for key in _ENGINE_KEYS:
            if not isinstance(stats.get(key), (int, float)):
                raise ValueError(f"{engine}.{key} must be a number")
            if stats[key] < 0:
                raise ValueError(f"{engine}.{key} must be >= 0")
        phase_sum = sum(stats[k] for k in _PHASE_KEYS)
        if phase_sum > stats["fit_s"] * 1.5:
            raise ValueError(
                f"{engine} phase breakdown exceeds total fit time")
    if payload["speedup"] < payload["floor"]:
        raise ValueError(
            f"recorded speedup {payload['speedup']:.2f}x below the "
            f"{payload['floor']:.2f}x floor")
    if "parity" in payload:
        parity = payload["parity"]
        if not isinstance(parity, dict):
            raise ValueError("parity must be an object")
        for key in ("fast_mae", "reference_mae"):
            if not isinstance(parity.get(key), (int, float)):
                raise ValueError(f"parity.{key} must be a number")
    return payload


def validate_bench_fit_file(path: str) -> Dict:
    """Load and validate a ``BENCH_fit.json`` file (CI entry point)."""
    with open(path) as handle:
        return validate_bench_fit(json.load(handle))
