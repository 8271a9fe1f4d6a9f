"""Minimal dense network with manual backpropagation.

Batched forward/backward over float64 arrays, an adaptive-moment optimizer
with bias correction, global-norm gradient clipping, categorical sampling
from logits, and a versioned binary checkpoint format.

Checkpoint layout (little-endian):
    magic   4 bytes  b"MLP1"
    meta    u32 length + UTF-8 JSON (the caller's dict: the agent kind; the
            shapes are the arrays' own)
    arrays  for each parameter array: u32 ndim, u32 dims..., float64 data
    crc32   u32 over everything after the magic
"""

from __future__ import annotations

import json
import struct
import zlib
from pathlib import Path

import numpy as np

_MAGIC = b"MLP1"
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8     # Adam's decays and offset


class Mlp:
    """Fully-connected net: tanh hidden layers, then a linear output layer.
    Weights W[l] have shape (d_l, d_{l+1}).

    All parameters live in one contiguous float64 buffer ``flat`` laid out
    in ``params`` order (W0, b0, W1, b1, ...); ``weights[l]`` and
    ``biases[l]`` are views into it, so an optimizer can update the whole
    net in place through ``flat``.
    """

    def __init__(self, sizes: list[int], rng: np.random.Generator):
        self.sizes = list(sizes)
        pairs = list(zip(sizes[:-1], sizes[1:]))
        self.flat = np.zeros(sum(d_in * d_out + d_out for d_in, d_out in pairs))
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        off = 0
        for d_in, d_out in pairs:
            w = self.flat[off:off + d_in * d_out].reshape(d_in, d_out)
            off += d_in * d_out
            self.biases.append(self.flat[off:off + d_out])
            off += d_out
            w[...] = rng.normal(0.0, 1.0 / np.sqrt(d_in), size=(d_in, d_out))
            self.weights.append(w)

    @property
    def params(self) -> list[np.ndarray]:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.extend((w, b))
        return out

    def set_params(self, arrays: list[np.ndarray]) -> None:
        """Copy ``arrays`` (in ``params`` order) into the net's buffer."""
        params = self.params
        expected = [p.shape for p in params]
        got = [a.shape for a in arrays]
        if expected != got:
            raise ValueError(f"parameter shapes {got} do not match net {expected}")
        for p, a in zip(params, arrays):
            p[...] = a

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """The (N, d_out) output and its trace ``[x, h1, ..., out]``: each
        layer's input, then the output."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[1] != self.sizes[0]:
            raise ValueError(f"input width {x.shape[1]} != {self.sizes[0]}")
        trace = [x]
        h = x
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            h = np.tanh(h @ w + b)
            trace.append(h)
        h = h @ self.weights[-1] + self.biases[-1]
        trace.append(h)
        return h, trace

    def backward(self, trace: list[np.ndarray], dout: np.ndarray) -> list[np.ndarray]:
        """Exact gradients (summed over the batch) for the scalar loss whose
        output gradient is ``dout``; returned in ``params`` order."""
        dout = np.atleast_2d(np.asarray(dout, dtype=float))
        if dout.shape != trace[-1].shape:
            raise ValueError("output gradient shape mismatch")
        grads: list[np.ndarray] = [None] * (2 * len(self.weights))
        delta = dout                  # the output layer is linear
        for layer in reversed(range(len(self.weights))):
            inp = trace[layer]
            grads[2 * layer] = inp.T @ delta
            grads[2 * layer + 1] = delta.sum(axis=0)
            if layer > 0:             # back through the tanh that made inp
                delta = (delta @ self.weights[layer].T) * (1.0 - inp * inp)
        return grads


def softmax(logits: np.ndarray) -> np.ndarray:
    """Shift-invariant softmax over the last axis."""
    z = logits - np.max(logits, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_categorical(logits: np.ndarray, rng: np.random.Generator) -> int:
    """Sample an index of softmax(logits) by inverse CDF."""
    logits = np.asarray(logits, dtype=float).ravel()
    if not np.all(np.isfinite(logits)):
        raise ValueError("logits must be finite")
    probs = softmax(logits)
    cdf = np.cumsum(probs)
    cdf[-1] = 1.0
    # rng.random() < 1.0 == cdf[-1], so the index is at most len(probs) - 1
    return int(np.searchsorted(cdf, rng.random(), side="right"))


def clip_grads(grads: list[np.ndarray], max_norm: float) -> list[np.ndarray]:
    """Scale the whole gradient list so its global L2 norm is <= max_norm."""
    total = np.sqrt(sum(float(np.sum(g * g)) for g in grads))
    if total <= max_norm:
        return grads
    scale = max_norm / total
    return [g * scale for g in grads]


class Adam:
    """Adaptive-moment optimizer with bias correction over one flat float64
    buffer, such as an ``Mlp.flat``, which ``step`` updates in place."""

    def __init__(self, flat: np.ndarray) -> None:
        self.flat = flat
        self.t = 0
        self.m = np.zeros_like(flat)
        self.v = np.zeros_like(flat)
        self._scratch = np.empty_like(flat)

    def step(self, grads: list[np.ndarray], lr: float) -> None:
        """One update from ``grads``, which cover the buffer's floats in
        order (``Mlp.backward``'s list for the net that owns the buffer)."""
        g = np.concatenate([a.ravel() for a in grads])
        if not np.isfinite(g).all():
            raise FloatingPointError("non-finite gradient; step rejected")
        m, v, s = self.m, self.v, self._scratch
        self.t += 1
        bc1 = 1.0 - BETA1 ** self.t
        bc2 = 1.0 - BETA2 ** self.t
        # each operation below is the in-place form of, with the same
        # rounding as, m = b1*m + (1-b1)*g and v = b2*v + ((1-b2)*g)*g, then
        # flat -= (lr*(m/bc1)) / (sqrt(v/bc2) + eps)
        m *= BETA1
        np.multiply(g, 1.0 - BETA1, out=s)
        m += s
        v *= BETA2
        np.multiply(g, 1.0 - BETA2, out=s)
        s *= g
        v += s
        np.divide(v, bc2, out=s)
        np.sqrt(s, out=s)
        s += EPS
        np.divide(m, bc1, out=g)
        g *= lr
        g /= s
        self.flat -= g


def save_arrays(path: str | Path, arrays: list[np.ndarray], meta: dict) -> None:
    """Write the versioned binary checkpoint; round-trips bit-exactly."""
    body = bytearray()
    meta_bytes = json.dumps(meta, sort_keys=True).encode()
    body += struct.pack("<I", len(meta_bytes)) + meta_bytes
    body += struct.pack("<I", len(arrays))
    for a in arrays:
        a = np.asarray(a, dtype="<f8")  # tobytes() emits C order; 0-dim kept
        body += struct.pack("<I", a.ndim)
        body += struct.pack(f"<{a.ndim}I", *a.shape)
        body += a.tobytes()
    crc = zlib.crc32(bytes(body)) & 0xFFFFFFFF
    Path(path).write_bytes(_MAGIC + bytes(body) + struct.pack("<I", crc))


def load_arrays(path: str | Path) -> tuple[list[np.ndarray], dict]:
    blob = Path(path).read_bytes()
    if blob[:4] != _MAGIC:
        raise ValueError("not a checkpoint file (bad magic)")
    body, (crc,) = blob[4:-4], struct.unpack("<I", blob[-4:])
    if zlib.crc32(body) & 0xFFFFFFFF != crc:
        raise ValueError("checkpoint checksum mismatch")
    off = 0

    def take(fmt: str) -> tuple:
        nonlocal off
        size = struct.calcsize(fmt)
        vals = struct.unpack_from(fmt, body, off)
        off += size
        return vals

    (meta_len,) = take("<I")
    meta = json.loads(body[off:off + meta_len].decode())
    off += meta_len
    (count,) = take("<I")
    arrays = []
    for _ in range(count):
        (ndim,) = take("<I")
        shape = take(f"<{ndim}I")
        n = int(np.prod(shape)) if ndim else 1
        arr = np.frombuffer(body, dtype="<f8", count=n, offset=off).reshape(shape)
        off += 8 * n
        arrays.append(arr.copy())
    return arrays, meta
