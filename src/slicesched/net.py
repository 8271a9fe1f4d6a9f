"""Minimal dense network with manual backpropagation.

Batched forward/backward over float64 arrays, an adaptive-moment optimizer
with bias correction, global-norm gradient clipping, categorical sampling
from logits, and a versioned binary checkpoint format.

A learner keeps its gradients in one ``(R, P)`` float64 buffer of R rows
laid out like the net's ``flat`` buffer of P parameters (A2C: the actor's
row, then the critic's; DQN: one row).  ``Mlp.backward`` writes a row
through ``Mlp.views``, ``clip_grads`` bounds each row's norm and ``Adam``
steps ``flat`` by every row in turn, each with moments of its own.

Checkpoint layout (little-endian):
    magic   4 bytes  b"MLP1"
    meta    u32 length + UTF-8 JSON (the caller's dict: the agent kind; the
            shapes are the arrays' own)
    arrays  for each parameter array: u32 ndim, u32 dims..., float64 data
    crc32   u32 over everything after the magic
"""

from __future__ import annotations

import json
import math
import struct
import zlib
from bisect import bisect_right
from itertools import accumulate
from pathlib import Path

import numpy as np

_MAGIC = b"MLP1"
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8     # Adam's decays and offset


class Mlp:
    """Fully-connected net: tanh hidden layers, then a linear output layer.
    Weights W[l] have shape (d_l, d_{l+1}).

    All parameters live in one contiguous float64 buffer ``flat``.
    ``params`` lists its views in order (W0, b0, W1, b1, ...), and
    ``weights`` and ``biases`` are that list's slices, so an optimizer can
    update the whole net in place through ``flat``.
    """

    def __init__(self, sizes: list[int], rng: np.random.Generator):
        self.sizes = list(sizes)
        pairs = list(zip(sizes[:-1], sizes[1:]))
        # where each parameter array starts in ``flat``, then its end
        self.splits = [0, *accumulate(n for d_in, d_out in pairs
                                      for n in (d_in * d_out, d_out))]
        self.flat = np.zeros(self.splits[-1])
        self.params: list[np.ndarray] = self.views(self.flat)
        self.weights = self.params[0::2]
        self.biases = self.params[1::2]
        for w, (d_in, d_out) in zip(self.weights, pairs):
            w[...] = rng.normal(0.0, 1.0 / np.sqrt(d_in), size=(d_in, d_out))

    def views(self, buf: np.ndarray) -> list[np.ndarray]:
        """Arrays in ``params`` order that view ``buf``, a 1-D buffer laid
        out like ``flat``; for a row of a gradient buffer, what
        ``backward`` writes into."""
        shapes = [shape for d_in, d_out in zip(self.sizes, self.sizes[1:])
                  for shape in ((d_in, d_out), (d_out,))]
        return [buf[lo:hi].reshape(shape) for lo, hi, shape
                in zip(self.splits, self.splits[1:], shapes)]

    def set_params(self, arrays: list[np.ndarray]) -> None:
        """Copy ``arrays`` (in ``params`` order) into the net's buffer."""
        expected = [p.shape for p in self.params]
        got = [a.shape for a in arrays]
        if expected != got:
            raise ValueError(f"parameter shapes {got} do not match net {expected}")
        for p, a in zip(self.params, arrays):
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

    def backward(self, trace: list[np.ndarray], dout: np.ndarray,
                 grads: list[np.ndarray]) -> None:
        """Write the exact gradients (summed over the batch) of the scalar
        loss whose output gradient is ``dout`` into ``grads``, arrays in
        ``params`` order such as ``views`` of a gradient row."""
        dout = np.atleast_2d(np.asarray(dout, dtype=float))
        if dout.shape != trace[-1].shape:
            raise ValueError("output gradient shape mismatch")
        delta = dout                  # the output layer is linear
        for layer in reversed(range(len(self.weights))):
            inp = trace[layer]
            np.matmul(inp.T, delta, out=grads[2 * layer])
            np.add.reduce(delta, axis=0, out=grads[2 * layer + 1])
            if layer > 0:             # back through the tanh that made inp
                delta = (delta @ self.weights[layer].T) * (1.0 - inp * inp)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Shift-invariant softmax over the last axis."""
    # the reductions of np.max and ndarray.sum, called directly
    z = logits - np.maximum.reduce(logits, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / np.add.reduce(e, axis=-1, keepdims=True)


def softmax_categorical(logits: np.ndarray, rng: np.random.Generator
                        ) -> tuple[int, np.ndarray]:
    """Sample an index of softmax(logits) by inverse CDF; returns it and
    the probabilities."""
    logits = np.asarray(logits, dtype=float).ravel()
    if not np.isfinite(logits).all():
        raise ValueError("logits must be finite")
    probs = softmax(logits)
    # the running sums of np.cumsum, and np.searchsorted(side="right")
    cdf = list(accumulate(probs.tolist()))
    cdf[-1] = 1.0
    # rng.random() < 1.0 == cdf[-1], so the index is at most len(probs) - 1
    return bisect_right(cdf, rng.random()), probs


def clip_grads(grads: np.ndarray, max_norm: float, splits: list[int]
               ) -> np.ndarray:
    """Bound each row of the ``(R, P)`` gradient buffer ``grads`` to an L2
    norm of ``max_norm``.  ``splits`` are the net's parameter array bounds
    (``Mlp.splits``): each array's squares are summed on their own, then
    the sums in order.  Returns ``grads`` itself when no row is over the
    bound; else a scaled copy, whose rows within it are multiplied by 1.0."""
    sq = np.square(grads)                    # g * g
    per_array = [np.add.reduce(sq[:, lo:hi], axis=1).tolist()
                 for lo, hi in zip(splits, splits[1:])]
    totals = [math.sqrt(sum(row)) for row in zip(*per_array)]
    if all(total <= max_norm for total in totals):
        return grads
    scale = [1.0 if total <= max_norm else max_norm / total for total in totals]
    return grads * np.array(scale)[:, None]


class Adam:
    """Adaptive-moment optimizer with bias correction over one flat float64
    buffer, such as an ``Mlp.flat``, which ``step`` updates in place.

    It keeps one row of moments per learning rate in ``lrs``, all on one
    step count: R optimizers of the same buffer, stepped together."""

    def __init__(self, flat: np.ndarray, lrs: tuple[float, ...]) -> None:
        self.flat = flat
        self.t = 0
        self.lrs = np.array(lrs, dtype=float)[:, None]
        self.m = np.zeros((len(lrs), flat.size))
        self.v = np.zeros_like(self.m)
        self._scratch = np.empty_like(self.m)

    def step(self, grads: np.ndarray) -> None:
        """One update from ``grads``, one row per row of moments; each row
        covers the buffer's floats in order.  ``grads`` is overwritten.
        A non-finite gradient rejects the whole step."""
        if not np.isfinite(grads).all():
            raise FloatingPointError("non-finite gradient; step rejected")
        m, v, s, g = self.m, self.v, self._scratch, grads
        self.t += 1
        bc1 = 1.0 - BETA1 ** self.t
        bc2 = 1.0 - BETA2 ** self.t
        # each operation below is the in-place form of, with the same
        # rounding as, m = b1*m + (1-b1)*g and v = b2*v + ((1-b2)*g)*g, then
        # flat -= (lr*(m/bc1)) / (sqrt(v/bc2) + eps), row by row
        m *= BETA1
        np.multiply(g, 1.0 - BETA1, out=s)
        m += s
        v *= BETA2
        np.multiply(g, 1.0 - BETA2, out=s)
        s *= g
        v += s
        if bc2 == 1.0:                   # from t = 37 412 on; v / 1.0 == v
            np.sqrt(v, out=s)
        else:
            np.divide(v, bc2, out=s)
            np.sqrt(s, out=s)
        s += EPS
        if bc1 == 1.0:                   # from t = 356 on; m / 1.0 == m
            np.multiply(m, self.lrs, out=g)
        else:
            np.divide(m, bc1, out=g)
            g *= self.lrs
        g /= s
        for row in g:
            self.flat -= row


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
