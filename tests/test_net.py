import time

import numpy as np
import pytest

from slicesched.net import (Adam, Mlp, clip_grads, load_arrays, save_arrays,
                            softmax, softmax_categorical)


def _flat(arrays):
    return np.concatenate([a.ravel() for a in arrays])


def _backward(net, trace, dout):
    """``net.backward`` into a fresh NaN-filled gradient row, returned."""
    row = np.full(net.flat.size, np.nan)
    net.backward(trace, dout, net.views(row))
    return row


def _numeric_grad(net, x, loss_of_output, step=1e-5):
    """Central finite differences of loss(net(x)) over every parameter."""
    grads = []
    for arr in net.params:
        g = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + step
            hi = loss_of_output(net.forward(x)[0])
            arr[idx] = orig - step
            lo = loss_of_output(net.forward(x)[0])
            arr[idx] = orig
            g[idx] = (hi - lo) / (2 * step)
            it.iternext()
        grads.append(g)
    return grads


def test_forward_zero_parameters():
    net = Mlp([3, 4, 2], np.random.default_rng(0))
    net.set_params([np.zeros_like(p) for p in net.params])
    out, _ = net.forward(np.array([1.0, -2.0, 3.0]))
    assert np.array_equal(out, np.zeros((1, 2)))


def test_forward_identity_linear_layer():
    net = Mlp([2, 2], np.random.default_rng(0))
    net.set_params([np.eye(2), np.zeros(2)])
    out, _ = net.forward(np.array([0.3, -0.7]))
    assert np.allclose(out, [[0.3, -0.7]])


def test_forward_rejects_bad_width():
    net = Mlp([3, 2], np.random.default_rng(0))
    with pytest.raises(ValueError):
        net.forward(np.ones(4))


def test_set_params_shape_check():
    net = Mlp([3, 2], np.random.default_rng(0))
    with pytest.raises(ValueError):
        net.set_params([np.ones((2, 3)), np.zeros(2)])


def test_backward_zero_output_gradient():
    net = Mlp([3, 4, 2], np.random.default_rng(0))
    out, trace = net.forward(np.ones(3))
    assert np.all(_backward(net, trace, np.zeros_like(out)) == 0)  # all written


def test_backward_single_linear_neuron():
    net = Mlp([3, 1], np.random.default_rng(0))
    net.set_params([np.array([[2.0], [3.0], [4.0]]), np.zeros(1)])
    x = np.array([0.5, -1.0, 2.0])
    _, trace = net.forward(x)
    grads = net.views(_backward(net, trace, np.array([[1.0]])))
    assert np.allclose(grads[0].ravel(), x)      # dy/dw = x
    assert np.allclose(grads[1], [1.0])          # dy/db = 1


def test_gradients_match_finite_differences():
    """Analytic backprop vs central differences on many random small nets."""
    rng = np.random.default_rng(42)
    t0 = time.time()
    worst = 0.0
    for _ in range(24):
        sizes = [int(rng.integers(2, 5)) for _ in range(3)] + [3]
        net = Mlp(sizes, rng)
        x = rng.normal(size=(2, sizes[0]))
        w = rng.normal(size=3)

        def loss_of_output(out):
            return float(np.sum(np.tanh(out) @ w))

        out, trace = net.forward(x)
        dout = (1.0 - np.tanh(out) ** 2) * w
        analytic = _backward(net, trace, dout)
        numeric = _flat(_numeric_grad(net, x, loss_of_output))
        denom = np.maximum(np.abs(numeric), 1e-6)
        worst = max(worst, float(np.max(np.abs(analytic - numeric) / denom)))
    assert worst < 1e-4
    assert time.time() - t0 < 10.0


def _act(name, z):
    return np.tanh(z) if name == "tanh" else z


def _act_grad(name, z, a):
    return 1.0 - a * a if name == "tanh" else np.ones_like(z)


def _dispatch_forward(net, activations, x):
    """The forward pass of the net with a per-layer activation table, before
    its shape was fixed to tanh hidden layers and a linear output.  Oracle
    for ``Mlp.forward``; returns the output and (x, pre, post)."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    pre, post = [], []
    h = x
    for w, b, act in zip(net.weights, net.biases, activations):
        z = h @ w + b
        h = _act(act, z)
        pre.append(z)
        post.append(h)
    return h, (x, pre, post)


def _dispatch_backward(net, activations, trace, dout):
    """The matching backward pass.  Oracle for ``Mlp.backward``."""
    x, pre, post = trace
    grads = [None] * (2 * len(net.weights))
    delta = np.atleast_2d(np.asarray(dout, dtype=float))
    for layer in reversed(range(len(net.weights))):
        delta = delta * _act_grad(activations[layer], pre[layer], post[layer])
        inp = x if layer == 0 else post[layer - 1]
        grads[2 * layer] = inp.T @ delta
        grads[2 * layer + 1] = delta.sum(axis=0)
        if layer > 0:
            delta = delta @ net.weights[layer].T
    return grads


@pytest.mark.parametrize("batch", [1, 64])
@pytest.mark.parametrize("hidden", [0, 1, 2, 3])
def test_mlp_bit_exact_against_dispatch_oracle(hidden, batch):
    """Outputs and gradients of the fixed tanh/linear net match the
    activation-table forward and backward byte for byte."""
    rng = np.random.default_rng(100 + 10 * hidden + batch)
    for _ in range(5):
        sizes = [int(rng.integers(2, 30)) for _ in range(hidden + 2)]
        net = Mlp(sizes, rng)
        activations = ["tanh"] * hidden + ["identity"]
        x = rng.normal(scale=2.0, size=(batch, sizes[0]))
        if batch == 1:
            x = x[0]                  # the learners' single-row call
        dout = rng.normal(size=(batch, sizes[-1]))
        out, trace = net.forward(x)
        want, want_trace = _dispatch_forward(net, activations, x)
        assert out.tobytes() == want.tobytes()
        # the trace is each layer's input, then the output
        x_2d, _, post = want_trace
        assert len(trace) == len(sizes) and trace[-1] is out
        assert [a.tobytes() for a in trace] == \
            [a.tobytes() for a in (x_2d, *post)]
        got = net.views(_backward(net, trace, dout))
        expected = _dispatch_backward(net, activations, want_trace, dout)
        assert len(got) == len(expected)
        for g, e in zip(got, expected):
            assert g.shape == e.shape and g.tobytes() == e.tobytes()


def test_softmax_uniform_and_shift_invariance():
    assert np.allclose(softmax(np.zeros(5)), np.full(5, 0.2))
    logits = np.random.default_rng(0).normal(size=7)
    assert np.allclose(softmax(logits), softmax(logits + 123.4))
    assert softmax(logits).sum() == pytest.approx(1.0, abs=1e-12)


def test_softmax_dominant_logit():
    probs = softmax(np.array([50.0, 0.0, 0.0]))
    assert probs[0] > 0.999999


def test_categorical_sampling_frequencies():
    rng = np.random.default_rng(1)
    logits = np.array([0.0, 1.0, 2.0])
    expected = softmax(logits)
    counts = np.zeros(3)
    n = 100_000
    for _ in range(n):
        counts[softmax_categorical(logits, rng)[0]] += 1
    assert np.all(np.abs(counts / n - expected) < 0.01)


def test_categorical_rejects_nonfinite():
    with pytest.raises(ValueError):
        softmax_categorical(np.array([np.inf, 0.0]), np.random.default_rng(0))


class _Uniform:
    """A generator stand-in whose ``random()`` returns one given value."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


def test_sampler_matches_cumsum_searchsorted():
    """The Python inverse CDF picks the index that ``np.cumsum`` and
    ``np.searchsorted(side="right")`` pick, uniforms on a CDF entry
    included, and draws one uniform per call."""
    rng = np.random.default_rng(23)
    mine, theirs = np.random.default_rng(24), np.random.default_rng(24)
    on_entry = 0
    for i in range(10_000):
        n = (3, 19)[i % 2]
        logits = rng.normal(scale=(0.1, 3.0, 40.0)[i % 3], size=n)
        probs = softmax(logits)
        cdf = np.cumsum(probs)
        cdf[-1] = 1.0
        if i % 4 < 2:                # a uniform that is a CDF entry
            u = float(cdf[rng.integers(n - 1)])
            got, got_probs = softmax_categorical(logits, _Uniform(u))
            on_entry += 1
        else:
            got, got_probs = softmax_categorical(logits, mine)
            u = theirs.random()
        assert got == int(np.searchsorted(cdf, u, side="right"))
        assert got_probs.tobytes() == probs.tobytes()
    assert on_entry == 5_000
    assert mine.bit_generator.state == theirs.bit_generator.state


def _clip_oracle(grads, max_norm):
    """``clip_grads`` on one gradient list, before the gradients moved into
    a buffer of rows."""
    total = np.sqrt(sum(float(np.sum(g * g)) for g in grads))
    if total <= max_norm:
        return grads
    scale = max_norm / total
    return [g * scale for g in grads]


def test_clip_grads():
    splits = [0, 1, 2]
    grads = np.array([[3.0, 4.0], [0.3, 0.4]])      # row norms 5 and 0.5
    assert clip_grads(grads, 10.0, splits) is grads  # unclipped: the input
    clipped = clip_grads(grads, 1.0, splits)
    assert clipped is not grads
    assert np.array_equal(grads, [[3.0, 4.0], [0.3, 0.4]])
    assert np.linalg.norm(clipped[0]) == pytest.approx(1.0)
    assert clipped[1].tobytes() == grads[1].tobytes()   # within the bound


@pytest.mark.parametrize("rows", [1, 2])
def test_clip_grads_bit_exact_against_per_array_oracle(rows):
    """Each row is clipped as the per-array clip clips its gradient list,
    byte for byte: arrays of up to 841 floats, where NumPy's pairwise sums
    differ from running sums, and bounds on both sides of the norms."""
    rng = np.random.default_rng(30 + rows)
    for _ in range(200):
        net = Mlp([int(rng.integers(1, 30)) for _ in range(3)], rng)
        grads = rng.normal(scale=10.0 ** rng.integers(-3, 3),
                           size=(rows, net.flat.size))
        max_norm = float(np.linalg.norm(grads[0])) * rng.uniform(0.5, 1.5)
        got = clip_grads(grads, max_norm, net.splits)
        for row, got_row in zip(grads, got):
            want = _flat(_clip_oracle(net.views(row), max_norm))
            assert got_row.tobytes() == want.tobytes()


def test_adam_zero_gradient_is_noop():
    flat = np.array([1.0, 2.0])
    opt = Adam(flat, (0.1,))
    opt.step(np.zeros((1, 2)))
    assert opt.flat is flat                      # stepped in place
    assert np.array_equal(flat, [1.0, 2.0])


def test_adam_first_step_magnitude():
    # With bias correction the very first step has magnitude ~ lr.
    flat = np.zeros(1)
    Adam(flat, (0.01,)).step(np.array([[3.7]]))
    assert abs(flat[0]) == pytest.approx(0.01, rel=1e-6)


def test_adam_rejects_nonfinite_gradient():
    flat = np.zeros(2)
    with pytest.raises(FloatingPointError):
        Adam(flat, (0.1,)).step(np.array([[0.0, np.nan]]))
    assert np.array_equal(flat, [0.0, 0.0])


def test_adam_nonfinite_critic_row_rejects_the_whole_step():
    """A NaN in the second row leaves the buffer, both rows of moments and
    the step count as they were: the first row is not applied either."""
    rng = np.random.default_rng(8)
    flat = rng.normal(size=6)
    opt = Adam(flat, (0.1, 0.2))
    opt.step(rng.normal(size=(2, 6)))
    before = [a.tobytes() for a in (flat, opt.m, opt.v)]
    grads = rng.normal(size=(2, 6))
    grads[1, 4] = np.nan
    with pytest.raises(FloatingPointError):
        opt.step(grads)
    assert [a.tobytes() for a in (flat, opt.m, opt.v)] == before
    assert opt.t == 1


def test_adam_deterministic():
    def run():
        rng = np.random.default_rng(3)
        flat = rng.normal(size=4)
        opt = Adam(flat, (1e-3,))
        for _ in range(50):
            opt.step(rng.normal(size=(1, 4)))
        return flat
    assert np.array_equal(run(), run())


class _AllocatingAdam:
    """The optimizer before parameters moved into one flat buffer: fresh
    moment and parameter arrays per array and step.  Oracle for ``Adam``."""

    def __init__(self, beta1=0.9, beta2=0.999, eps=1e-8):
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m = self.v = None

    def step(self, params, grads, lr):
        if self.m is None:
            self.m = [np.zeros_like(p) for p in params]
            self.v = [np.zeros_like(p) for p in params]
        self.t += 1
        out = []
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for i, (p, g) in enumerate(zip(params, grads)):
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * g * g
            m_hat = self.m[i] / bc1
            v_hat = self.v[i] / bc2
            out.append(p - lr * m_hat / (np.sqrt(v_hat) + self.eps))
        return out


def test_adam_bit_exact_against_allocating_oracle():
    """400 steps of two rows of moments, each with its own learning rate,
    match two allocating optimizers that step the net one after the other,
    array by array, bit for bit: the parameters and both rows of moments.
    The steps pass t = 356, from which 1 - 0.9**t is 1.0."""
    rng = np.random.default_rng(5)
    net = Mlp([4, 6, 5, 3], rng)
    expected = [p.copy() for p in net.params]
    lrs = (1e-3, 3e-4)
    oracles, opt = (_AllocatingAdam(), _AllocatingAdam()), Adam(net.flat, lrs)
    for t in range(400):
        rows = []
        for oracle, lr in zip(oracles, lrs):
            grads = [rng.normal(scale=10.0 ** rng.integers(-3, 3), size=p.shape)
                     for p in expected]
            if t % 7 == 0:
                grads[1][:] = 0.0
            expected = oracle.step(expected, grads, lr=lr)
            rows.append(_flat(grads))
        opt.step(np.array(rows))
        assert opt.t == t + 1
        for got, want in zip(net.params, expected):
            assert got.tobytes() == want.tobytes()
        for r, oracle in enumerate(oracles):
            assert opt.m[r].tobytes() == _flat(oracle.m).tobytes()
            assert opt.v[r].tobytes() == _flat(oracle.v).tobytes()


def test_adam_bit_exact_against_allocating_oracle_past_bc2_rounding():
    """A small buffer stepped 37 450 times matches the allocating optimizer
    bit for bit, so the steps from t = 37 412 on, where 1 - 0.999**t is
    1.0 and the division by it is skipped, are compared too."""
    assert 1.0 - 0.999 ** 37_411 < 1.0 == 1.0 - 0.999 ** 37_412
    rng = np.random.default_rng(6)
    grads = rng.normal(size=(37_450, 1, 3)) * 10.0 ** rng.integers(-3, 3, (37_450, 1, 1))
    grads[::7, :, 1] = 0.0
    flat = rng.normal(size=3)
    expected = [flat.copy()]
    oracle, opt = _AllocatingAdam(), Adam(flat, (1e-3,))
    for t, g in enumerate(grads, start=1):
        expected = oracle.step(expected, [g[0]], lr=1e-3)
        opt.step(g.copy())
        if t >= 37_400 or t % 1000 == 0:
            assert flat.tobytes() == expected[0].tobytes(), t
            assert opt.m.tobytes() == oracle.m[0].tobytes(), t
            assert opt.v.tobytes() == oracle.v[0].tobytes(), t
    assert opt.t == 37_450


def test_mlp_params_are_views_of_flat_buffer():
    net = Mlp([3, 4, 2], np.random.default_rng(0))
    assert net.flat.size == sum(p.size for p in net.params)
    assert all(np.shares_memory(p, net.flat) for p in net.params)
    assert np.array_equal(net.flat, np.concatenate([p.ravel() for p in net.params]))
    net.set_params([np.full(p.shape, float(i)) for i, p in enumerate(net.params)])
    assert np.all(net.biases[0] == 1.0) and np.all(net.weights[1] == 2.0)
    assert np.shares_memory(net.weights[1], net.flat)
    # a gradient row is laid out the same way
    assert net.splits == [0, 12, 16, 24, 26]
    row = np.arange(float(net.flat.size))
    assert [v.shape for v in net.views(row)] == [p.shape for p in net.params]
    assert np.array_equal(_flat(net.views(row)), row)


def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    arrays = [rng.normal(size=(3, 5)), rng.normal(size=5), np.array(2.5)]
    meta = {"kind": "test", "n": 3}
    path = tmp_path / "ckpt.bin"
    save_arrays(path, arrays, meta)
    loaded, got_meta = load_arrays(path)
    assert got_meta == meta
    for a, b in zip(arrays, loaded):
        assert a.shape == b.shape
        assert a.tobytes() == b.tobytes()      # bit-exact


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ValueError, match="magic"):
        load_arrays(path)


def test_checkpoint_corruption_detected(tmp_path):
    path = tmp_path / "ckpt.bin"
    save_arrays(path, [np.ones(4)], {})
    blob = bytearray(path.read_bytes())
    blob[12] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match="checksum"):
        load_arrays(path)
