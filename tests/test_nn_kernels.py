"""Bit-level contracts of the training kernels in ``repro.nn``.

Two guards:

- Pinned digests of five training steps for every model builder, so any
  change to conv/pool/dense bytes (kernel order, memory layout, a skipped
  backward) shows up here rather than only in the MLP-only golden traces.
- A property test of ``MaxPool2D`` against the scatter-add implementation
  it replaced, byte for byte, over the inputs where the two could part:
  signed-zero ties, NaN, ``-0.0`` in ``dy``, ragged edges, overlapping and
  gapped windows, and non-contiguous inputs.
"""

import hashlib

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

from repro.nn import models
from repro.nn.layers import MaxPool2D
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.tensor_ops import col2im

#: sha256 prefix of (loss, grads) per step and the final params after five
#: SGD steps at lr 0.05 on batch-8 draws from default_rng(1234).
PINNED = {
    "build_mlp": "64ca27533092035f",
    "build_lenet": "e23b536dda4f703f",
    "build_alexnet_mini": "150b01f913a21e23",
    "build_vgg_mini": "260b698d5e9a9947",
    "build_googlenet_mini": "d7e42c940a0f619b",
    "build_resnet_mini": "8a7e75cd128475c9",
}


def _training_digest(builder: str) -> str:
    net = getattr(models, builder)(seed=0)
    rng = np.random.default_rng(1234)
    h = hashlib.sha256()
    for _ in range(5):
        x = rng.standard_normal((8,) + net.input_shape).astype(np.float32)
        y = rng.integers(0, 10, 8)
        v = net.gradient(x, y, SoftmaxCrossEntropy())
        h.update(np.float32(v).tobytes())
        h.update(net.grads.tobytes())
        net.set_params(net.params - np.float32(0.05) * net.grads)
    h.update(net.params.tobytes())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("builder", sorted(PINNED))
def test_training_digest_pinned(builder):
    assert _training_digest(builder) == PINNED[builder]


class TestGradientStopsAtFirstTrainableLayer:
    def test_lenet_skips_conv1_col2im(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[1])
            return col2im(*args, **kwargs)

        monkeypatch.setattr("repro.nn.layers.col2im", counting)
        net = models.build_lenet(seed=0)
        x = np.random.default_rng(0).standard_normal((4, 1, 28, 28)).astype(np.float32)
        net.gradient(x, np.arange(4))
        # Only conv2 unfolds its input gradient; conv1's would be d(images).
        assert calls == [(4, 8, 12, 12)]

    @pytest.mark.parametrize("builder", ["build_mlp", "build_lenet", "build_resnet_mini"])
    def test_same_grads_as_full_backward(self, builder):
        net = getattr(models, builder)(seed=0)
        rng = np.random.default_rng(3)
        x = rng.standard_normal((4,) + net.input_shape).astype(np.float32)
        y = rng.integers(0, 10, 4)
        loss = SoftmaxCrossEntropy()
        v = net.gradient(x, y, loss)
        fast = net.grads.copy()

        net.zero_grads()
        assert loss.forward(net.forward(x, training=True), y) == v
        dx = net.backward(loss.backward())
        assert dx.shape == x.shape  # the public backward still returns d(input)
        assert net.grads.tobytes() == fast.tobytes()


# -- max-pool reference: the scatter-add implementation MaxPool2D replaced --


def _ref_forward(x, p, s, training):
    windows = np.lib.stride_tricks.sliding_window_view(x, (p, p), axis=(2, 3))
    windows = windows[:, :, ::s, ::s, :, :]
    n, c, oh, ow, _, _ = windows.shape
    flat = windows.reshape(n, c, oh, ow, p * p)
    if training:
        argmax = flat.argmax(axis=-1)
        return np.take_along_axis(flat, argmax[..., None], axis=-1)[..., 0], argmax
    return flat.max(axis=-1), None


def _ref_backward(argmax, dy, x_shape, p, s):
    n, c, oh, ow = dy.shape
    dx = np.zeros(x_shape, dtype=dy.dtype)
    off_i = argmax // p
    off_j = argmax % p
    ni, ci, oi, oj = np.indices((n, c, oh, ow))
    np.add.at(dx, (ni, ci, oi * s + off_i, oj * s + off_j), dy)
    return dx


def _f32(bits):
    return np.array([bits], dtype=np.uint32).view(np.float32)[0]


# Signed zeros (ReLU's training output is x * (x > 0), so -0.0 ties +0.0),
# repeated values, the canonical NaN, the x86 default NaN and a payload NaN.
X_VALUES = np.array(
    [0.0, -0.0, 1.0, -1.0, 2.0, np.nan, _f32(0xFFC00000), _f32(0x7FC12345)],
    dtype=np.float32,
)
DY_FINITE = np.array([0.0, -0.0, 1.5, -0.25, 3.0, 1e-8, 1e8, -7.0], dtype=np.float32)
DY_NONFINITE = np.concatenate(
    [DY_FINITE, np.array([np.inf, -np.inf, np.nan, _f32(0x7FC12345)], dtype=np.float32)]
)


def _draw(rng, shape, values, nan_frac):
    """``values`` without NaN everywhere, then NaN at ``nan_frac`` of cells."""
    finite = values[~np.isnan(values)]
    out = rng.choice(finite, size=shape).astype(np.float32)
    nans = values[np.isnan(values)]
    mask = rng.random(shape) < nan_frac
    out[mask] = rng.choice(nans, size=int(mask.sum()))
    return out


def _layout(x, kind):
    if kind == "nhwc":  # the Conv2D output layout: NHWC memory, NCHW view
        return np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
    if kind == "strided":  # every other row of a taller buffer
        tall = np.empty(x.shape[:2] + (2 * x.shape[2], x.shape[3]), dtype=x.dtype)
        tall[:, :, ::2] = x
        return tall[:, :, ::2]
    return x


def _assert_same_bytes(a, b, nan_payloads_free):
    """Byte equality; with ``nan_payloads_free``, NaN positions must agree
    and every non-NaN byte must match, but a NaN's payload may differ.

    IEEE 754 leaves open which payload survives an operation on two NaNs,
    and numpy's own loops choose differently by layout: its contiguous
    max-reduce may return the canonical NaN for a window whose first
    element is NaN, and where two NaNs meet in one ``dx`` cell the
    scatter-add and a vectorized add may keep different ones.
    """
    assert a.shape == b.shape
    if not nan_payloads_free:
        assert a.tobytes() == b.tobytes()
        return
    nan_a, nan_b = np.isnan(a), np.isnan(b)
    assert np.array_equal(nan_a, nan_b)
    assert np.where(nan_a, 0, a).tobytes() == np.where(nan_b, 0, b).tobytes()


class TestMaxPoolMatchesScatterAdd:
    @given(
        p=st.integers(1, 3),
        s=st.integers(1, 4),
        n=st.integers(1, 2),
        c=st.integers(1, 3),
        extra_h=st.integers(0, 5),
        extra_w=st.integers(0, 5),
        x_nan_frac=st.sampled_from([0.0, 0.2]),
        finite_dy=st.booleans(),
        layout=st.sampled_from(["c", "nhwc", "strided"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_forward_backward_bytes(
        self, p, s, n, c, extra_h, extra_w, x_nan_frac, finite_dy, layout, seed
    ):
        rng = np.random.default_rng(seed)
        h, w = p + extra_h, p + extra_w
        x = _layout(_draw(rng, (n, c, h, w), X_VALUES, x_nan_frac), layout)
        layer = MaxPool2D(p, stride=s)
        layer.build((c, h, w))

        # Training forward: np.argmax's first-occurrence ties and NaN rule.
        y = layer.forward(x, training=True)
        ref_y, ref_argmax = _ref_forward(x, p, s, training=True)
        _assert_same_bytes(y, ref_y, nan_payloads_free=False)
        assert y.flags.c_contiguous

        dy_values = DY_FINITE if finite_dy else DY_NONFINITE
        dy = _layout(_draw(rng, y.shape, dy_values, 0.0 if finite_dy else 0.2), layout)
        with np.errstate(invalid="ignore"):  # inf + -inf where windows overlap
            dx = layer.backward(dy)
            ref_dx = _ref_backward(ref_argmax, dy, x.shape, p, s)
        _assert_same_bytes(dx, ref_dx, nan_payloads_free=not finite_dy)
        assert dx.flags.c_contiguous

        # Inference forward: np.max's later-offset ties and NaN rule.
        inf = layer.forward(x)
        ref_inf, _ = _ref_forward(x, p, s, training=False)
        _assert_same_bytes(inf, ref_inf, nan_payloads_free=x_nan_frac > 0)
        assert inf.flags.c_contiguous

    @given(p=st.integers(2, 3), s=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_after_relu(self, p, s, seed):
        # Real ReLU output in the Conv2D layout: mixed-sign zeros everywhere.
        rng = np.random.default_rng(seed)
        shape = (2, 2, p + 4, p + 3)
        pre = _layout(rng.standard_normal(shape).astype(np.float32), "nhwc")
        x = pre * (pre > 0)
        layer = MaxPool2D(p, stride=s)
        layer.build(shape[1:])
        y = layer.forward(x, training=True)
        ref_y, ref_argmax = _ref_forward(x, p, s, training=True)
        _assert_same_bytes(y, ref_y, nan_payloads_free=False)
        dy = _draw(rng, y.shape, DY_FINITE, 0.0)
        ref_dx = _ref_backward(ref_argmax, dy, x.shape, p, s)
        _assert_same_bytes(layer.backward(dy), ref_dx, nan_payloads_free=False)
        ref_inf, _ = _ref_forward(x, p, s, training=False)
        _assert_same_bytes(layer.forward(x), ref_inf, nan_payloads_free=False)
