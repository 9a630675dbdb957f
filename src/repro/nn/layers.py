"""Trainable and structural layers.

Every layer follows a build/bind/forward/backward protocol designed around
the packed parameter buffer of Section 5.2:

1. ``build(input_shape)`` infers the output shape and declares parameter
   specs (name, shape, initializer, fan-in/out) — no allocation yet.
2. The owning :class:`repro.nn.network.Network` allocates ONE contiguous
   float32 buffer for all parameters (and one for all gradients) and calls
   ``bind`` with per-parameter views into it.
3. ``forward``/``backward`` operate batch-at-a-time; ``backward`` writes
   parameter gradients into the bound views and returns the input gradient.

Shapes exclude the batch dimension: ``input_shape`` is e.g. ``(C, H, W)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.nn.tensor_ops import col2im, conv_output_size, im2col

__all__ = [
    "ParamSpec",
    "Layer",
    "Dense",
    "Conv2D",
    "MaxPool2D",
    "AvgPool2D",
    "Flatten",
]


@dataclass(frozen=True)
class ParamSpec:
    """Declaration of one trainable tensor within a layer."""

    name: str
    shape: Tuple[int, ...]
    init: str  # key into repro.nn.init.INITIALIZERS
    fan_in: int
    fan_out: int

    @property
    def size(self) -> int:
        return int(np.prod(self.shape))


class Layer:
    """Base layer. Subclasses override ``build``, ``forward``, ``backward``."""

    def __init__(self, name: Optional[str] = None) -> None:
        self.name = name or type(self).__name__
        self.built = False
        self.input_shape: Optional[Tuple[int, ...]] = None
        self.output_shape: Optional[Tuple[int, ...]] = None
        self.params: Dict[str, np.ndarray] = {}
        self.grads: Dict[str, np.ndarray] = {}

    # -- construction -----------------------------------------------------
    def build(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        """Infer the output shape; default is shape-preserving."""
        self.input_shape = tuple(input_shape)
        self.output_shape = tuple(input_shape)
        self.built = True
        return self.output_shape

    def param_specs(self) -> List[ParamSpec]:
        """Parameter declarations; default: parameter-free layer."""
        return []

    def bind(self, params: Dict[str, np.ndarray], grads: Dict[str, np.ndarray]) -> None:
        """Attach parameter/gradient views allocated by the network."""
        self.params = params
        self.grads = grads

    # -- execution ---------------------------------------------------------
    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, dy: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    # -- cost accounting ---------------------------------------------------
    def flops_per_sample(self) -> int:
        """Approximate forward-pass FLOPs per input sample (multiply-adds x2).

        Used by the simulated clock; backward is modeled as 2x forward.
        """
        return 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r}, out={self.output_shape})"


class Dense(Layer):
    """Fully-connected layer: ``y = x @ W + b`` over flattened features."""

    def __init__(self, units: int, name: Optional[str] = None) -> None:
        super().__init__(name)
        if units <= 0:
            raise ValueError("units must be positive")
        self.units = units
        self._x: Optional[np.ndarray] = None

    def build(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        if len(input_shape) != 1:
            raise ValueError(
                f"Dense expects flat input, got {input_shape}; add Flatten first"
            )
        self.input_shape = tuple(input_shape)
        self.output_shape = (self.units,)
        self.built = True
        return self.output_shape

    def param_specs(self) -> List[ParamSpec]:
        (fan_in,) = self.input_shape
        return [
            ParamSpec("W", (fan_in, self.units), "xavier", fan_in, self.units),
            ParamSpec("b", (self.units,), "zeros", fan_in, self.units),
        ]

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._x = x if training else None
        return x @ self.params["W"] + self.params["b"]

    def backward(self, dy: np.ndarray, input_grad: bool = True) -> Optional[np.ndarray]:
        """Accumulate W/b gradients; return the input gradient, or ``None``
        without computing it when ``input_grad`` is false."""
        if self._x is None:
            raise RuntimeError("backward called without a training-mode forward")
        self.grads["W"] += self._x.T @ dy
        self.grads["b"] += dy.sum(axis=0)
        return dy @ self.params["W"].T if input_grad else None

    def flops_per_sample(self) -> int:
        (fan_in,) = self.input_shape
        return 2 * fan_in * self.units


class Conv2D(Layer):
    """2-D convolution via im2col + GEMM, with AlexNet-style channel groups.

    Input ``(N, C, H, W)``; weight ``(out_channels, C/groups, kh, kw)``;
    output ``(N, out_channels, H', W')``. ``groups > 1`` splits input and
    output channels into independent groups (AlexNet's two-GPU legacy
    layout for conv2/4/5, which the full-scale ModelSpec also uses).
    """

    def __init__(
        self,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        pad: int = 0,
        groups: int = 1,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(name)
        if out_channels <= 0 or kernel_size <= 0 or stride <= 0 or pad < 0:
            raise ValueError("invalid Conv2D hyperparameters")
        if groups <= 0 or out_channels % groups != 0:
            raise ValueError("groups must be positive and divide out_channels")
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.pad = pad
        self.groups = groups
        self._cols: Optional[List[np.ndarray]] = None
        self._x_shape: Optional[Tuple[int, ...]] = None
        # Training-path scratch reused across steps while shapes are static
        # (the common case: fixed batch size). Keyed by role so a batch-size
        # change just replaces the buffer. Private per replica — Network.clone
        # deep-copies layers — so thread-backend ranks never share scratch.
        self._ws: dict = {}

    def _workspace(self, key: object, shape: Tuple[int, ...], dtype) -> np.ndarray:
        """The reusable buffer for ``key``, reallocated only on shape change.

        Contents are unspecified (previous step's data); every consumer
        overwrites it fully.
        """
        buf = self._ws.get(key)
        if buf is None or buf.shape != shape or buf.dtype != dtype:
            buf = self._ws[key] = np.empty(shape, dtype=dtype)
        return buf

    def build(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        if len(input_shape) != 3:
            raise ValueError(f"Conv2D expects (C, H, W) input, got {input_shape}")
        c, h, w = input_shape
        if c % self.groups != 0:
            raise ValueError(
                f"input channels {c} not divisible into {self.groups} groups"
            )
        out_h = conv_output_size(h, self.kernel_size, self.stride, self.pad)
        out_w = conv_output_size(w, self.kernel_size, self.stride, self.pad)
        self.input_shape = tuple(input_shape)
        self.output_shape = (self.out_channels, out_h, out_w)
        self.built = True
        return self.output_shape

    def param_specs(self) -> List[ParamSpec]:
        c, _, _ = self.input_shape
        k = self.kernel_size
        cg = c // self.groups
        fan_in = cg * k * k
        fan_out = (self.out_channels // self.groups) * k * k
        return [
            ParamSpec("W", (self.out_channels, cg, k, k), "he", fan_in, fan_out),
            ParamSpec("b", (self.out_channels,), "zeros", fan_in, fan_out),
        ]

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        n = x.shape[0]
        k = self.kernel_size
        out_c, out_h, out_w = self.output_shape
        c = self.input_shape[0]
        cg, og = c // self.groups, out_c // self.groups

        cols_per_group: List[np.ndarray] = []
        outputs = []
        for g in range(self.groups):
            xg = x[:, g * cg : (g + 1) * cg]
            # Training forwards unfold into a per-group workspace reused
            # across steps (static shapes allocate only once); inference
            # batches vary in size, so they take the allocating path and
            # leave the training workspace untouched.
            ws = (
                self._workspace(("cols", g), (n * out_h * out_w, cg * k * k), x.dtype)
                if training
                else None
            )
            cols = im2col(xg, k, k, self.stride, self.pad, out=ws)  # (N*oh*ow, cg*k*k)
            w_mat = self.params["W"][g * og : (g + 1) * og].reshape(og, -1)
            bg = self.params["b"][g * og : (g + 1) * og]
            outputs.append(cols @ w_mat.T + bg)  # (N*oh*ow, og)
            cols_per_group.append(cols)
        y = np.concatenate(outputs, axis=1)  # (N*oh*ow, out_c)

        if training:
            self._cols = cols_per_group
            self._x_shape = x.shape
        else:
            self._cols = None
            self._x_shape = None
        return y.reshape(n, out_h, out_w, out_c).transpose(0, 3, 1, 2)

    def backward(self, dy: np.ndarray, input_grad: bool = True) -> Optional[np.ndarray]:
        """Accumulate W/b gradients; return the input gradient, or ``None``
        without the ``dcols`` GEMM and ``col2im`` when ``input_grad`` is
        false."""
        if self._cols is None or self._x_shape is None:
            raise RuntimeError("backward called without a training-mode forward")
        n, out_c, out_h, out_w = dy.shape
        k = self.kernel_size
        c = self.input_shape[0]
        cg, og = c // self.groups, out_c // self.groups
        dy_mat = dy.transpose(0, 2, 3, 1).reshape(-1, out_c)  # (N*oh*ow, out_c)

        dx = self._workspace(("dx",), self._x_shape, dy.dtype) if input_grad else None
        group_x_shape = (n, cg) + self._x_shape[2:]
        h, w = self._x_shape[2], self._x_shape[3]
        padded_shape = (n, cg, h + 2 * self.pad, w + 2 * self.pad)
        for g in range(self.groups):
            dyg = dy_mat[:, g * og : (g + 1) * og]
            w_view = self.params["W"][g * og : (g + 1) * og]
            self.grads["W"][g * og : (g + 1) * og] += (
                dyg.T @ self._cols[g]
            ).reshape(w_view.shape)
            self.grads["b"][g * og : (g + 1) * og] += dyg.sum(axis=0)
            if dx is None:
                continue
            dcols = dyg @ w_view.reshape(og, -1)  # (N*oh*ow, cg*k*k)
            # col2im zeroes and scatter-adds into the reused padded scratch;
            # its return aliases that scratch, so copy into dx immediately.
            dx[:, g * cg : (g + 1) * cg] = col2im(
                dcols, group_x_shape, k, k, self.stride, self.pad,
                out=self._workspace(("col2im", g), padded_shape, dy.dtype),
            )
        return dx

    def flops_per_sample(self) -> int:
        c, _, _ = self.input_shape
        out_c, out_h, out_w = self.output_shape
        k = self.kernel_size
        return 2 * out_c * out_h * out_w * (c // self.groups) * k * k


class _Pool2D(Layer):
    """Shared machinery for max/avg pooling over square windows."""

    def __init__(self, pool_size: int, stride: Optional[int] = None, name: Optional[str] = None) -> None:
        super().__init__(name)
        if pool_size <= 0:
            raise ValueError("pool_size must be positive")
        self.pool_size = pool_size
        self.stride = stride or pool_size

    def build(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        if len(input_shape) != 3:
            raise ValueError(f"pooling expects (C, H, W) input, got {input_shape}")
        c, h, w = input_shape
        out_h = conv_output_size(h, self.pool_size, self.stride, 0)
        out_w = conv_output_size(w, self.pool_size, self.stride, 0)
        self.input_shape = tuple(input_shape)
        self.output_shape = (c, out_h, out_w)
        self.built = True
        return self.output_shape

    def _windows(self, x: np.ndarray) -> np.ndarray:
        """(N, C, oh, ow, p, p) strided view of pooling windows."""
        view = np.lib.stride_tricks.sliding_window_view(
            x, (self.pool_size, self.pool_size), axis=(2, 3)
        )
        return view[:, :, :: self.stride, :: self.stride, :, :]

    def _at(self, a: np.ndarray, k: int) -> np.ndarray:
        """(N, C, oh, ow) strided view of ``a`` at row-major in-window
        offset ``k`` of every window."""
        i, j = divmod(k, self.pool_size)
        _, oh, ow = self.output_shape
        s = self.stride
        return a[:, :, i : i + s * oh : s, j : j + s * ow : s]


class MaxPool2D(_Pool2D):
    """Max pooling; gradient routes to the argmax element of each window.

    Forward and backward loop over the p*p in-window offsets, one
    vectorized pass per offset over every window at once. Outputs and
    input gradients are C-contiguous whatever the input's layout: layers
    downstream (BatchNorm's sums) reduce in memory order, so handing them
    another layout would change their bytes.
    """

    def __init__(self, pool_size: int, stride: Optional[int] = None, name: Optional[str] = None) -> None:
        super().__init__(pool_size, stride, name)
        self._x_shape: Optional[Tuple[int, ...]] = None
        # Row-major in-window offset of each window's max (np.argmax's).
        self._argmax: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        offsets = self.pool_size * self.pool_size
        best = np.empty((x.shape[0],) + self.output_shape, dtype=x.dtype)
        best[...] = self._at(x, 0)
        if not training:
            # A running np.maximum is the windows' max reduction: a tie
            # goes to the later offset and the first NaN wins.
            for k in range(1, offsets):
                np.maximum(best, self._at(x, k), out=best)
            return best

        # np.argmax's rule: offset k takes over where it is strictly
        # greater, or NaN over a non-NaN best, so a tie keeps the first.
        # The selects are bitwise: a masked copy (``where=``) on a random
        # mask costs about five times as much.
        uint = np.dtype(f"u{x.dtype.itemsize}")
        argmax = np.zeros(best.shape, dtype=np.min_scalar_type(offsets - 1))
        cur = np.empty_like(best)
        take = np.empty(best.shape, dtype=bool)
        mask = np.empty(best.shape, dtype=uint)
        best_bits, cur_bits = best.view(uint), cur.view(uint)
        for k in range(1, offsets):
            cur[...] = self._at(x, k)
            np.less_equal(cur, best, out=take)
            np.logical_not(take, out=take)
            take &= best == best
            np.maximum(argmax, take * argmax.dtype.type(k), out=argmax)
            np.negative(take, out=mask, dtype=uint, casting="unsafe")  # all ones where taken
            cur_bits ^= best_bits
            cur_bits &= mask
            best_bits ^= cur_bits
        self._x_shape = x.shape
        self._argmax = argmax
        return best

    def backward(self, dy: np.ndarray) -> np.ndarray:
        if self._x_shape is None or self._argmax is None:
            raise RuntimeError("backward called without a training-mode forward")
        dx = np.zeros(self._x_shape, dtype=dy.dtype)
        # Offset k adds dy where the window's max sits at k and -0.0, the
        # exact additive identity, elsewhere. Descending offsets add each
        # cell's overlapping windows in ascending window order, the order
        # of the scatter-add this replaces, so the sums match bit for bit.
        uint = np.dtype(f"u{dy.dtype.itemsize}")
        sign = np.array(-0.0, dtype=dy.dtype).view(uint)
        dy_flipped = dy.view(uint) ^ sign
        mask = np.empty(dy.shape, dtype=uint)
        part = np.empty(dy.shape, dtype=uint)
        for k in reversed(range(self.pool_size * self.pool_size)):
            np.negative(self._argmax == k, out=mask, dtype=uint, casting="unsafe")
            np.bitwise_and(dy_flipped, mask, out=part)
            part ^= sign
            view = self._at(dx, k)
            view += part.view(dy.dtype)
        return dx


class AvgPool2D(_Pool2D):
    """Average pooling; gradient spreads uniformly over each window."""

    def __init__(self, pool_size: int, stride: Optional[int] = None, name: Optional[str] = None) -> None:
        super().__init__(pool_size, stride, name)
        self._x_shape: Optional[Tuple[int, ...]] = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if training:
            self._x_shape = x.shape
        return self._windows(x).mean(axis=(-2, -1))

    def backward(self, dy: np.ndarray) -> np.ndarray:
        if self._x_shape is None:
            raise RuntimeError("backward called without a training-mode forward")
        p = self.pool_size
        share = dy / (p * p)
        dx = np.zeros(self._x_shape, dtype=dy.dtype)
        for k in range(p * p):
            view = self._at(dx, k)
            view += share
        return dx


class Flatten(Layer):
    """Collapse (C, H, W) features to a flat vector for Dense layers."""

    def build(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        self.input_shape = tuple(input_shape)
        self.output_shape = (int(np.prod(input_shape)),)
        self.built = True
        return self.output_shape

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        return x.reshape(x.shape[0], -1)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        return dy.reshape((dy.shape[0],) + self.input_shape)
