"""Low-precision gradient quantization (paper Section 3.4 / future work).

The paper cites 1-bit SGD and low-precision training ([4], [8], [10], [22])
as a reserved future direction. We provide the standard uniform stochastic
quantizer as an *extension ablation*: benchmarks can measure the message-
size/accuracy trade-off it would add on top of Sync EASGD. It is not part
of any reproduced table or figure.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "quantize_gradient",
    "WIRE_DTYPES",
    "validate_wire_dtype",
    "encode_wire",
    "decode_wire",
    "round_to_wire",
]

#: Wire formats a rank runtime may put on the fabric. ``float32`` is the
#: identity (and the only format under which backends are bit-identical);
#: ``float16`` halves every collective's byte volume at ~3 decimal digits
#: of mantissa — the bandwidth x accuracy ablation of paper Section 3.4.
WIRE_DTYPES = ("float32", "float16")


def validate_wire_dtype(wire_dtype: str) -> str:
    """Return ``wire_dtype`` or raise a ValueError naming the valid choices."""
    if wire_dtype not in WIRE_DTYPES:
        raise ValueError(
            f"unknown wire dtype {wire_dtype!r}; expected one of {WIRE_DTYPES}"
        )
    return wire_dtype


def encode_wire(array: np.ndarray, wire_dtype: str) -> np.ndarray:
    """Cast ``array`` to the wire format (identity — no copy — for float32).

    Unlike :func:`quantize_gradient` this is an IEEE *format* conversion,
    not a level quantizer, so non-finite payloads are legal: NaN stays NaN,
    out-of-range magnitudes saturate to ±Inf, and float32 denormals (below
    float16's ~6e-8 subnormal floor) flush to signed zero. Collectives must
    stay total under fault-injected garbage, which is why the codec cannot
    share quantize_gradient's finite-only contract.
    """
    validate_wire_dtype(wire_dtype)
    if wire_dtype == "float32":
        return array
    return array.astype(np.float16)


def decode_wire(array: np.ndarray, wire_dtype: str) -> np.ndarray:
    """Widen a wire-format payload back to float32 (identity for float32).

    Every float16 value (including NaN/±Inf and subnormals) is exactly
    representable in float32, so decode is lossless; the information loss
    of the ablation happens entirely in :func:`encode_wire`.
    """
    validate_wire_dtype(wire_dtype)
    if wire_dtype == "float32":
        return array
    return array.astype(np.float32)


#: Elements per :func:`round_to_wire` chunk: 128 KB of float32, so a
#: chunk and its two scratch rows stay in L2 across the passes over it.
_ROUND_CHUNK = 1 << 15
_F32_EXP = np.uint32(0x7F800000)
#: float32 bits of 2^-14, float16's smallest normal: below it the half
#: ulp is the fixed subnormal step 2^-24.
_F16_MIN_EXP = np.uint32(0x38800000)
#: 13 in float32's exponent field: 2^(e+13) has a float32 ulp of 2^(e-10),
#: the float16 ulp at exponent e.
_F16_ULP_SHIFT = np.uint32(13 << 23)
#: Half of float16's max finite ulp past 65504: from here on a value
#: rounds to infinity.
_F16_OVERFLOW = np.float32(65520.0)


def round_to_wire(array: np.ndarray, wire_dtype: str) -> np.ndarray:
    """Round a float32 ``array`` in place to the values the wire carries.

    Bitwise equal to ``decode_wire(encode_wire(array, wire_dtype),
    wire_dtype)``, written back into ``array`` (returned), but with no
    float16 cast on the common path. Per chunk of finite values below
    65520, adding ``C = 2^(max(e, -14) + 13)`` to ``|x|`` puts float16's
    ulp on float32's last bit, so the hardware's round-to-nearest-even
    does the rounding and ``(|x| + C) - C`` is exact; ``copysign`` keeps
    the sign, -0.0 included. A chunk holding NaN, ±Inf or a value that
    overflows float16 goes through numpy's own cast instead, so NaN
    payloads and the overflow warning are exactly the codec's. Identity
    for ``float32``.
    """
    validate_wire_dtype(wire_dtype)
    if wire_dtype == "float32":
        return array
    if array.dtype != np.float32 or not array.flags.c_contiguous:
        raise TypeError(
            f"round_to_wire rounds C-contiguous float32 arrays in place, "
            f"got {array.dtype} (c_contiguous={array.flags.c_contiguous})"
        )
    flat = array.reshape(-1)
    n = min(_ROUND_CHUNK, flat.size)
    t = np.empty(n, dtype=np.float32)
    c = np.empty(n, dtype=np.uint32)
    for lo in range(0, flat.size, _ROUND_CHUNK):
        x = flat[lo : lo + _ROUND_CHUNK]
        ts, cs = t[: x.size], c[: x.size]
        np.abs(x, out=ts)
        if not ts.max() < _F16_OVERFLOW:
            x[...] = decode_wire(encode_wire(x, wire_dtype), wire_dtype)
            continue
        np.bitwise_and(x.view(np.uint32), _F32_EXP, out=cs)
        np.maximum(cs, _F16_MIN_EXP, out=cs)
        np.add(cs, _F16_ULP_SHIFT, out=cs)
        cf = cs.view(np.float32)
        np.add(ts, cf, out=ts)
        np.subtract(ts, cf, out=ts)
        np.copysign(ts, x, out=x)
    return array


def quantize_gradient(
    grad: np.ndarray, bits: int, rng: np.random.Generator | None = None
) -> tuple[np.ndarray, float]:
    """Uniform (optionally stochastic) quantization of a gradient vector.

    Returns ``(quantized, scale)`` where ``quantized`` has the same dtype as
    the input but only ``2**bits`` distinct magnitude levels; ``scale`` is
    the dequantization factor. With an ``rng``, rounding is stochastic and
    unbiased (E[q] = grad); without, deterministic round-to-nearest.
    """
    if not 1 <= bits <= 16:
        raise ValueError("bits must be in [1, 16]")
    levels = (1 << bits) - 1
    if grad.size == 0:
        return grad.copy(), 1.0
    max_abs = float(np.abs(grad).max())
    if not np.isfinite(max_abs):
        raise ValueError("cannot quantize a gradient containing NaN or Inf")
    if max_abs == 0.0:
        return grad.copy(), 1.0
    scale = max_abs / levels
    scaled = grad / scale
    if rng is not None:
        floor = np.floor(scaled)
        frac = scaled - floor
        rounded = floor + (rng.random(grad.shape) < frac)
    else:
        rounded = np.rint(scaled)
    rounded = np.clip(rounded, -levels, levels)
    return (rounded * scale).astype(grad.dtype), scale
