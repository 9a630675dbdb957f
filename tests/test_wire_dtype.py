"""The float16 wire format: codec edge cases and end-to-end divergence.

``encode_wire``/``decode_wire`` are IEEE format conversions, not the
stochastic quantizer: they must survive the values ``quantize_gradient``
rejects (NaN, Inf) with the standard IEEE outcomes — NaN stays NaN,
overflow saturates to the correctly-signed infinity, sub-half-denormal
magnitudes flush toward signed zero — and round-trip exactly for values
half represents exactly.

``round_to_wire`` is the cast-free in-place form of the codec round trip
the shm arena ring uses; it must equal ``decode_wire(encode_wire(x))``
bit for bit, and so must the arena's float16 allreduce equal the tree
sum of every rank's round-tripped contribution.

End to end, a float16 wire rounds every message of every iteration, so
the trajectory *diverges* from float32 — but boundedly: the paper's
half-precision-communication trade is useful only if the loss stays in
family. The e2e test pins that bound for Sync EASGD3 on threads.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.mpi_easgd import run_mpi_sync_easgd
from repro.algorithms.mpi_sgd import run_mpi_sync_sgd
from repro.comm.collectives import shard_bounds, tree_reduce
from repro.comm.mp_runtime import fork_available, MultiprocessCommunicator
from repro.comm.runtime import InProcessCommunicator
from repro.optim.quantize import (
    decode_wire,
    encode_wire,
    round_to_wire,
    validate_wire_dtype,
    WIRE_DTYPES,
)
from repro.trace import Trace

RANKS = 4
ITERATIONS = 6
#: round_to_wire's chunk length; arrays below span several chunks.
CHUNK = 1 << 15
#: float32 bits of 65520, the first magnitude float16 rounds to infinity.
_F16_OVERFLOW_BITS = 0x477FF000

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="requires the fork start method"
)


def _round_trip(x: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        return decode_wire(encode_wire(x, "float16"), "float16")


def _assert_bits_equal(got: np.ndarray, want: np.ndarray) -> None:
    np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))


def _rounded(x: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        return round_to_wire(x.copy(), "float16")


def _boundary_bits() -> np.ndarray:
    """Every float32 exponent x both signs x the mantissas around each
    float16 rounding boundary: ties with an even and an odd kept bit,
    the ties +- 1 ulp, and the all-zero/all-one dropped bits."""
    pats = []
    for exp in range(256):
        # Mantissa bits float16 drops at this exponent: 13 in its normal
        # range, more through its subnormals, all 23 below 2^-25.
        dropped = 23 if exp == 0 else min(23, 13 + max(0, 113 - exp))
        half = 1 << (dropped - 1)
        kept_max = (1 << (23 - dropped)) - 1
        for kept in sorted({0, 1, 2, 3, kept_max - 1, kept_max} & set(range(kept_max + 1))):
            for low in (half - 1, half, half + 1, 0, (1 << dropped) - 1):
                pats.append((exp << 23) | (kept << dropped) | low)
    bits = np.array(pats, dtype=np.uint32)
    return np.concatenate([bits, bits | np.uint32(0x80000000)])


def _specials() -> np.ndarray:
    """IEEE edge values of the float16 wire, as float32."""
    vals = np.array(
        [np.nan, np.nan, np.inf, -np.inf, 65520.0, -65520.0, 7e4, -1e38,
         65504.0, -65504.0, 65519.99, -0.0, 0.0, 2.0**-24, -(2.0**-24),
         3 * 2.0**-24, 2.0**-25, 2.0**-20, 1e-40, -1e-41, 2.0**-14],
        dtype=np.float32,
    )
    bits = vals.view(np.uint32)
    bits[0] = 0x7FC0BEEF  # quiet NaN with a payload
    bits[1] = 0xFFC00001  # negative NaN with a payload
    return vals


def _assert_rounds_like_codec(bits: np.ndarray) -> None:
    """round_to_wire == the codec round trip on ``bits`` as a whole and on
    each magnitude band separately: below 65520 (only these take the
    cast-free path), [65520, 65536) (overflow to infinity, next to the
    path's threshold), the larger finite values, and the non-finite."""
    x = bits.view(np.float32)
    mag = bits & np.uint32(0x7FFFFFFF)
    edges = [0, _F16_OVERFLOW_BITS, 0x47800000, 0x7F800000, 2**31]
    parts = [x] + [x[(mag >= lo) & (mag < hi)] for lo, hi in zip(edges, edges[1:])]
    for part in parts:
        _assert_bits_equal(_rounded(part), _round_trip(part))


class TestCodec:
    def test_float32_is_identity_no_copy(self):
        arr = np.arange(8, dtype=np.float32)
        assert encode_wire(arr, "float32") is arr
        assert decode_wire(arr, "float32") is arr

    def test_half_exact_values_round_trip(self):
        # Integers up to 2048 and powers of two across half's range are
        # exactly representable: encode/decode must be lossless on them.
        exact = np.array(
            [0.0, -0.0, 1.0, -1.0, 2048.0, 0.5, 2.0**-14, 2.0**15, 65504.0],
            dtype=np.float32,
        )
        out = decode_wire(encode_wire(exact, "float16"), "float16")
        np.testing.assert_array_equal(out, exact)
        assert np.signbit(out[1]) and not np.signbit(out[0])

    def test_nan_stays_nan(self):
        arr = np.array([np.nan, 1.0, -np.nan], dtype=np.float32)
        out = decode_wire(encode_wire(arr, "float16"), "float16")
        assert np.isnan(out[0]) and np.isnan(out[2])
        assert out[1] == 1.0

    def test_overflow_saturates_to_signed_inf(self):
        # Above half's max finite (65504) the IEEE conversion overflows
        # to infinity, preserving sign; infinities pass through.
        with np.errstate(over="ignore"):
            arr = np.array([1e38, -1e38, np.inf, -np.inf], dtype=np.float32)
            out = decode_wire(encode_wire(arr, "float16"), "float16")
        assert np.isposinf(out[0]) and np.isneginf(out[1])
        assert np.isposinf(out[2]) and np.isneginf(out[3])

    def test_denormals_flush_or_survive(self):
        # float32 denormals sit far below half's smallest subnormal
        # (2^-24): they flush to signed zero. Half's own subnormal range
        # survives the trip.
        with np.errstate(under="ignore"):
            tiny = np.array([1e-40, -1e-40], dtype=np.float32)
            out = decode_wire(encode_wire(tiny, "float16"), "float16")
        np.testing.assert_array_equal(out, np.array([0.0, -0.0], dtype=np.float32))
        assert not np.signbit(out[0]) and np.signbit(out[1])
        half_sub = np.array([2.0**-24, -(2.0**-24)], dtype=np.float32)
        np.testing.assert_array_equal(
            decode_wire(encode_wire(half_sub, "float16"), "float16"), half_sub
        )

    def test_decode_always_float32(self):
        out = decode_wire(encode_wire(np.ones(3, dtype=np.float32), "float16"),
                          "float16")
        assert out.dtype == np.float32

    def test_validate(self):
        for w in WIRE_DTYPES:
            assert validate_wire_dtype(w) == w
        with pytest.raises(ValueError):
            validate_wire_dtype("bfloat16")


class TestRoundToWire:
    @given(bits=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=300),
           small=st.lists(st.integers(0, 2 * _F16_OVERFLOW_BITS - 1), max_size=300))
    @settings(max_examples=200, deadline=None)
    def test_matches_codec_on_any_bits(self, bits, small):
        # ``small`` maps onto the magnitudes below 65520, either sign, which
        # uniform bit patterns hit only about half the time.
        small = [b if b < _F16_OVERFLOW_BITS else (b - _F16_OVERFLOW_BITS) | 0x80000000
                 for b in small]
        _assert_rounds_like_codec(np.array(bits + small, dtype=np.uint32))

    def test_matches_codec_at_every_rounding_boundary(self):
        _assert_rounds_like_codec(_boundary_bits())

    def test_one_non_finite_chunk_among_finite_ones(self):
        # Only chunk 2 takes numpy's cast; the rest take the adder path.
        rng = np.random.default_rng(5)
        n = 4 * CHUNK + 123
        x = (rng.standard_normal(n) * 2.0 ** rng.integers(-30, 12, n)).astype(np.float32)
        specials = _specials()
        x[2 * CHUNK + 7 : 2 * CHUNK + 7 + specials.size] = specials
        want = _round_trip(x)
        got = x.copy()
        with pytest.warns(RuntimeWarning, match="overflow"):
            assert round_to_wire(got, "float16") is got
        _assert_bits_equal(got, want)
        assert not np.array_equal(got, x), "half precision should round something"

    def test_float32_is_identity(self):
        x = np.array([0.1, np.nan, 1e-40, 7e4], dtype=np.float32)
        before = x.copy()
        assert round_to_wire(x, "float32") is x
        _assert_bits_equal(x, before)

    def test_rejects_non_float32(self):
        with pytest.raises(TypeError):
            round_to_wire(np.ones(4, dtype=np.float64), "float16")
        with pytest.raises(TypeError):
            round_to_wire(np.ones(8, dtype=np.float32)[::2], "float16")
        with pytest.raises(ValueError):
            round_to_wire(np.ones(4, dtype=np.float32), "bfloat16")


def _arena_prog(ctx, steps, born):
    """Allreduce each step's contribution, through the arena row
    (``born``) or from a private input; report what the row held after."""
    totals, rounded_in_place, input_kept = [], [], []
    for per_rank in steps:
        x = per_rank[ctx.rank]
        if born:
            buf = ctx.collective_buffer(x.size)
            buf[:] = x
        else:
            buf = x.copy()
        with np.errstate(over="ignore"):
            totals.append(ctx.allreduce(buf))
        rounded_in_place.append(np.array_equal(buf.view(np.uint32), _round_trip(x).view(np.uint32)))
        input_kept.append(np.array_equal(buf.view(np.uint32), x.view(np.uint32)))
    return totals, rounded_in_place, input_kept


@pytest.mark.mp
@needs_fork
class TestArenaFloat16:
    """processes + shm + ring + float16: the arena rows are float32 and
    each rank rounds its own row in place; the sum must be the tree sum
    of the codec round trips, exactly."""

    @staticmethod
    def _steps(p: int, n: int) -> list:
        rng = np.random.default_rng(p)
        specials = _specials()
        steps = []
        for step in range(2):
            per_rank = []
            for q in range(p):
                x = (rng.standard_normal(n) * 2.0 ** rng.integers(-28, 12, n)).astype(np.float32)
                at = 2 * CHUNK + 11 * q + step
                x[at : at + specials.size] = np.roll(specials, q + step)
                x[-specials.size :] = specials[::-1]
                per_rank.append(x)
            steps.append(per_rank)
        return steps

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("born", [True, False], ids=["collective_buffer", "private"])
    def test_equals_tree_sum_of_round_trips(self, p, born):
        n = 4 * CHUNK + 1001
        steps = self._steps(p, n)
        comm = MultiprocessCommunicator(
            p, transport="shm", collective="ring", wire_dtype="float16", timeout=30.0
        )
        try:
            results = comm.run(_arena_prog, steps, born)
        finally:
            comm.close()
        for k, per_rank in enumerate(steps):
            with np.errstate(invalid="ignore"):
                want = tree_reduce([_round_trip(x) for x in per_rank])
            for totals, rounded_in_place, input_kept in results:
                _assert_bits_equal(totals[k], want)
                # The arena row is rounded in place; a private input is not.
                assert rounded_in_place[k] is born
                assert input_kept[k] is not born

    def test_float64_input_rounds_once(self):
        # 1 + 2^-11 + 2^-40 lies just above a float16 tie: straight to
        # half it rounds up, through float32 it would tie down to 1.0.
        x = np.full(CHUNK + 3, 1 + 2.0**-11 + 2.0**-40)
        comm = MultiprocessCommunicator(
            2, transport="shm", collective="ring", wire_dtype="float16", timeout=30.0
        )
        try:
            results = comm.run(lambda ctx: ctx.allreduce(x * (ctx.rank + 1)))
        finally:
            comm.close()
        want = tree_reduce([_round_trip(x * (q + 1)) for q in range(2)])
        assert want[0] == 3 * (1 + 2.0**-10)
        for got in results:
            _assert_bits_equal(got, want)

    @pytest.mark.parametrize("p", [2, 3])
    def test_trace_records_wire_bytes(self, p):
        n = 1001
        trace = Trace()
        steps = [[np.full(n, q + 0.1, dtype=np.float32) for q in range(p)]]
        comm = MultiprocessCommunicator(
            p, transport="shm", collective="ring", wire_dtype="float16",
            timeout=30.0, trace=trace,
        )
        try:
            comm.run(_arena_prog, steps, True)
        finally:
            comm.close()
        bounds = shard_bounds(n, p)
        shard_bytes = {2 * (bounds[s + 1] - bounds[s]) for s in range(p)}
        for op in ("ring-reduce-scatter", "ring-allgather"):
            sends = trace.sends(op)
            assert len(sends) == p * (p - 1)
            assert {e.nbytes for e in sends} <= shard_bytes
            assert sum(e.nbytes for e in sends) == 2 * (p - 1) * n


class TestRuntimeWire:
    def test_f16_allreduce_close_not_equal(self):
        """A half wire rounds the sums but stays within half's ulp."""
        rng = np.random.default_rng(3)
        vectors = [rng.normal(size=501).astype(np.float32) for _ in range(RANKS)]

        def prog(ctx):
            return ctx.allreduce(vectors[ctx.rank].copy())

        exact = InProcessCommunicator(RANKS).run(prog)
        for wire in ("float16",):
            for collective in ("tree", "ring"):
                comm = InProcessCommunicator(
                    RANKS, wire_dtype=wire, collective=collective
                )
                results = comm.run(prog)
                for out, ref in zip(results, exact):
                    # Relative tolerance ~ half epsilon per hop; a wrong
                    # decode (e.g. double scaling) trips this instantly.
                    np.testing.assert_allclose(out, ref, rtol=2e-2, atol=1e-2)

    def test_f16_cross_rank_identical(self):
        """Rounding must not desynchronise the group: every rank sees the
        *same* (rounded) total, for both schedules."""
        rng = np.random.default_rng(4)
        vectors = [rng.normal(size=77).astype(np.float32) for _ in range(RANKS)]
        for collective in ("tree", "ring"):
            comm = InProcessCommunicator(
                RANKS, wire_dtype="float16", collective=collective
            )
            results = comm.run(lambda ctx: ctx.allreduce(vectors[ctx.rank].copy()))
            for out in results[1:]:
                np.testing.assert_array_equal(out, results[0])


class TestEndToEnd:
    def test_easgd3_bounded_divergence(self, mnist_tiny):
        from repro.nn.models import build_mlp

        train, _ = mnist_tiny
        net = build_mlp(seed=7)
        net.forward(train.images[:1])
        runs = {
            wire: run_mpi_sync_easgd(
                net, train, ranks=RANKS, iterations=ITERATIONS, batch_size=16,
                seed=0, backend="threads", variant=3, wire_dtype=wire,
            )
            for wire in ("float32", "float16")
        }
        c32, c16 = runs["float32"].center, runs["float16"].center
        assert not np.array_equal(c32, c16), "half wire should round something"
        # Bounded divergence: the rounded trajectory stays in family.
        denom = np.linalg.norm(c32)
        assert np.linalg.norm(c32 - c16) / denom < 0.05
        assert np.all(np.isfinite(c16))

    def test_sgd_f16_losses_track_f32(self, mnist_tiny):
        train, _ = mnist_tiny
        from repro.nn.models import build_mlp

        net = build_mlp(seed=7)
        net.forward(train.images[:1])
        runs = {
            wire: run_mpi_sync_sgd(
                net, train, ranks=RANKS, iterations=ITERATIONS, batch_size=16,
                seed=0, backend="threads", wire_dtype=wire,
            )
            for wire in ("float32", "float16")
        }
        l32 = np.array(runs["float32"].mean_losses)
        l16 = np.array(runs["float16"].mean_losses)
        assert np.all(np.isfinite(l16))
        np.testing.assert_allclose(l16, l32, rtol=0.1)
