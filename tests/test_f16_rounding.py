"""f16 rounding: every tile and buffer the simulator rounds to binary16 has
the bits of numpy's ``astype(float16).astype(float32)``.

Large float32 arrays round on their bits (``sim._round_f16``), f16
subnormals by scaling; large float64 arrays are cast to float32 and round
on those bits, but for the ties the cast may make and the values outside
[2**-14, 65520), which take numpy's round trip from float64, as small
arrays and other dtypes do.  Each case below is compared as uint32 bits,
on an array at least ``sim._F16_BITS_MIN`` long, so that it runs the bit
path, unless the case is about the other path.
"""

from __future__ import annotations

import numpy as np

from tilec import sim
from tilec.ir import ElemType

F16 = ElemType.f16


def _f32(bits) -> np.ndarray:
    return np.asarray(bits, dtype=np.uint32).view(np.float32)


def _long(x: np.ndarray) -> np.ndarray:
    """``x`` repeated up to the bit path's cut-over, so the values run it."""
    return np.resize(x, max(x.size, sim._F16_BITS_MIN))


def _assert_rounds_like_numpy(x: np.ndarray) -> None:
    with np.errstate(all="ignore"):
        want = x.astype(np.float16).astype(np.float32)
        got = sim._coerce(F16, x)
    assert got.dtype == np.float32 and got.shape == x.shape
    assert not np.shares_memory(got, x)
    bad = np.flatnonzero(got.view(np.uint32) != want.view(np.uint32))
    assert bad.size == 0, f"{bad.size} bits differ, first at {x.reshape(-1)[bad[0]]!r}"


F16_VALUES = np.arange(1 << 16, dtype=np.uint32).astype(np.uint16).view(np.float16).astype(np.float32)
FINITE = F16_VALUES[np.isfinite(F16_VALUES)]


def test_every_f16_value_is_kept():
    _assert_rounds_like_numpy(F16_VALUES)
    same = sim._coerce(F16, F16_VALUES).view(np.uint32)
    nan = np.isnan(F16_VALUES)
    assert np.array_equal(same[~nan], F16_VALUES.view(np.uint32)[~nan])


def test_every_midpoint_and_its_neighbours():
    for sign in (1, -1):
        f = np.unique(sign * FINITE[FINITE >= 0])
        mid = f[:-1] + (f[1:] - f[:-1]) / 2  # exact in f32: one bit past f16's 11
        assert np.all((f[:-1] < mid) & (mid < f[1:]))
        for x in (mid, np.nextafter(mid, np.float32(-np.inf)), np.nextafter(mid, np.float32(np.inf))):
            _assert_rounds_like_numpy(_long(x))


def test_zeros_infinities_and_nan_payloads():
    specials = _f32([0x00000000, 0x80000000, 0x7F800000, 0xFF800000,
                     0x7FC00000, 0xFFC00000, 0x7FC00001, 0x7FE00000, 0x7FFFFFFF, 0xFFFFFFFF,  # quiet
                     0x7F800001, 0x7FA00000, 0x7FBFFFFF, 0x7F802000, 0xFF800001, 0xFFBFFFFF])  # signalling
    _assert_rounds_like_numpy(_long(specials))
    _assert_rounds_like_numpy(np.zeros(sim._F16_BITS_MIN, np.float32))
    _assert_rounds_like_numpy(-np.zeros(sim._F16_BITS_MIN, np.float32))


def test_the_overflow_edge():
    edge = np.array([65504, np.nextafter(np.float32(65520), np.float32(0)), 65520,
                     np.nextafter(np.float32(65520), np.float32(np.inf)), 65536, 1e6,
                     np.finfo(np.float32).max], dtype=np.float32)
    x = _long(np.concatenate([edge, -edge]))
    _assert_rounds_like_numpy(x)
    with np.errstate(over="ignore"):
        got = sim._coerce(F16, x)[: edge.size]
    assert list(got[:2]) == [65504, 65504] and np.all(np.isposinf(got[2:]))


def test_the_subnormal_range():
    # every 97th f32 from 2**-25 up to 2**-14
    x = _f32(np.append(np.arange(0x33000000, 0x38800000, 97), 0x38800000))
    _assert_rounds_like_numpy(x)
    _assert_rounds_like_numpy(-x)
    # every f16 subnormal is a multiple of 2**-24
    got = sim._coerce(F16, x).astype(np.float64) * 2.0**24
    assert np.array_equal(got, np.round(got))


def test_a_strided_float32_input():
    x = _long(np.concatenate([F16_VALUES, FINITE[:-1] + np.diff(FINITE) / 3]))
    grid = x[: x.size // 64 * 64].reshape(-1, 64)
    _assert_rounds_like_numpy(grid.T)
    _assert_rounds_like_numpy(grid[:, ::3])


def test_a_short_array_and_a_float64_input():
    short = np.concatenate([F16_VALUES[::1024], _f32([0x7FC00001, 0x7F800001, 0x33000001, 0x477FF000])])
    assert short.size < sim._F16_BITS_MIN
    _assert_rounds_like_numpy(short)
    # f64 rounds once: 1 + 2**-11 + 2**-40 is above the tie, though its f32
    # rounding lands on it
    x = np.array([1 + 2.0**-11 + 2.0**-40, 1 / 3, 65519.99, 2.0**-24 * 1.5], dtype=np.float64)
    _assert_rounds_like_numpy(_long(x))
    assert sim._coerce(F16, x)[0] == 1 + 2.0**-10


def test_device_memory_rounds_what_it_binds():
    x = np.linspace(-70000, 70000, 5 * sim._F16_BITS_MIN, dtype=np.float32).reshape(5, -1)
    mem = sim.DeviceMemory()
    with np.errstate(over="ignore"):
        mem.set_tensor("X", x, F16)
        want = x.astype(np.float16).astype(np.float32)
    assert np.array_equal(mem.tensor("X").view(np.uint32), want.view(np.uint32))


# -- float64 inputs: cast to float32, then rounded on those bits --------------

_NON_NEGATIVE = np.unique(FINITE[FINITE >= 0].astype(np.float64))
F16_MIDPOINTS = _NON_NEGATIVE[:-1] + np.diff(_NON_NEGATIVE) / 2  # every non-negative tie, exact in float64


def _sides(x: np.ndarray) -> list[np.ndarray]:
    """`x` and the float64 values one ulp below and above each element."""
    return [x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf)]


def test_float64_ties_and_their_neighbours():
    # the cast to float32 puts a value one float64 ulp off a tie on the tie
    for sign in (1, -1):
        for x in _sides(sign * F16_MIDPOINTS):
            assert x.dtype == np.float64
            _assert_rounds_like_numpy(_long(x))
    # and a value just off a tie, by less than half a float32 ulp, also
    off = F16_MIDPOINTS * (1 + np.ldexp(np.linspace(-1, 1, 7), -25)[:, None])
    _assert_rounds_like_numpy(off.reshape(-1))


def test_float64_subnormals_and_the_least_normal():
    sub = np.ldexp(np.arange(1, 1024, dtype=np.float64), -24)  # every positive f16 subnormal
    for x in (*_sides(sub), *_sides(F16_MIDPOINTS[F16_MIDPOINTS < 2.0**-14]), sub * 1.37):
        _assert_rounds_like_numpy(_long(np.concatenate([x, -x])))
    near = 2.0**-14 * (1 + np.linspace(-2.0**-9, 2.0**-9, 4097))
    _assert_rounds_like_numpy(np.concatenate([*_sides(near), *_sides(-near)]))
    _assert_rounds_like_numpy(_long(np.array([2.0**-25, 2.0**-26, 1e-300, 5e-324, 2.0**-149, 2.0**-150])))


def test_float64_overflow_edge_and_specials():
    edge = np.array([65504, 65519.99, 65519.999999999, 65520, 65536, 1e6, 3.5e38, 1e300], dtype=np.float64)
    for x in _sides(edge):
        _assert_rounds_like_numpy(_long(np.concatenate([x, -x])))
    specials = np.array([np.inf, -np.inf, np.nan, -np.nan, 0.0, -0.0])
    _assert_rounds_like_numpy(_long(specials))
    with np.errstate(over="ignore"):
        got = sim._coerce(F16, _long(edge))[: edge.size]
    assert list(got[:3]) == [65504] * 3 and np.all(np.isposinf(got[3:]))


def test_float64_arrays_below_the_bit_path_cut_over():
    for x in (F16_MIDPOINTS[:: 97], np.nextafter(F16_MIDPOINTS[:: 89], np.inf), np.array([65519.99, 2.0**-24 * 1.5])):
        assert x.size < sim._F16_BITS_MIN
        _assert_rounds_like_numpy(x)


def test_random_float64_inputs():
    rng = np.random.Generator(np.random.Philox(3))
    _assert_rounds_like_numpy(rng.uniform(0.0, 1.0, size=(64, 1000)))
    _assert_rounds_like_numpy(np.exp(rng.uniform(-40, 12, size=50_000)) * rng.choice([-1.0, 1.0], size=50_000))
