"""f16 rounding: every tile and buffer the simulator rounds to binary16 has
the bits of numpy's ``astype(float16).astype(float32)``.

Large float32 arrays round on their bits (``sim._round_f16``), f16
subnormals by scaling, and small arrays and other dtypes take the numpy
round trip.  Each case below is compared as uint32 bits, on an array at
least ``sim._F16_BITS_MIN`` long, so that it runs the bit path, unless the
case is about the other path.
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
