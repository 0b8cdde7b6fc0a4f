"""The CLI's float kernel, qm1d._shortest, against repr cell by cell."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import qm1d
from qm1d import _shortest

FLOAT_MAX = 1.7976931348623157e308
SMALLEST_NORMAL = 2.2250738585072014e-308


def padded(texts):
    """(len(texts), 24) uint8: the ASCII of each text followed by PAD."""
    joined = b"".join(text.encode("ascii").ljust(24, bytes([_shortest.PAD])) for text in texts)
    return np.frombuffer(joined, dtype=np.uint8).reshape(-1, 24)


def assert_repr(values):
    """rows(values) is repr of every cell, as the double it widens to, padded
    with PAD to 24 bytes."""
    got, want = _shortest.rows(values), padded(map(repr, np.asarray(values).tolist()))
    assert got.shape == want.shape
    differs = np.flatnonzero((got != want).any(axis=1))
    if len(differs):
        bad = differs[0]
        raise AssertionError(f"cell {bad}: {bytes(got[bad])!r} != repr {bytes(want[bad])!r}"
                             f" ({np.float64(values[bad]).view(np.uint64):#018x})")


def neighbours(values):
    """The values and the doubles one ulp below and above them, finite only."""
    x = np.asarray(values, dtype=np.float64)
    with np.errstate(over="ignore"):
        x = np.concatenate([x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf)])
    return x[np.isfinite(x)]


def test_random_bit_patterns():
    bits = np.random.default_rng(20201003).integers(0, 2**64, 1_100_000, dtype=np.uint64)
    x = bits.view(np.float64)
    x = x[np.isfinite(x)]
    assert len(x) >= 1_000_000
    assert_repr(x)


def test_powers_of_two_and_ten_and_their_neighbours():
    powers_of_two = np.ldexp(1.0, np.arange(-1074, 1024))
    powers_of_ten = np.array([float(f"1e{e}") for e in range(-323, 309)])
    assert_repr(neighbours(np.concatenate([powers_of_two, -powers_of_ten])))


def test_subnormals_extremes_and_zeros():
    subnormal = np.random.default_rng(7).integers(1, 2**52, 30_000, dtype=np.uint64)
    assert_repr(np.concatenate([
        subnormal.view(np.float64), np.arange(1, 1000) * 5e-324,
        neighbours([5e-324, SMALLEST_NORMAL, FLOAT_MAX, -FLOAT_MAX]),
        [0.0, -0.0, 5e-324, -5e-324, SMALLEST_NORMAL, FLOAT_MAX],
    ]))
    assert np.array_equal(_shortest.rows(np.array([0.0, -0.0, 5e-324, FLOAT_MAX])),
                          padded(["0.0", "-0.0", "5e-324", "1.7976931348623157e+308"]))


def test_integers_across_two_to_the_53():
    around = np.arange(2.0**53 - 4096, 2.0**53 + 8192)
    assert_repr(np.concatenate([np.arange(-5000.0, 5000.0), around, -around,
                                2.0 ** np.arange(53, 70) + 2.0**20]))


def test_layout_edges():
    # Fixed notation holds the decimal point from 4 places before the first
    # digit to 16 after it: 1e-4 and 9999999999999998.0 are the last of it.
    edges = [1e-4, 1e-5, 9999999999999998.0, 1e16, 0.1, 0.5, 1.0, 10.0, 123.456,
             1.5e-4, 1.5e-5, 1234567890123456.7, 12345678901234568.0, 1e22, 1e23]
    assert_repr(neighbours(edges + [-e for e in edges]))
    assert np.array_equal(_shortest.rows(np.array([1e-4, 1e-5, 9999999999999998.0, 1e16, -0.5])),
                          padded(["0.0001", "1e-05", "9999999999999998.0", "1e+16", "-0.5"]))


def test_decimal_fractions():
    # Short decimals, their sums and grids: the candidate one digit shorter.
    rng = np.random.default_rng(3)
    assert_repr(np.concatenate([
        *(np.round(rng.standard_normal(5_000) * 10.0 ** rng.integers(-8, 9, 5_000), places)
          for places in range(8)),
        np.linspace(-12.0, 12.0, 4001), np.arange(1, 10_000) * 0.1,
        rng.standard_normal(10_000) * 1e-300, rng.standard_normal(10_000) * 1e300,
    ]))


def test_float32_cells_are_written_as_the_widened_double():
    bits = np.random.default_rng(32).integers(0, 2**32, 50_000, dtype=np.uint64)
    x = bits.astype(np.uint32).view(np.float32)
    x = x[np.isfinite(x)]
    assert_repr(x)
    assert np.array_equal(_shortest.rows(np.array([0.1], dtype=np.float32)),
                          padded(["0.10000000149011612"]))


def test_blocks_and_empty_input():
    x = np.random.default_rng(5).standard_normal(3 * _shortest._BLOCK + 5)
    assert_repr(x)
    assert_repr(x[::3])  # not contiguous
    assert _shortest.rows(np.array([])).shape == (0, 24)


# Around the gather of 256 cells and the block of at most 2,048: 2,048
# cells fill a block's source to its last column.
@pytest.mark.parametrize("count", [1, 255, 256, 257, 1023, 1024, 2047, 2048, 2049, 4095,
                                   4096, 4097])
def test_cell_counts_at_the_gather_and_block_edges(count):
    bits = np.random.default_rng(count).integers(0, 2**64, 2 * count, dtype=np.uint64)
    x = bits.view(np.float64)
    x = x[np.isfinite(x)][:count]
    assert len(x) == count
    assert_repr(x)


# One block of 2,048 cells peaks at about 171 bytes a cell above its 24-byte
# rows; the limb products in fresh arrays would take it to about 268.
def test_a_full_block_holds_a_bounded_peak_a_cell():
    x = np.random.default_rng(2048).standard_normal(_shortest._BLOCK)
    _shortest.rows(x)  # the cached tables are not the block's
    tracemalloc.start()
    try:
        out = _shortest.rows(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - out.nbytes < 187 * len(x)


@pytest.mark.parametrize("count, calls", [(1, 1), (2048, 1), (2049, 2), (4001, 2), (10_000, 5)])
def test_rows_takes_as_few_blocks_as_hold_the_cells(monkeypatch, count, calls):
    block, sizes = _shortest._block, []

    def counted(x, out):
        sizes.append(len(x))
        block(x, out)

    monkeypatch.setattr(_shortest, "_block", counted)
    assert_repr(np.random.default_rng(count).standard_normal(count))
    assert len(sizes) == calls and sum(sizes) == count and max(sizes) <= _shortest._BLOCK


def test_rows_of_any_shape_are_its_rows_rows_stacked():
    # 2,100 cells: two kernel blocks, whose boundary falls inside a row.
    x = np.random.default_rng(6).standard_normal((3, 700)) * [[1e-5], [1.0], [1e17]]
    stacked = np.stack([_shortest.rows(row) for row in x])
    assert stacked.shape == (3, 700, 24)
    assert np.array_equal(_shortest.rows(x), stacked)
    assert np.array_equal(_shortest.rows(list(x)), stacked)  # a list of arrays
    assert _shortest.rows([]).shape == (0, 24)


def test_rows_are_the_ascii_repr_then_pad_only():
    # Every cell width, 3 ("0.0") to 24 ("-1.2345678901234567e-308").
    rng = np.random.default_rng(11)
    scales = 10.0 ** np.linspace(-9.0, 21.0, 3_000)
    x = np.concatenate([rng.standard_normal(3_000) * scales,
                        *(np.round(rng.standard_normal(300) * 1e4, places) for places in range(8)),
                        [0.0, -0.0, 5e-324, -1.2345678901234567e-308, FLOAT_MAX, 1e-5, 1e16]])
    assert {len(repr(v)) for v in x.tolist()} == set(range(3, 25))
    rows = _shortest.rows(x)
    assert rows.shape == (len(x), 24) and rows.dtype == np.uint8
    pad = bytes([_shortest.PAD])
    assert rows.tobytes() == b"".join(repr(v).encode("ascii").ljust(24, pad) for v in x.tolist())


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_cells_are_refused(bad):
    with pytest.raises(ValueError):
        _shortest.rows(np.array([1.0, bad]))


def test_power_table_brackets_each_power_of_ten():
    g1, g0 = (words.tolist() for words in _shortest._powers())
    assert len(g1) == _shortest._E_MAX - _shortest._E_MIN + 1 == 617
    for e, high, low in zip(range(_shortest._E_MIN, _shortest._E_MAX + 1), g1, g0):
        g = (high << 63) + low
        assert 2**125 < g < 2**126
        r = _shortest._flog2pow10(e) - 125
        # (g - 1) 2^r <= 10^e < g 2^r, in integers
        num, den = (10**e, 1) if e >= 0 else (1, 10**-e)
        num, den = (num, den << r) if r >= 0 else (num << -r, den)
        assert (g - 1) * den <= num < g * den


# Imports the CLI, runs `qm1d version` and prints the size of the kernel's
# power-of-ten cache.
_VERSION_CHILD = """
import contextlib, io
from qm1d import _shortest
from qm1d.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    main(["version"])
print(_shortest._powers.cache_info().currsize)
"""


def test_version_builds_no_power_table(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(qm1d.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", _VERSION_CHILD], capture_output=True,
                            text=True, env=env, check=True, cwd=tmp_path)
    assert result.stdout.split() == ["0"]
