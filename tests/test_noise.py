"""Noise sheets: determinism, distribution, Girsanov algebra."""
import numpy as np
import pytest

from burgerslab.grids import Control, DimensionError, Grid, ht_norm
from burgerslab.grids import read_lattice_csv, write_lattice_csv
from burgerslab.noise import (
    NoiseSheet,
    SeedSpec,
    _fill_sheets,
    _generator,
    _log_densities,
    _pcg_seeds,
    _sheet_blocks,
    _stream_words,
    girsanov_log_density,
    girsanov_shift,
    sample_sheet,
)


def test_seed_spec_validation():
    with pytest.raises(ValueError):
        SeedSpec(master_seed=-1)
    with pytest.raises(ValueError):
        SeedSpec(master_seed=3, path_index=-2)


@pytest.mark.parametrize("master_seed, path_index", [(2.7, 0), (3, 0.9), (3, -0.5)])
def test_seed_spec_rejects_fractional_seeds(master_seed, path_index):
    # int() would truncate them to another path's stream, -0.5 to path 0
    with pytest.raises(ValueError, match="whole number"):
        SeedSpec(master_seed, path_index)


@pytest.mark.parametrize(
    "master_seed, path_index, name",
    [(True, 0, "master_seed"), (3, False, "path_index"), (np.True_, 0, "master_seed")],
)
def test_seed_spec_rejects_booleans(master_seed, path_index, name):
    # SeedSpec(True, False) would otherwise be seed 1, path 0
    with pytest.raises(ValueError, match=f"{name} must be a whole number"):
        SeedSpec(master_seed, path_index)


def test_seed_spec_accepts_whole_floats():
    s = SeedSpec(3.0, np.float64(5.0))
    assert (s.master_seed, s.path_index) == (3, 5)
    assert type(s.master_seed) is int and type(s.path_index) is int
    assert s.stream_key() == SeedSpec(3, 5).stream_key()


# numpy's SeedSequence and default_rng are the second route for noise's own
# seed hash: the seeds below cover every entropy width, and the indices one
# and two index words and the 63/64 boundary
ORACLE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 0x9E3779B97F4A7C15]
ORACLE_INDICES = [0, 63, 64, 2**32 - 1, 2**32]


def _numpy_key(master_seed, index):
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(index,))
    return int(ss.generate_state(1, np.uint64)[0])


def _numpy_words(key):
    return np.random.SeedSequence(key).generate_state(4, np.uint64)


@pytest.mark.parametrize("master_seed", ORACLE_SEEDS)
def test_stream_key_is_numpy_seed_sequence(master_seed):
    for i in ORACLE_INDICES + [2**64 - 1, 2**64, 2**100 + 7]:
        assert SeedSpec(master_seed, i).stream_key() == _numpy_key(master_seed, i)


@pytest.mark.parametrize("master_seed", ORACLE_SEEDS)
@pytest.mark.parametrize("indices", [ORACLE_INDICES, ORACLE_INDICES[:4], [2**32], [63], range(64)])
def test_stream_words_are_numpy_seed_sequence(master_seed, indices):
    # a chunk of narrow indices runs vectorised; one row, or a chunk holding
    # a two-word index, runs row by row on Python ints
    words = _stream_words(master_seed, indices)
    assert words.dtype == np.uint64 and words.shape == (len(indices), 4)
    assert words.flags.c_contiguous
    for i, row in zip(indices, words):
        assert np.array_equal(row, _numpy_words(_numpy_key(master_seed, i)))


def test_stream_words_of_no_index():
    assert _stream_words(5, []).shape == (0, 4)


def test_pcg_seeds_of_keys_below_two_to_the_32():
    # such a key is one entropy word to SeedSequence, not (key, 0); the
    # whole array runs vectorised, each one-key slice on Python ints
    keys = np.array([0, 1, 7, 2**31, 2**32 - 1, 2**32, 2**64 - 1], dtype=np.uint64)
    expect = [_numpy_words(int(k)) for k in keys]
    assert np.array_equal(_pcg_seeds(keys), expect)
    for j, row in enumerate(expect):
        assert np.array_equal(_pcg_seeds(keys[j : j + 1])[0], row)


@pytest.mark.parametrize("master_seed", [0, 2**64 - 1, 0x9E3779B97F4A7C15])
def test_generators_draw_default_rng_normals(master_seed):
    for i, words in zip(ORACLE_INDICES, _stream_words(master_seed, ORACLE_INDICES)):
        ours = _generator(words).standard_normal(1000)
        theirs = np.random.default_rng(_numpy_key(master_seed, i)).standard_normal(1000)
        assert np.array_equal(ours, theirs)


def test_sheet_shape_checked():
    g = Grid(nx=8, nt=8)
    with pytest.raises(DimensionError):
        NoiseSheet(np.zeros((8, 8)), seed=0, grid=g)


def test_same_seed_spec_same_sheet():
    g = Grid(nx=16, nt=32, T=0.5)
    a = sample_sheet(g, SeedSpec(12345, 7))
    b = sample_sheet(g, SeedSpec(12345, 7))
    assert a.seed == b.seed
    assert np.array_equal(a.dW, b.dW)


def test_distinct_paths_distinct_sheets():
    g = Grid(nx=16, nt=32, T=0.5)
    a = sample_sheet(g, SeedSpec(12345, 0))
    b = sample_sheet(g, SeedSpec(12345, 1))
    c = sample_sheet(g, SeedSpec(54321, 0))
    assert not np.array_equal(a.dW, b.dW)
    assert not np.array_equal(a.dW, c.dW)


def test_order_of_generation_is_irrelevant():
    # purity: generating paths in any order gives the same sheets
    g = Grid(nx=8, nt=8)
    forward = {i: sample_sheet(g, SeedSpec(99, i)).dW for i in (2, 5, 11)}
    backward = {i: sample_sheet(g, SeedSpec(99, i)).dW for i in (11, 5, 2)}
    for i in forward:
        assert np.array_equal(forward[i], backward[i])


def test_entry_variance_in_band():
    # 100 sheets x 100 x 100 entries = 1e6 samples; CLT band half-width
    # ~ sqrt(2/1e6) = 0.14% of dt*dx, well inside the 1% contract
    g = Grid(nx=101, nt=100, T=1.0)
    samples = np.concatenate(
        [sample_sheet(g, SeedSpec(2024, i)).dW.ravel() for i in range(100)]
    )
    var = float(np.mean(samples**2))
    assert g.dt * g.dx * 0.99 < var < g.dt * g.dx * 1.01
    assert abs(float(np.mean(samples))) < 3.0 * np.sqrt(g.dt * g.dx / samples.size)


def test_integrated_sheet_covariance():
    # W(t,x) = sum of increments over [0,t] x [0,x]; covariance (t^s)(x^y)
    # checked at ((0.5,0.5),(0.25,0.75)) within 3 empirical standard errors
    g = Grid(nx=8, nt=8, T=1.0)
    n = 40000
    w1 = np.empty(n)
    w2 = np.empty(n)
    for i in range(n):
        dW = sample_sheet(g, SeedSpec(777, i)).dW
        w1[i] = dW[:4, :4].sum()  # W(0.5, 0.5): k<4, interior cols 1..4
        w2[i] = dW[:2, :6].sum()  # W(0.25, 0.75)
    prod = w1 * w2
    cov = float(np.mean(prod))
    se = float(np.std(prod, ddof=1) / np.sqrt(n))
    assert abs(cov - 0.125) <= 3.0 * se


def test_shift_identities():
    g = Grid(nx=16, nt=16, T=1.0)
    w = sample_sheet(g, SeedSpec(5, 0))
    v = Control.sample(g, lambda t, x: np.sin(np.pi * x) * (1.0 + t))
    assert np.array_equal(girsanov_shift(w, v, 0.0).dW, w.dW)
    z = Control.zero(g)
    assert np.array_equal(girsanov_shift(w, z, 2.0).dW, w.dW)
    shifted = girsanov_shift(w, v, 1.3)
    back = girsanov_shift(shifted, Control(-v.values, g), 1.3)
    assert np.max(np.abs(back.dW - w.dW)) < 1e-15


def test_shift_grid_mismatch():
    g = Grid(nx=16, nt=16)
    h = Grid(nx=16, nt=8)
    w = sample_sheet(g, SeedSpec(5, 0))
    v = Control.zero(h)
    with pytest.raises(DimensionError):
        girsanov_shift(w, v, 1.0)
    with pytest.raises(DimensionError):
        girsanov_log_density(w, v, 1.0)


def test_log_density_trivial_cases():
    g = Grid(nx=16, nt=16)
    w = sample_sheet(g, SeedSpec(5, 0))
    assert girsanov_log_density(w, Control.zero(g), 1.7) == 0.0
    v = Control.sample(g, lambda t, x: np.cos(t) * x * (1 - x))
    assert girsanov_log_density(w, v, 0.0) == 0.0


def _unit_ht_control(g, profile):
    v = Control.sample(g, profile)
    return Control(v.values / ht_norm(v, g), g)


@pytest.mark.parametrize("nx,nt", [(4, 8), (16, 32), (64, 256)])
def test_fill_sheet_is_sample_sheet_bitwise(nx, nt):
    # every entry of the buffer is drawn over, sheet after sheet, both for one
    # index and for a chunk of them; the key is the sheet's seed
    g = Grid(nx=nx, nt=nt, T=1.0)
    indices = (0, 3, 1000)
    for chunk in [(i,) for i in indices] + [indices]:
        buf = np.full((g.nt, g.nx - 1), np.nan)
        for i, key in zip(chunk, _fill_sheets(g, 2718, chunk, buf), strict=True):
            w = sample_sheet(g, SeedSpec(2718, i))
            assert np.array_equal(buf, w.dW)
            assert key == w.seed
            buf.fill(np.nan)


@pytest.mark.parametrize("nx,nt", [(16, 250), (64, 256)])
@pytest.mark.parametrize("rows", [1, 7, 32, "nt"])
def test_sheet_blocks_concatenate_to_sample_sheet_bitwise(nx, nt, rows):
    # nt = 250 is a multiple of none of 7 and 32: the last block is shorter
    g = Grid(nx=nx, nt=nt, T=1.0)
    rows = g.nt if rows == "nt" else rows
    indices = [0, 5, 64, 1000]
    blocks = [b.copy() for b in _sheet_blocks(g, 2718, indices, rows)]
    assert [b.shape for b in blocks[:-1]] == [(len(indices), rows, g.nx - 1)] * (len(blocks) - 1)
    assert blocks[-1].shape[1] == g.nt - rows * (len(blocks) - 1) > 0
    sheets = np.concatenate(blocks, axis=1)
    for row, i in zip(sheets, indices):
        assert np.array_equal(row, sample_sheet(g, SeedSpec(2718, i)).dW)


def test_sheet_blocks_refill_one_buffer():
    g = Grid(nx=8, nt=20)
    blocks = _sheet_blocks(g, 1, range(3), 8)
    first = next(blocks)
    assert all(np.shares_memory(first, b) for b in blocks)


@pytest.mark.parametrize(
    "nx,nt,indices",
    [(4, 8, range(40)), (16, 32, range(40)), (64, 256, [0, 1, 7, 150, 6699])],
)
@pytest.mark.parametrize("h", [0.0, 1.0, 1.7])
def test_streamed_log_densities_are_girsanov_log_density_bitwise(nx, nt, indices, h):
    g = Grid(nx=nx, nt=nt, T=1.0)
    v = _unit_ht_control(g, lambda t, x: np.sin(np.pi * x) * (1.0 + t))
    streamed = _log_densities(g, 303, indices, v, h)
    direct = [girsanov_log_density(sample_sheet(g, SeedSpec(303, i)), v, h) for i in indices]
    assert streamed.tolist() == direct


def test_streamed_log_densities_check_the_grid():
    g = Grid(nx=16, nt=16)
    with pytest.raises(DimensionError):
        _log_densities(g, 5, range(3), Control.zero(Grid(nx=16, nt=8)), 1.0)


def test_exponential_martingale_mean_one():
    # 1e5 sheets, smooth unit-H_T-norm control, h = 1
    g = Grid(nx=32, nt=16, T=1.0)
    v = _unit_ht_control(g, lambda t, x: np.sin(np.pi * x) + 0.0 * t)
    n = 100_000
    zs = np.empty(n)
    for i in range(n):
        w = sample_sheet(g, SeedSpec(31337, i))
        zs[i] = np.exp(girsanov_log_density(w, v, 1.0))
    mean = float(np.mean(zs))
    se = float(np.std(zs, ddof=1) / np.sqrt(n))
    assert abs(mean - 1.0) <= 3.0 * se


def test_martingale_mean_one_across_h():
    # invariant band h * ht_norm(v) <= 2, smaller MC per point
    g = Grid(nx=24, nt=12, T=1.0)
    rng = np.random.default_rng(404)
    xs = g.x_interior()
    modes = np.sin(np.pi * np.outer(np.arange(1, 4), xs))
    n = 20_000
    for trial in range(3):
        coeffs = rng.standard_normal(3)
        prof = coeffs @ modes
        v = Control(np.tile(prof, (g.nt, 1)), g)
        v = Control(v.values / ht_norm(v, g), g)
        for h in (0.5, 2.0):
            zs = np.empty(n)
            for i in range(n):
                w = sample_sheet(g, SeedSpec(1000 + trial * 10 + int(h * 2), i))
                zs[i] = np.exp(girsanov_log_density(w, v, h))
            mean = float(np.mean(zs))
            se = float(np.std(zs, ddof=1) / np.sqrt(n))
            assert abs(mean - 1.0) <= 4.0 * se, (trial, h, mean, se)


def test_martingale_mean_one_for_wall_adjacent_control():
    # every cell of the sheet has variance dt*dx, the wall-adjacent
    # columns too; a density built on the H_T weights misses this control
    g = Grid(nx=8, nt=8, T=1.0)
    vals = np.zeros((g.nt, g.nx - 1))
    vals[:, [0, -1]] = 1.0
    v = Control(vals / np.sqrt(np.sum(vals**2) * g.dt * g.dx), g)
    n = 5000
    zs = np.empty(n)
    for i in range(n):
        w = sample_sheet(g, SeedSpec(11, i))
        zs[i] = np.exp(girsanov_log_density(w, v, 1.0))
    mean = float(np.mean(zs))
    se = float(np.std(zs, ddof=1) / np.sqrt(n))
    assert abs(mean - 1.0) <= 3.0 * se, (mean, se)

def test_csv_round_trip(tmp_path):
    # cell data (nt, nx-1), the layout a control is written in
    g = Grid(nx=8, nt=8, T=0.25)
    w = sample_sheet(g, SeedSpec(42, 3))
    p = tmp_path / "cells.csv"
    write_lattice_csv(p, w.dW, g)
    back, bg = read_lattice_csv(p)
    assert bg == g
    assert np.array_equal(back, w.dW)


def test_csv_round_trip_keeps_grid_exactly(tmp_path):
    # 11 * (0.1 / 11) is 0.10000000000000002: the closing row must be T itself
    g = Grid(nx=8, nt=11, T=0.1)
    w = sample_sheet(g, SeedSpec(42, 5))
    p = tmp_path / "cells.csv"
    write_lattice_csv(p, w.dW, g)
    rows = p.read_text().splitlines()
    assert rows[0].startswith("t,")
    assert rows[-1] == repr(g.T)
    back, bg = read_lattice_csv(p)
    assert bg == g
    assert np.array_equal(back, w.dW)
