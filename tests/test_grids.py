"""Lattice, field, and norm contracts."""
import json
from types import SimpleNamespace

import numpy as np
import pytest

from burgerslab.cli import _emit_field
from burgerslab.grids import (
    Control,
    DimensionError,
    Grid,
    SpaceField,
    SpaceTimeField,
    ht_norm,
    l2_norm,
    read_lattice_csv,
    sup_t_l2,
    write_lattice_csv,
)

RNG_SEED = 911


def _random_space_field(g, rng, scale=1.0):
    vals = scale * rng.standard_normal(g.nx + 1)
    vals[0] = vals[-1] = 0.0
    return SpaceField(vals, g)


# ---------------------------------------------------------------- Grid


def test_grid_spacings():
    g = Grid(nx=8, nt=16, T=2.0)
    assert g.dx == 0.125
    assert g.dt == 0.125
    assert np.allclose(g.x_nodes(), np.arange(9) / 8)
    assert np.allclose(g.t_nodes(), np.arange(17) * 0.125)


@pytest.mark.parametrize("bad", [dict(nx=3, nt=8), dict(nx=8, nt=3)])
def test_grid_too_small(bad):
    with pytest.raises(ValueError):
        Grid(T=1.0, **bad)


def test_grid_bad_T():
    with pytest.raises(ValueError):
        Grid(nx=8, nt=8, T=0.0)
    with pytest.raises(ValueError):
        Grid(nx=8, nt=8, T=-1.0)


def test_grid_non_integer_rejected():
    with pytest.raises(TypeError):
        Grid(nx=8.5, nt=8, T=1.0)


# ---------------------------------------------------------------- fields


def test_space_field_requires_dirichlet_walls():
    g = Grid(nx=8, nt=8)
    vals = np.ones(9)
    with pytest.raises(ValueError):
        SpaceField(vals, g)


def test_space_field_shape_mismatch():
    g = Grid(nx=8, nt=8)
    with pytest.raises(DimensionError):
        SpaceField(np.zeros(10), g)


def test_space_field_sample_zeroes_walls():
    g = Grid(nx=16, nt=8)
    f = SpaceField.sample(g, lambda x: np.sin(np.pi * x))
    assert f.values[0] == 0.0 and f.values[-1] == 0.0


def test_space_time_field_frame0_is_initial_condition():
    g = Grid(nx=8, nt=8)
    rng = np.random.default_rng(RNG_SEED)
    f0 = _random_space_field(g, rng)
    frames = np.zeros((g.nt + 1, g.nx + 1))
    frames[0] = f0.values
    u = SpaceTimeField(frames, g)
    assert np.array_equal(u.frames[0], f0.values)
    assert np.array_equal(u.frame(0).values, f0.values)


def test_fields_are_immutable():
    g = Grid(nx=8, nt=8)
    f = SpaceField.zero(g)
    with pytest.raises(ValueError):
        f.values[3] = 1.0
    u = SpaceTimeField.zero(g)
    with pytest.raises(ValueError):
        u.frames[1, 3] = 1.0


def test_control_shape():
    g = Grid(nx=8, nt=6)
    Control(np.zeros((6, 7)), g)
    with pytest.raises(DimensionError):
        Control(np.zeros((7, 7)), g)


# ---------------------------------------------------------------- l2_norm


def test_l2_zero_field():
    g = Grid(nx=16, nt=8)
    assert l2_norm(SpaceField.zero(g), g) == 0.0


def test_l2_sin_profile_matches_analytic():
    # trapezoid of sin^2(pi x) is exact on the uniform lattice; analytic
    # value 1/sqrt(2) confirmed against scipy.integrate.quad (= 0.5 for
    # the squared integral).
    g = Grid(nx=200, nt=8)
    f = SpaceField.sample(g, lambda x: np.sin(np.pi * x))
    assert abs(l2_norm(f, g) - 1.0 / np.sqrt(2.0)) < 1e-4


def test_l2_homogeneity_exact():
    g = Grid(nx=32, nt=8)
    rng = np.random.default_rng(RNG_SEED)
    f = _random_space_field(g, rng)
    fa = SpaceField(-3.0 * f.values, g)
    assert l2_norm(fa, g) == pytest.approx(3.0 * l2_norm(f, g), rel=1e-15)


def test_l2_triangle_inequality():
    g = Grid(nx=32, nt=8)
    rng = np.random.default_rng(RNG_SEED + 1)
    for _ in range(20):
        a = _random_space_field(g, rng)
        b = _random_space_field(g, rng)
        s = SpaceField(a.values + b.values, g)
        assert l2_norm(s, g) <= l2_norm(a, g) + l2_norm(b, g) + 1e-14


def test_l2_grid_mismatch():
    g = Grid(nx=16, nt=8)
    h = Grid(nx=16, nt=10)
    f = SpaceField.zero(g)
    with pytest.raises(DimensionError):
        l2_norm(f, h)


def test_l2_refinement_second_order():
    # Profile sqrt(sin(pi x)): C-infinity inside, square-root walls, whose
    # squared-norm trapezoid error is -pi*dx^2/6 + O(dx^4).  Exactly sampled
    # C-infinity Dirichlet profiles are superconvergent (the dx^2
    # Euler-Maclaurin endpoint term vanishes with the boundary values), so
    # they cannot exhibit the generic second-order ratio; see companion
    # assertion below.
    exact = np.sqrt(2.0 / np.pi)  # quad-checked analytic value
    errs = []
    for nx in (25, 50, 100):
        g = Grid(nx=nx, nt=8)
        f = SpaceField.sample(g, lambda x: np.sqrt(np.sin(np.pi * x)))
        errs.append(abs(l2_norm(f, g) - exact))
    assert 3.0 < errs[0] / errs[1] < 5.0
    assert 3.0 < errs[1] / errs[2] < 5.0

    # superconvergent companion: smooth Dirichlet profile refines ~16x
    smooth_exact = 0.3118718081723043  # quad oracle for x(1-x)e^x
    serrs = []
    for nx in (25, 50, 100):
        g = Grid(nx=nx, nt=8)
        f = SpaceField.sample(g, lambda x: x * (1 - x) * np.exp(x))
        serrs.append(abs(l2_norm(f, g) - smooth_exact))
    assert serrs[0] / serrs[1] > 5.0


# ---------------------------------------------------------------- sup_t_l2


def test_sup_t_l2_zero():
    g = Grid(nx=8, nt=8)
    assert sup_t_l2(SpaceTimeField.zero(g), g) == 0.0


def test_sup_t_l2_single_frame():
    g = Grid(nx=16, nt=8)
    rng = np.random.default_rng(RNG_SEED + 2)
    f = _random_space_field(g, rng)
    frames = np.zeros((g.nt + 1, g.nx + 1))
    frames[5] = f.values
    u = SpaceTimeField(frames, g)
    assert sup_t_l2(u, g) == pytest.approx(l2_norm(f, g), rel=1e-15)


def test_sup_t_l2_monotone_under_added_frame():
    g = Grid(nx=16, nt=8)
    rng = np.random.default_rng(RNG_SEED + 3)
    frames = rng.standard_normal((g.nt + 1, g.nx + 1))
    frames[:, 0] = frames[:, -1] = 0.0
    u = SpaceTimeField(frames, g)
    base = sup_t_l2(u, g)
    frames2 = frames.copy()
    frames2[7] = 3.0 * frames[7]
    assert sup_t_l2(SpaceTimeField(frames2, g), g) >= base


def test_sup_t_l2_homogeneity_and_triangle():
    g = Grid(nx=16, nt=8)
    rng = np.random.default_rng(RNG_SEED + 4)
    fa = rng.standard_normal((g.nt + 1, g.nx + 1))
    fb = rng.standard_normal((g.nt + 1, g.nx + 1))
    for f in (fa, fb):
        f[:, 0] = f[:, -1] = 0.0
    ua, ub = SpaceTimeField(fa, g), SpaceTimeField(fb, g)
    assert sup_t_l2(SpaceTimeField(-2.0 * fa, g), g) == pytest.approx(
        2.0 * sup_t_l2(ua, g), rel=1e-15
    )
    assert (
        sup_t_l2(SpaceTimeField(fa + fb, g), g)
        <= sup_t_l2(ua, g) + sup_t_l2(ub, g) + 1e-14
    )


# ---------------------------------------------------------------- ht_norm


def test_ht_zero():
    g = Grid(nx=8, nt=8)
    assert ht_norm(Control.zero(g), g) == 0.0


def test_ht_constant_control_weighs_every_interior_cell_dt_dx():
    # dt*dx for each of the nt*(nx-1) cells: T*(nx-1)*dx
    for T in (1.0, 2.5, 0.3):
        g = Grid(nx=16, nt=32, T=T)
        v = Control(np.ones((g.nt, g.nx - 1)), g)
        assert abs(ht_norm(v, g) - np.sqrt(T * (g.nx - 1) * g.dx)) < 1e-12


def test_ht_sin_profile():
    # sum_{j=1}^{nx-1} sin^2(pi j/nx)*dx = 1/2 exactly on the lattice
    for nx in (4, 5, 16, 64, 200):
        g = Grid(nx=nx, nt=64, T=1.0)
        v = Control.sample(g, lambda t, x: np.sin(np.pi * x) + 0.0 * t)
        assert abs(ht_norm(v, g) - 1.0 / np.sqrt(2.0)) < 1e-14


def test_ht_homogeneity_and_triangle():
    g = Grid(nx=12, nt=10, T=0.7)
    rng = np.random.default_rng(RNG_SEED + 5)
    a = rng.standard_normal((g.nt, g.nx - 1))
    b = rng.standard_normal((g.nt, g.nx - 1))
    assert ht_norm(Control(-1.7 * a, g), g) == pytest.approx(
        1.7 * ht_norm(Control(a, g), g), rel=1e-15
    )
    assert (
        ht_norm(Control(a + b, g), g)
        <= ht_norm(Control(a, g), g) + ht_norm(Control(b, g), g) + 1e-14
    )


def test_ht_accepts_plain_arrays():
    g = Grid(nx=8, nt=8, T=1.0)
    assert abs(ht_norm(np.ones((8, 7)), g) - np.sqrt(g.T * (g.nx - 1) * g.dx)) < 1e-12
    with pytest.raises(DimensionError):
        ht_norm(np.ones((8, 8)), g)


# ---------------------------------------------------------------- round trips


def test_csv_round_trip(tmp_path):
    g = Grid(nx=8, nt=6, T=0.75)
    rng = np.random.default_rng(RNG_SEED + 6)
    frames = rng.standard_normal((g.nt + 1, g.nx + 1))
    frames[:, 0] = frames[:, -1] = 0.0
    p = tmp_path / "field.csv"
    write_lattice_csv(p, frames, g)
    back, bg = read_lattice_csv(p)
    assert bg == g
    assert np.array_equal(back, frames)


def test_csv_round_trip_keeps_grid_exactly(tmp_path):
    # 11 * (0.1 / 11) is 0.10000000000000002: the last t node must be T itself
    g = Grid(nx=8, nt=11, T=0.1)
    assert g.t_nodes()[-1] == g.T
    rng = np.random.default_rng(RNG_SEED + 8)
    frames = rng.standard_normal((g.nt + 1, g.nx + 1))
    frames[:, 0] = frames[:, -1] = 0.0
    p = tmp_path / "field.csv"
    write_lattice_csv(p, frames, g)
    back, bg = read_lattice_csv(p)
    assert bg == g
    assert np.array_equal(back, frames)


def test_csv_layout(tmp_path):
    g = Grid(nx=4, nt=4, T=1.0)
    p = tmp_path / "zero.csv"
    write_lattice_csv(p, SpaceTimeField.zero(g).frames, g)
    rows = p.read_text().strip().splitlines()
    header = rows[0].split(",")
    assert header[0] == "t"
    assert [float(v) for v in header[1:]] == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert len(rows) == g.nt + 2
    assert float(rows[1].split(",")[0]) == 0.0
    assert float(rows[-1].split(",")[0]) == 1.0


def test_json_round_trip(tmp_path):
    g = Grid(nx=8, nt=6, T=0.75)
    rng = np.random.default_rng(RNG_SEED + 7)
    frames = rng.standard_normal((g.nt + 1, g.nx + 1))
    frames[:, 0] = frames[:, -1] = 0.0
    u = SpaceTimeField(frames, g)
    # the CLI's field writer; from_json is its reader
    _emit_field(SimpleNamespace(fmt="json", grid=g, out_dir=str(tmp_path)), frames, "field")
    p = tmp_path / "field.json"
    doc = json.loads(p.read_text())
    assert doc["grid"] == {"nx": 8, "nt": 6, "T": 0.75}
    back = SpaceTimeField.from_json(p)
    assert back.grid == g
    assert np.array_equal(back.frames, u.frames)
