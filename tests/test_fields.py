"""Grids, the spectral layout, the multiplier apply, and the field file format."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import conewave.ensembles as ens
import conewave.fields as fields
from conewave import (
    Field,
    FieldFormatError,
    Grid,
    KernelSpec,
    SpacetimeField,
    SpacetimeGrid,
    load_field,
    omega_hat,
    save_field,
)
from conewave.fields import RadialSymbol, symbol_applier


# ---------------------------------------------------------------------------
# grids


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(4, 64, 16.0)
    with pytest.raises(ValueError):
        Grid(1, 100, 16.0)  # not a power of two
    with pytest.raises(ValueError):
        Grid(1, 64, 0.0)
    with pytest.raises(ValueError):
        SpacetimeGrid(Grid(1, 64, 16.0), 48, 16.0)


def test_grid_defaults():
    for n, (points, extent) in {1: (4096, 64.0), 2: (256, 32.0), 3: (64, 16.0)}.items():
        g = Grid.default(n)
        assert (g.points, g.extent) == (points, extent)
    with pytest.raises(ValueError):
        Grid.default(4)


def test_grid_geometry():
    g = Grid(2, 64, 16.0)
    assert g.spacing == 0.25
    assert g.cell_volume == 0.0625
    assert g.axis()[0] == -8.0 and g.axis()[-1] == 8.0 - 0.25
    assert g.shape == (64, 64)


@pytest.mark.parametrize("grid", [Grid(1, 64, 16.0), Grid(2, 16, 8.0)], ids=["n1", "n2"])
def test_radial_index_of_a_spatial_grid(grid):
    # the distinct |xi| in increasing order and each cell's place among
    # them in C order: the radii and scatter of a RadialSymbol on that
    # space, and what the mixed norms evaluate their profile through
    radii, scatter = fields._radial_index(grid)
    assert np.all(np.diff(radii) > 0.0)
    assert radii.size == len(set(grid.freq_radius().ravel().tolist()))
    assert scatter.shape == (int(np.prod(grid.shape)),)
    assert np.array_equal(radii[scatter].reshape(grid.shape), grid.freq_radius())


def test_field_shape_check():
    g = Grid(1, 64, 16.0)
    with pytest.raises(ValueError):
        Field(g, np.zeros(32))


_DTYPE_GRIDS = [
    (Field, Grid(2, 8, 4.0)),
    (SpacetimeField, SpacetimeGrid(Grid(1, 8, 4.0), 4, 2.0)),
]


@pytest.mark.parametrize("kind, grid", _DTYPE_GRIDS, ids=["field", "spacetime"])
@pytest.mark.parametrize("dtype, held", [
    (np.int64, np.float64), (np.float32, np.float64), (np.float64, np.float64),
    (np.complex64, np.complex128), (np.complex128, np.complex128),
])
def test_fields_hold_real_samples_as_float64_and_complex_as_complex128(kind, grid, dtype, held):
    rng = np.random.default_rng(3)
    x = rng.integers(-5, 5, grid.shape) if dtype == np.int64 else rng.standard_normal(grid.shape)
    if np.issubdtype(dtype, np.complexfloating):
        x = x + 1j * rng.standard_normal(grid.shape)
    x = x.astype(dtype)
    f = kind(grid, x)
    assert f.samples.dtype == held
    assert np.array_equal(f.samples, x)
    # an array already of the held dtype is held as it is, not copied
    assert (f.samples is x) == (dtype == held)
    # the guards are those of every dtype
    with pytest.raises(ValueError, match="shape"):
        kind(grid, x[:-1])


def test_fields_hold_lists_by_the_same_rule():
    g = Grid(1, 4, 2.0)
    assert Field(g, [1, 2, 3, 4]).samples.dtype == np.float64
    assert Field(g, [True, False, True, False]).samples.dtype == np.float64
    assert Field(g, [1, 2j, 3, 4]).samples.dtype == np.complex128


# ---------------------------------------------------------------------------
# the continuum reference pair and the spectral layout
#
# Tests judge the multiplier apply against oracles.transform_reference and
# its inverse, whose spectra are laid out at Grid.freq_axis(); these pin
# that pair's normalization and layout.


def _spacings(f) -> tuple:
    if isinstance(f, Field):
        return (f.grid.spacing,) * f.grid.n
    return (f.grid.space.spacing,) * f.grid.space.n + (f.grid.t_spacing,)


def _forward(f):
    return oracles.transform_reference(f.samples, range(f.samples.ndim), _spacings(f))


def _inverse(f, samples):
    return oracles.inverse_transform_reference(samples, range(samples.ndim), _spacings(f))


def test_transform_round_trip_is_identity():
    g = Grid(1, 256, 32.0)
    rng = np.random.default_rng(11)
    f = Field(g, rng.standard_normal(256) + 1j * rng.standard_normal(256))
    back = _inverse(f, _forward(f))
    assert np.max(np.abs(back - f.samples)) < 1e-13


def test_gaussian_is_its_own_transform():
    # exp(-pi x^2) is the fixed point of this unitary convention
    g = Grid(1, 1024, 64.0)
    f = ens.gaussian(g, 1.0)
    want = np.exp(-np.pi * g.freq_axis()**2)
    assert np.max(np.abs(_forward(f) - want)) < 1e-12


def test_parseval():
    g = Grid(2, 64, 16.0)
    rng = np.random.default_rng(3)
    f = Field(g, rng.standard_normal(g.shape))
    phys = np.sum(np.abs(f.samples) ** 2) * f.cell_volume
    spec = np.sum(np.abs(_forward(f)) ** 2) * (1.0 / g.extent) ** g.n
    assert phys == pytest.approx(spec, rel=1e-12)


def test_delta_like_has_flat_transform():
    g = Grid(1, 256, 32.0)
    # unit mass in one sample at the origin: value 1 / cell volume
    samples = np.zeros(g.shape)
    samples[g.points // 2] = 1.0 / g.cell_volume
    assert np.max(np.abs(_forward(Field(g, samples)) - 1.0)) < 1e-12


def test_pure_tone_transforms_to_a_spike():
    g = Grid(1, 128, 32.0)
    # exp(2 pi i k x / L) at the exact grid frequency k / L, k = 5
    f = Field(g, np.exp(2j * np.pi * 5 * g.axis() / g.extent))
    k = int(np.argmax(np.abs(_forward(f))))
    assert g.freq_axis()[k] == pytest.approx(5 / g.extent)


def test_spacetime_transform_round_trip():
    sg = SpacetimeGrid(Grid(1, 64, 16.0), 128, 32.0)
    rng = np.random.default_rng(7)
    f = SpacetimeField(sg, rng.standard_normal(sg.shape))
    back = _inverse(f, _forward(f))
    assert np.max(np.abs(back - f.samples)) < 1e-13


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_transform_round_trip_random(seed):
    g = Grid(1, 64, 16.0)
    rng = np.random.default_rng(seed)
    f = Field(g, rng.standard_normal(64))
    back = _inverse(f, _forward(f))
    assert np.max(np.abs(back - f.samples)) < 1e-12


def _reflect(a: np.ndarray) -> np.ndarray:
    # a[-k mod N] on every axis
    return np.roll(np.flip(a), 1, axis=tuple(range(a.ndim)))


@pytest.mark.parametrize("kind", ["real", "complex", "complex-typed real"])
def test_symbol_applier_takes_stacks_of_symbols_on_a_spatial_field(kind):
    # a stack of symbols along a leading axis gives, row by row, the bits of
    # one apply per symbol, and each agrees with the full complex pair
    rng = np.random.default_rng(9)
    grid = Grid(2, 16, 8.0)
    x = rng.standard_normal(grid.shape)
    if kind == "complex":
        x = x + 1j * rng.standard_normal(x.shape)
    elif kind == "complex-typed real":
        x = x.astype(np.complex128)
    keep = x.copy()
    raw = rng.standard_normal((3,) + grid.shape)
    stack = np.stack([a + _reflect(a) for a in raw])
    apply = symbol_applier(Field(grid, x))
    out = apply(stack)
    assert np.array_equal(x, keep)
    assert out.shape == stack.shape
    assert out.dtype == (np.complex128 if kind == "complex" else np.float64)
    spacings = (grid.spacing,) * grid.n
    for m, row in zip(stack, out):
        assert np.array_equal(row, apply(m))
        want = oracles.inverse_transform_reference(
            m * oracles.transform_reference(x, (0, 1), spacings), (0, 1), spacings)
        assert np.linalg.norm(row - want) <= 1e-13 * np.linalg.norm(want)


def _symmetric(rng, shape) -> np.ndarray:
    # a real table equal to its point reflection to the last bit
    a = rng.standard_normal(shape)
    return a + _reflect(a)


@pytest.mark.parametrize("grid", [Grid(2, 256, 32.0), Grid(3, 32, 8.0)], ids=["256^2", "32^3"])
def test_symbol_applier_has_the_bits_of_the_plain_transform_pair(grid):
    # the spectrum in one out= buffer and the inverse run in place give the
    # bits of numpy's own n-d pair, real, complex and on a leading-axis
    # block of symbols as mixed_norms applies it
    rng = np.random.default_rng(13)
    shape = grid.shape
    axes = tuple(range(len(shape)))
    half = shape[-1] // 2 + 1
    m = _symmetric(rng, shape)
    x = rng.standard_normal(shape)
    want = np.fft.irfftn(np.fft.rfftn(x) * m[..., :half], s=shape, axes=axes)
    assert np.array_equal(symbol_applier(Field(grid, x))(m), want)
    z = Field(grid, x + 1j * rng.standard_normal(shape))
    assert np.array_equal(symbol_applier(z)(m), np.fft.ifftn(np.fft.fftn(z.samples) * m))
    block = np.stack([m, _symmetric(rng, shape)])
    lead = tuple(k + 1 for k in axes)
    want = np.fft.irfftn(np.fft.rfftn(x) * block[..., :half], s=shape, axes=lead)
    assert np.array_equal(symbol_applier(Field(grid, x))(block), want)
    assert np.array_equal(symbol_applier(z)(block),
                          np.fft.ifftn(np.fft.fftn(z.samples) * block, axes=lead))


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_a_reused_symbol_applier_keeps_its_spectrum(kind):
    # an apply multiplies into a copy, so one symbol gives the same bits
    # before and after others, stacks included
    rng = np.random.default_rng(17)
    grid = Grid(3, 16, 8.0)
    shape = grid.shape
    x = rng.standard_normal(shape)
    if kind == "complex":
        x = x + 1j * rng.standard_normal(shape)
    first, second = _symmetric(rng, shape), _symmetric(rng, shape)
    apply = symbol_applier(Field(grid, x))
    before = apply(first)
    apply(second)
    apply(np.stack([second, first]))
    assert np.array_equal(apply(first), before)


def _radial(rng, grid: SpacetimeGrid, scale: float = 1.0) -> RadialSymbol:
    # random rows, one per distinct |xi|, each equal to its tau reflection
    # to the last bit
    a = scale * rng.standard_normal((np.unique(grid.space.freq_radius()).size, grid.t_points))
    return RadialSymbol(grid, a + np.roll(a[:, ::-1], 1, axis=1))


_RADIAL_GRIDS = [SpacetimeGrid(Grid(1, 16, 4.0), 8, 2.0), SpacetimeGrid(Grid(1, 8, 4.0), 16, 4.0),
                 SpacetimeGrid(Grid(2, 8, 4.0), 4, 2.0), SpacetimeGrid(Grid(2, 4, 2.0), 8, 2.0),
                 SpacetimeGrid(Grid(1, 8, 2.0), 2, 1.0)]


@pytest.mark.parametrize("grid", _RADIAL_GRIDS, ids=lambda g: "x".join(map(str, g.shape)))
@pytest.mark.parametrize("kind", ["real", "complex", "complex-typed real"])
def test_relative_norm_is_the_distance_of_the_two_outputs(kind, grid):
    # by Parseval on the held spectrum: the half spectrum's columns other
    # than tau = 0 and Nyquist count twice, the full spectrum's once; the
    # symbol of m1 - m0 measures the distance of the two outputs
    rng = np.random.default_rng(41)
    x = rng.standard_normal(grid.shape)
    if kind == "complex":
        x = x + 1j * rng.standard_normal(grid.shape)
    elif kind == "complex-typed real":
        x = x.astype(np.complex128)
    m0 = _radial(rng, grid)
    m1 = RadialSymbol(grid, m0.rows + _radial(rng, grid, 0.01).rows)
    d = RadialSymbol(grid, m1.rows - m0.rows)
    apply = symbol_applier(SpacetimeField(grid, x))
    base = apply(m0)
    cells = m0.array()
    if kind == "complex":
        pair = np.fft.ifftn(np.fft.fftn(x) * cells)
    else:
        half = cells[..., :grid.t_points // 2 + 1]
        pair = np.fft.irfftn(np.fft.rfftn(x.real) * half, s=grid.shape,
                             axes=range(x.ndim))
    assert np.array_equal(base, pair)
    moved = np.linalg.norm(apply(m1) - base)
    want = moved / np.linalg.norm(base)
    assert apply.relative_norm(d, m0) == pytest.approx(want, rel=1e-12, abs=1e-15)
    # the same value again from the kept power, and the change itself for
    # a zero base output
    assert apply.relative_norm(d, m0) == apply.relative_norm(d, m0)
    zero = RadialSymbol(grid, 0.0 * m0.rows)
    assert apply.relative_norm(m1, zero) == pytest.approx(np.linalg.norm(apply(m1)), rel=1e-12)
    assert symbol_applier(SpacetimeField(grid, 0.0 * x)).relative_norm(d, m0) == 0.0


@pytest.mark.parametrize("route", ["generic", "orthant"])
def test_an_apply_given_up_to_last_refuses_every_later_request(route):
    # last(m) gives the spectrum (or the even member's factors) up to the
    # output, so an apply, a second last and a relative norm after it all
    # raise the one error that says so
    grid = SpacetimeGrid(Grid(1, 32, 8.0), 32, 8.0)
    f = ens.separable_gaussian(grid, 1.0)
    whole = SpacetimeField(grid, np.multiply(f.space[..., None], f.time))
    source = f if route == "orthant" else whole
    m = _radial(np.random.default_rng(47), grid)
    apply = symbol_applier(source)
    out = apply.last(m)
    assert isinstance(out, fields._Orthant if route == "orthant" else fields._Inverse)
    for call in (lambda: apply(m), lambda: apply.last(m), lambda: apply.relative_norm(m, m)):
        with pytest.raises(RuntimeError, match=r"given up to last\(m\)"):
            call()


def test_a_radial_symbol_is_real_even_in_tau_and_read_only():
    # every refusal names what is wrong with the rows; the rows kept are a
    # read-only copy, and array() gathers them to every cell
    grid = SpacetimeGrid(Grid(2, 8, 4.0), 8, 2.0)
    m = _radial(np.random.default_rng(43), grid)
    rows = m.rows.copy()
    assert rows.shape == (np.unique(grid.space.freq_radius()).size, grid.t_points)
    with pytest.raises(ValueError, match="real"):
        RadialSymbol(grid, rows.astype(np.complex128))
    for k in (1, 3, 5, 7):
        broken = rows.copy()
        broken[2, k] = np.nextafter(broken[2, k], np.inf)  # one unit in the last place
        with pytest.raises(ValueError, match="tau reflection"):
            RadialSymbol(grid, broken)
    for k in (0, 4):  # tau = 0 and Nyquist are their own reflections
        edge = rows.copy()
        edge[2, k] += 1.0
        RadialSymbol(grid, edge)
    for wrong in (rows[:-1], np.vstack([rows, rows[:1]]), rows[:, :-1], np.hstack([rows, rows])):
        with pytest.raises(ValueError, match="distinct"):
            RadialSymbol(grid, wrong)
    for held in (m.rows, m.scatter):
        with pytest.raises(ValueError, match="read-only"):
            held[0] = 0
    source = rows.copy()
    kept = RadialSymbol(grid, source)
    source[0, 0] += 1.0
    assert np.array_equal(kept.rows, rows)
    cells = m.array()
    assert cells.shape == grid.shape and cells.flags.writeable
    k = np.searchsorted(np.unique(grid.space.freq_radius()), grid.space.freq_radius())
    assert np.array_equal(cells, rows[k])


# ---------------------------------------------------------------------------
# kernel convolution: f * Omega_r through the one multiplier apply, with
# the exact profile at r |xi| as the symbol


def _convolve_omega(f: Field, spec: KernelSpec, r: float) -> np.ndarray:
    return symbol_applier(f)(omega_hat(r * f.grid.freq_radius(), spec))


def test_convolve_omega_small_scale_limit():
    # as r -> 0 the mass-preserving dilation concentrates: f * k_r -> mass * f
    g = Grid(1, 512, 32.0)
    f = ens.gaussian(g, 1.0)
    spec = KernelSpec(0.5, 1)
    out = _convolve_omega(f, spec, 1e-3)
    assert np.max(np.abs(out - omega_hat(0.0, spec) * f.samples)) < 1e-4


def test_convolve_omega_is_spectral_multiplication():
    g = Grid(1, 256, 32.0)
    rng = np.random.default_rng(5)
    f = Field(g, rng.standard_normal(256))
    spec = KernelSpec(0.4, 1)
    r = 1.7
    out = _forward(Field(g, _convolve_omega(f, spec, r)))
    want = _forward(f) * omega_hat(r * g.freq_axis(), spec)
    assert np.max(np.abs(out - want)) < 1e-10


# ---------------------------------------------------------------------------
# file format


def test_save_load_round_trip(tmp_path):
    # a time axis of its own size and extent comes back from the sidecar
    sg = SpacetimeGrid(Grid(2, 16, 8.0), 64, 16.0)
    rng = np.random.default_rng(1)
    f = SpacetimeField(sg, rng.standard_normal(sg.shape) + 1j * rng.standard_normal(sg.shape))
    path = tmp_path / "field.npz"
    save_field(f, path)
    back = load_field(path)
    assert isinstance(back, SpacetimeField)
    assert back.grid == f.grid
    assert back.grid.t_points == 64
    assert np.array_equal(back.samples, f.samples)


def test_save_field_writes_the_sidecar_text(tmp_path):
    # the sidecar's bytes are part of the file format, which op-apply's
    # result.field.json carries
    g = SpacetimeGrid(Grid(1, 256, 64.0), 256, 64.0)
    save_field(SpacetimeField(g, np.zeros(g.shape)), tmp_path / "f.field")
    assert (tmp_path / "f.field.json").read_bytes() == (
        b'{\n'
        b'  "L": 64.0,\n'
        b'  "L_t": 64.0,\n'
        b'  "N": 256,\n'
        b'  "N_t": 256,\n'
        b'  "domain_tag": "physical",\n'
        b'  "kind": "spacetime",\n'
        b'  "n": 1,\n'
        b'  "version": 1\n'
        b'}\n'
    )


def test_save_load_is_bit_exact_on_special_values(tmp_path):
    # signed zeros, infinities and nans survive the round trip bit for bit,
    # and the file holds the interleaved little-endian (re, im) pairs
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 2.0, -1.5])
    re, im = np.meshgrid(special, special, indexing="ij")
    g = SpacetimeGrid(Grid(1, 8, 4.0), 8, 4.0)
    samples = np.empty(g.shape, np.complex128)
    samples.real, samples.imag = re, im
    f = SpacetimeField(g, samples)
    path = tmp_path / "special.field"
    save_field(f, path)
    back = load_field(path)
    assert back.samples.dtype == np.complex128
    assert back.samples.tobytes() == f.samples.tobytes()
    inter = np.empty(2 * samples.size, dtype="<f8")
    inter[0::2], inter[1::2] = re.ravel(), im.ravel()
    assert path.read_bytes() == inter.tobytes()


@pytest.mark.parametrize("make", [
    lambda: SpacetimeField(SpacetimeGrid(Grid(2, 16, 8.0), 8, 4.0),
                           np.random.default_rng(2).standard_normal((16, 16, 8))),
    lambda: ens.gaussian_spacetime(SpacetimeGrid(Grid(1, 16, 8.0), 8, 4.0), 1.0),
], ids=["random", "gaussian"])
def test_a_float64_field_saves_the_bytes_of_its_complex_widening(tmp_path, make):
    f = make()
    assert f.samples.dtype == np.float64
    wide = SpacetimeField(f.grid, f.samples.astype(np.complex128))
    save_field(f, tmp_path / "real.field")
    save_field(wide, tmp_path / "wide.field")
    assert (tmp_path / "real.field").read_bytes() == (tmp_path / "wide.field").read_bytes()
    assert ((tmp_path / "real.field.json").read_bytes()
            == (tmp_path / "wide.field.json").read_bytes())
    back = load_field(tmp_path / "real.field")
    assert back.samples.dtype == np.complex128
    assert back.samples.tobytes() == wide.samples.tobytes()


_SAVE_GRID = SpacetimeGrid(Grid(1, 64, 8.0), 64, 8.0)


@pytest.mark.parametrize("block", [2**17, 1000, 7])
@pytest.mark.parametrize("make", [
    lambda: SpacetimeField(_SAVE_GRID, np.random.default_rng(3).standard_normal((64, 64))),
    lambda: SpacetimeField(_SAVE_GRID, np.random.default_rng(3).standard_normal((64, 64))
                           + 1j * np.random.default_rng(4).standard_normal((64, 64))),
    lambda: SpacetimeField(SpacetimeGrid(Grid(1, 32, 8.0), 8, 4.0),
                           np.random.default_rng(5).standard_normal((32, 8))),
    lambda: SpacetimeField(SpacetimeGrid(Grid(1, 16, 8.0), 16, 8.0),
                           np.random.default_rng(6).standard_normal((16, 16)).T),
], ids=["float", "complex", "spacetime-32x8", "transposed-view"])
def test_save_field_writes_the_whole_widening_block_by_block(tmp_path, monkeypatch, make, block):
    # blocks that do not divide the field, and a view that is not in C
    # order, write the bytes of the field's whole complex128 widening
    monkeypatch.setattr(fields, "_SAVE_BLOCK", block)
    f = make()
    save_field(f, tmp_path / "f.field")
    assert (tmp_path / "f.field").read_bytes() == \
        np.ascontiguousarray(f.samples, dtype="<c16").tobytes()


def test_save_field_holds_no_widened_copy_of_the_field(tmp_path):
    # a whole complex128 widening of a float64 field is twice its bytes
    g = SpacetimeGrid(Grid(1, 1024, 32.0), 1024, 32.0)
    f = SpacetimeField(g, np.random.default_rng(7).standard_normal(g.shape))
    tracemalloc.start()
    try:
        save_field(f, tmp_path / "big.field")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * f.samples.nbytes
    assert (tmp_path / "big.field").stat().st_size == 2 * f.samples.nbytes


def test_load_rejects_garbage(tmp_path):
    bad = tmp_path / "junk.npz"
    bad.write_bytes(b"not an archive")
    with pytest.raises(FieldFormatError):
        load_field(bad)
    with pytest.raises(FieldFormatError):
        load_field(tmp_path / "missing.npz")


def _saved_with(tmp_path, **changes):
    # a saved spacetime field whose sidecar has the given keys changed (to
    # None: removed); returns the field's path
    path = tmp_path / "f.field"
    save_field(SpacetimeField(SpacetimeGrid(Grid(1, 64, 16.0), 64, 16.0), np.zeros((64, 64))),
               path)
    sidecar = tmp_path / "f.field.json"
    meta = json.loads(sidecar.read_text())
    for key, value in changes.items():
        if value is None:
            del meta[key]
        else:
            meta[key] = value
    sidecar.write_text(json.dumps(meta))
    return path


@pytest.mark.parametrize("key, value", [
    ("N", 64.9),
    ("N_t", 64.5),
    ("n", True),
    ("N", 64.0),
    ("N_t", "64"),
])
def test_load_refuses_sizes_that_are_not_integers(tmp_path, key, value):
    # a float size would be truncated and a boolean read as 1; the sidecar
    # must carry JSON integers
    with pytest.raises(FieldFormatError, match=f"{key} must be an integer"):
        load_field(_saved_with(tmp_path, **{key: value}))


@pytest.mark.parametrize("key, value", [
    ("L", True),
    ("L", "16"),
    ("L_t", "1e1"),
    ("L_t", float("inf")),
    ("L", float("nan")),
    ("L", False),
    ("L", "16.0"),
    ("L", float("-inf")),
])
def test_load_refuses_extents_that_are_not_finite_numbers(tmp_path, key, value):
    # a boolean would load as extent 1.0 and a string would be parsed
    with pytest.raises(FieldFormatError, match=f"{key} must be a finite number"):
        load_field(_saved_with(tmp_path, **{key: value}))


@pytest.mark.parametrize("key, value", [
    ("kind", "field"),
    ("kind", None),
    ("domain_tag", "spectral"),
    ("domain_tag", None),
])
def test_load_refuses_a_sidecar_that_is_not_a_physical_spacetime_field(tmp_path, monkeypatch,
                                                                       key, value):
    # a spatial or spectral sidecar, or one that does not say, is refused
    # before the samples are read
    def never(*args, **kwargs):
        raise AssertionError("read the samples")

    path = _saved_with(tmp_path, **{key: value})
    monkeypatch.setattr(np, "fromfile", never)
    with pytest.raises(FieldFormatError, match=f"{key} must be"):
        load_field(path)


@pytest.mark.parametrize("version", ["x", 99, None, True, 1.0])
def test_load_refuses_any_version_but_the_integer_one(tmp_path, monkeypatch, version):
    # another format, a missing version, or a boolean or float that equals
    # 1 is refused before the samples are read
    def never(*args, **kwargs):
        raise AssertionError("read the samples")

    path = _saved_with(tmp_path, version=version)
    monkeypatch.setattr(np, "fromfile", never)
    with pytest.raises(FieldFormatError, match="version"):
        load_field(path)


@pytest.mark.parametrize("meta", [[], ["kind", "field"], "field", 3, None])
def test_load_refuses_a_sidecar_that_is_not_an_object(tmp_path, meta):
    # any JSON value parses; only an object carries the keys
    path = _saved_with(tmp_path)
    (tmp_path / "f.field.json").write_text(json.dumps(meta))
    with pytest.raises(FieldFormatError, match="expected a JSON object"):
        load_field(path)


def test_load_refuses_a_sidecar_that_is_not_utf8(tmp_path):
    path = _saved_with(tmp_path)
    (tmp_path / "f.field.json").write_bytes(b"\xff\xfe{}")
    with pytest.raises(FieldFormatError, match="cannot read sidecar"):
        load_field(path)


@pytest.mark.parametrize("blob", ["missing", "directory"])
def test_load_refuses_an_unreadable_blob(tmp_path, blob):
    # a valid sidecar next to samples that cannot be read
    path = _saved_with(tmp_path)
    path.unlink()
    if blob == "directory":
        path.mkdir()
    with pytest.raises(FieldFormatError, match="cannot read samples"):
        load_field(path)


def test_load_accepts_an_integer_extent(tmp_path):
    back = load_field(_saved_with(tmp_path, L=16, L_t=16))
    assert back.grid.space.extent == 16.0 and back.grid.t_extent == 16.0
