"""Sampled fields on periodic grids, the one multiplier apply, and file I/O.

Conventions, fixed once here and relied on everywhere else:

* every field holds physical samples, in centered order, i.e. sample k
  sits at x = (k - N//2) * spacing, so the domain is [-L/2, L/2);
  spectra exist only inside the multiplier apply, in FFT layout at the
  frequencies numpy.fft.fftfreq(N, spacing);
* complex samples are held as complex128 and all others as float64, so
  real fields stay real; the file format is complex128 either way;
* a Fourier multiplier that is real and equal to its point reflection,
  as every operator symbol and kernel profile of this package is, is
  applied by symbol_applier, the package's one multiplier apply, which
  checks each multiplier against its input's type and grid: a circular
  convolution, so it needs neither a centering shift nor a spacing
  scale, and real inputs take real-input FFTs on the half spectrum of
  the last axis and stay real; the same held spectrum gives the L2 norm
  of one symbol's output relative to another's by Parseval, with no
  inverse transform;
* a spacetime symbol is a RadialSymbol: it depends on (|xi|, tau) alone,
  so it is held as one row per distinct |xi| and is even in xi by type;
  its rows are checked once, when it is built, to be real and even in
  tau, so it equals its point reflection on every axis; a spacetime
  input takes no other multiplier, and a spatial one takes plain arrays;
* a physical spacetime field that is a product space(x) time(t) may be
  held as its two factors (SeparableField), which symbol_applier
  transforms one factor at a time; when both factors are even on every
  axis, so is the output under a RadialSymbol, and the single-use apply
  (the applier's last) forms its nonnegative orthant alone.

The torus stands in for R^n: inputs are expected to decay well inside the
box, and kernels enter through their exact continuum multipliers rather
than periodized physical densities.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "FieldFormatError",
    "Grid",
    "Field",
    "SpacetimeGrid",
    "SpacetimeField",
    "SeparableField",
    "RadialSymbol",
    "symbol_applier",
    "save_field",
    "load_field",
]

_FORMAT_VERSION = 1
_SAVE_BLOCK = 2**17  # samples widened and written at a time by save_field
_GATHER = 2**15  # symbol samples gathered from a RadialSymbol's rows at a time


class FieldFormatError(ValueError):
    """Malformed field file or sidecar."""


def _as_samples(samples) -> np.ndarray:
    # complex input is held as complex128 and every other input as float64,
    # without a copy when it already has that dtype
    arr = np.asarray(samples)
    return arr.astype(np.complex128 if np.iscomplexobj(arr) else np.float64, copy=False)


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [-L/2, L/2)^n with N samples per axis."""

    n: int
    points: int
    extent: float

    def __post_init__(self):
        if self.n not in (1, 2, 3):
            raise ValueError(f"dimension must be 1, 2 or 3, got {self.n}")
        p = self.points
        if not isinstance(p, (int, np.integer)) or p < 2 or (p & (p - 1)):
            raise ValueError(f"points per axis must be a power of two >= 2, got {p}")
        if not (np.isfinite(self.extent) and self.extent > 0):
            raise ValueError(f"extent must be > 0, got {self.extent}")
        object.__setattr__(self, "points", int(p))
        object.__setattr__(self, "extent", float(self.extent))

    @property
    def spacing(self) -> float:
        return self.extent / self.points

    @property
    def shape(self) -> tuple:
        return (self.points,) * self.n

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.n

    def axis(self) -> np.ndarray:
        return (np.arange(self.points) - self.points // 2) * self.spacing

    def freq_axis(self) -> np.ndarray:
        return np.fft.fftfreq(self.points, self.spacing)

    def radius(self) -> np.ndarray:
        """|x| on the full grid, centered order."""
        axes = np.meshgrid(*(self.axis(),) * self.n, indexing="ij", sparse=True)
        return np.sqrt(sum(a**2 for a in axes))

    def freq_radius(self) -> np.ndarray:
        """|xi| on the full grid, FFT order."""
        axes = np.meshgrid(*(self.freq_axis(),) * self.n, indexing="ij", sparse=True)
        return np.sqrt(sum(a**2 for a in axes))

    @classmethod
    def default(cls, n: int) -> "Grid":
        # sized so every standard run finishes in seconds while keeping
        # frequency resolution 1/L fine enough for the oscillatory symbols
        table = {1: (4096, 64.0), 2: (256, 32.0), 3: (64, 16.0)}
        if n not in table:
            raise ValueError(f"no default grid for dimension {n}")
        pts, ext = table[n]
        return cls(n, pts, ext)


@dataclass(frozen=True, eq=False)
class Field:
    """Physical samples of a function on a Grid.

    Complex samples are held as complex128 and every other kind (real,
    integer, boolean) as float64; an array that already has that dtype is
    held as it is, not copied.  So a real field stays real through the
    ensembles, the multiplier apply and the norms.
    """

    grid: Grid
    samples: np.ndarray

    def __post_init__(self):
        arr = _as_samples(self.samples)
        if arr.shape != self.grid.shape:
            raise ValueError(f"samples shape {arr.shape} != grid shape {self.grid.shape}")
        object.__setattr__(self, "samples", arr)

    @property
    def cell_volume(self) -> float:
        return self.grid.cell_volume


@dataclass(frozen=True)
class SpacetimeGrid:
    """Product of a spatial Grid and one temporal axis (also periodic)."""

    space: Grid
    t_points: int
    t_extent: float

    def __post_init__(self):
        p = self.t_points
        if not isinstance(p, (int, np.integer)) or p < 2 or (p & (p - 1)):
            raise ValueError(f"time points must be a power of two >= 2, got {p}")
        if not (np.isfinite(self.t_extent) and self.t_extent > 0):
            raise ValueError(f"time extent must be > 0, got {self.t_extent}")
        object.__setattr__(self, "t_points", int(p))
        object.__setattr__(self, "t_extent", float(self.t_extent))

    @property
    def t_spacing(self) -> float:
        return self.t_extent / self.t_points

    @property
    def shape(self) -> tuple:
        return self.space.shape + (self.t_points,)

    @property
    def cell_volume(self) -> float:
        return self.space.cell_volume * self.t_spacing

    def t_axis(self) -> np.ndarray:
        return (np.arange(self.t_points) - self.t_points // 2) * self.t_spacing

    def t_freq_axis(self) -> np.ndarray:
        return np.fft.fftfreq(self.t_points, self.t_spacing)


@dataclass(frozen=True, eq=False)
class SpacetimeField:
    """Physical samples of a function of (x, t) on a SpacetimeGrid.

    Held by Field's dtype rule: complex128 for complex samples, float64 for
    every other kind, with no copy of an array already of that dtype.
    """

    grid: SpacetimeGrid
    samples: np.ndarray

    def __post_init__(self):
        arr = _as_samples(self.samples)
        if arr.shape != self.grid.shape:
            raise ValueError(f"samples shape {arr.shape} != grid shape {self.grid.shape}")
        object.__setattr__(self, "samples", arr)

    @property
    def cell_volume(self) -> float:
        return self.grid.cell_volume


@dataclass(frozen=True, eq=False)
class SeparableField:
    """A spacetime field space(x) time(t), held as its two factors.

    space is sampled on grid.space and time on the time axis, both real
    and finite; they are held as float64 (without a copy of an array
    already of that dtype), and the (n+1)-dimensional samples are never
    formed.  symbol_applier transforms the factors one axis group each,
    so the member's first full-size array is its half spectrum, and
    analysis.lp_norm takes its norm as the product of the factors' norms.
    """

    grid: SpacetimeGrid
    space: np.ndarray
    time: np.ndarray

    def __post_init__(self):
        for name, want in (("space", self.grid.space.shape), ("time", (self.grid.t_points,))):
            arr = np.asarray(getattr(self, name))
            if np.iscomplexobj(arr):
                raise ValueError(f"{name} factor must be real, got dtype {arr.dtype}")
            arr = arr.astype(np.float64, copy=False)
            if arr.shape != want:
                raise ValueError(f"{name} factor shape {arr.shape} != grid shape {want}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} factor has non-finite samples")
            object.__setattr__(self, name, arr)

    @property
    def shape(self) -> tuple:
        return self.grid.shape

    @property
    def cell_volume(self) -> float:
        return self.grid.cell_volume


@dataclass(frozen=True, eq=False)
class RadialSymbol:
    """A real Fourier multiplier on a spacetime grid that depends on |xi|
    and tau alone: rows[k] is the symbol over the whole tau axis (FFT
    layout) at the k-th distinct |xi| of grid.space, in increasing order,
    and scatter[c], derived from the grid, is the row of spatial cell c
    (C order).  The rows are kept as a read-only float64 copy, refused
    unless they are real, of shape (distinct |xi|, N_t) and equal to their
    tau reflection rows[:, -k mod N_t] to the last bit; so the symbol
    equals its point reflection on every axis.  array() is the symbol on
    every cell of the grid.
    """

    grid: SpacetimeGrid
    rows: np.ndarray
    scatter: np.ndarray = field(init=False)

    def __post_init__(self):
        rows = np.asarray(self.rows)
        if not np.iscomplexobj(rows):
            rows = np.array(rows, dtype=np.float64)  # the caller's array stays its own
        _hold(self, rows, _radial_index(self.grid.space)[1])

    def array(self) -> np.ndarray:
        """The symbol on every cell of the grid, a fresh float64 array."""
        return self.rows[self.scatter].reshape(self.grid.shape)


def _radial_index(grid: Grid) -> tuple:
    # (the distinct |xi| of the spatial grid in increasing order, the index
    # of each cell's |xi| among them in C order): a RadialSymbol's radii
    # and its scatter, for the symbol's grid.space
    return np.unique(grid.freq_radius().ravel(), return_inverse=True)


def _adopt(grid: SpacetimeGrid, rows: np.ndarray, scatter: np.ndarray) -> RadialSymbol:
    # the RadialSymbol of rows on grid, checked as the constructor checks
    # them, that holds rows itself, frozen in place, not a copy: for a
    # fresh float64 array the package made and touches no more.  scatter
    # is grid's (_radial_index of grid.space, or a symbol's on grid)
    m = object.__new__(RadialSymbol)
    object.__setattr__(m, "grid", grid)
    _hold(m, rows, scatter)
    return m


def _hold(m: RadialSymbol, rows: np.ndarray, scatter: np.ndarray) -> None:
    # m holds rows and scatter, read-only, once rows pass the symbol's
    # checks on m's grid
    if rows.dtype != np.float64:
        raise ValueError(f"symbol rows must be real, got dtype {rows.dtype}")
    want = (int(scatter.max()) + 1, m.grid.t_points)
    if rows.shape != want:
        raise ValueError(f"symbol rows of shape {rows.shape} != (distinct |xi|, N_t) = {want}")
    if not np.array_equal(rows[:, 1:], rows[:, :0:-1]):
        raise ValueError("symbol rows must equal their tau reflection rows[:, -k mod N_t]")
    rows.flags.writeable = False
    scatter.flags.writeable = False
    object.__setattr__(m, "rows", rows)
    object.__setattr__(m, "scatter", scatter)


def _blocks(cells: int, width: int):
    # slices of a run of cells (a RadialSymbol's, in C order), in blocks of
    # at most _GATHER samples over width tau columns, each gathered as
    # m.rows[scatter[block], :width]
    step = max(1, _GATHER // width)
    return (slice(start, start + step) for start in range(0, cells, step))


def _multiply(spectrum: np.ndarray, m, out: np.ndarray | None = None) -> np.ndarray:
    # spectrum times m on spectrum's columns, into out (fresh when None):
    # an array m is sliced to them, a RadialSymbol gathered a block at a time
    width = spectrum.shape[-1]
    if not isinstance(m, RadialSymbol):
        return np.multiply(spectrum, m[..., :width], out=out)
    if out is None:
        out = np.empty_like(spectrum)
    src, dst = spectrum.reshape(-1, width), out.reshape(-1, width)
    for c in _blocks(m.scatter.size, width):
        np.multiply(src[c], m.rows[m.scatter[c], :width], out=dst[c])
    return out


def _spectrum(samples):
    # (spectrum, real): the half spectrum over the last axis when the
    # samples are real (real is True), else the full one, in one fresh
    # buffer; numpy's n-d transforms write their first stage into out= and
    # run the later ones in place there.  A separable member's half
    # spectrum is the outer product of its factors' transforms, the full
    # one of space and the half one of time, which the product writes
    # into its one fresh buffer.
    if isinstance(samples, SeparableField):
        return np.multiply(np.fft.fftn(samples.space)[..., None], np.fft.rfft(samples.time)), True
    shape = samples.shape
    axes = tuple(range(len(shape)))
    if np.iscomplexobj(samples) and np.any(samples.imag):
        return np.fft.fftn(samples, axes=axes, out=np.empty(shape, np.complex128)), False
    buf = np.empty(shape[:-1] + (shape[-1] // 2 + 1,), np.complex128)
    return np.fft.rfftn(samples.real, axes=axes, out=buf), True


class _Inverse:
    # buf on its way back to samples of the given shape over its trailing
    # axes, the one inverse transform.  A real half spectrum takes
    # irfftn's steps: the ifft over the leading axes in increasing order
    # runs here, in place, and the last axis's irfft runs on request,
    # over all rows into a fresh float64 array (whole) or over the rows
    # that hold a range of the output (part), so the bits are irfftn's
    # either way.  A complex spectrum takes its whole ifftn in place here
    # (numpy's ifftn transforms axis 0 last, so no row is final before
    # then), and both return views of buf.

    def __init__(self, buf: np.ndarray, shape: tuple, real: bool):
        axes = tuple(range(buf.ndim - len(shape), buf.ndim))
        if real:
            for k in axes[:-1]:
                np.fft.ifft(buf, axis=k, out=buf)
        else:
            np.fft.ifftn(buf, axes=axes, out=buf)
        self._buf, self._real, self._width = buf, real, shape[-1]
        self.size = buf.size // buf.shape[-1] * shape[-1]

    def whole(self) -> np.ndarray:
        if not self._real:
            return self._buf
        return np.fft.irfft(self._buf, self._width, axis=-1)

    def part(self, a: int, b: int) -> np.ndarray:
        # elements a..b-1 of the output in C order, as one row (1, b - a):
        # only the rows that hold them are transformed
        held, cut = _span(a, b, self._width)
        rows = self._buf.reshape(-1, self._buf.shape[-1])[held]
        if self._real:
            rows = np.fft.irfft(rows, self._width, axis=-1)
        return rows.reshape(1, -1)[:, cut]


def _span(a: int, b: int, width: int) -> tuple:
    # the rows of an array of the given row width that hold its elements
    # a..b-1 (C order), and where those elements sit in the rows flattened
    first = a // width
    return slice(first, -(-b // width)), slice(a - first * width, b - first * width)


def _is_even(f) -> bool:
    # whether f is a SeparableField whose factors equal their reflections
    # on every axis to the last bit: sample k of an axis equals sample
    # N - k (mod N), the point at -x, one comparison per axis
    if not isinstance(f, SeparableField):
        return False
    axes = [np.moveaxis(f.space, k, 0) for k in range(f.space.ndim)] + [f.time]
    return all(np.array_equal(a[1:], a[:0:-1]) for a in axes)


def _orthant_spectrum(f: SeparableField) -> np.ndarray:
    # the spectrum of an even member (_is_even) on the nonnegative orthant,
    # frequencies 0..N/2 of every axis: the product of its factors'
    # transforms there, which are real (their imaginary parts, rounding
    # noise, are dropped), in one fresh float64 array
    half = (slice(0, f.grid.space.points // 2 + 1),) * f.grid.space.n
    return np.multiply(np.fft.fftn(f.space)[half].real[..., None], np.fft.rfft(f.time).real)


class _Orthant:
    # the output of an even member f (_is_even) under a RadialSymbol m on
    # the nonnegative orthant of f's grid, samples 0..N/2 of every axis: a
    # real spectrum and a real m, both even on every axis, give an output
    # even on every axis, so the orthant fixes the rest.  The spectrum is
    # formed on the orthant alone and m multiplied in, a block of cells at
    # a time; each spatial axis is inverted here by irfft of its real even
    # half, a slab at a time, keeping the first half in place, and the
    # time axis on request over the rows that hold a range (part), as
    # _Inverse does.  weight gives each element's multiplicity in the full
    # grid: the product over the axes of 1 on an end sample (0 or N/2,
    # its own reflection) and 2 inside.  The rest of the output is never
    # formed, so whole() is refused

    def __init__(self, f: SeparableField, m: RadialSymbol):
        g = f.grid
        n, points = g.space.n, g.space.points
        buf = _orthant_spectrum(f)
        half, width = points // 2 + 1, buf.shape[-1]
        cells = m.scatter.reshape(g.space.shape)[(slice(0, half),) * n].ravel()
        flat = buf.reshape(-1, width)
        for c in _blocks(cells.size, width):
            flat[c] *= m.rows[cells[c], :width]
        for k in range(n):
            s = 0 if k else 1  # the slabs run along another axis than k
            step = max(1, _GATHER * buf.shape[s] // buf.size)
            first_half = (slice(None),) * k + (slice(0, half),)
            for a in range(0, buf.shape[s], step):
                slab = buf[(slice(None),) * s + (slice(a, a + step),)]
                slab[...] = np.fft.irfft(slab, points, axis=k)[first_half]
        self._buf, self._length, self.size = flat, g.t_points, buf.size
        # the multiplicities along one spatial axis, of each row and of
        # each time column
        along = np.r_[1.0, np.full(half - 2, 2.0), 1.0]
        self._rows = np.ones(1)
        for _ in range(n):
            self._rows = np.multiply.outer(self._rows, along).ravel()
        self._columns = np.r_[1.0, np.full(width - 2, 2.0), 1.0]

    def whole(self):
        raise RuntimeError("the orthant route streams part(a, b) and weight(a, b) only; "
                           "take the reusable apply(m) for the whole output")

    def part(self, a: int, b: int) -> np.ndarray:
        # orthant elements a..b-1 in C order, as one row (1, b - a)
        held, cut = _span(a, b, self._columns.size)
        rows = np.fft.irfft(self._buf[held], self._length, axis=-1)[:, :self._columns.size]
        return rows.reshape(1, -1)[:, cut]

    def weight(self, a: int, b: int) -> np.ndarray:
        # the multiplicities of part(a, b)'s elements, in its shape
        held, cut = _span(a, b, self._columns.size)
        return np.multiply.outer(self._rows[held], self._columns).reshape(1, -1)[:, cut]


class _HeldSpectrum:
    # what symbol_applier returns: the input's samples (a separable
    # member itself) until the first request, then their spectrum in
    # their place, and the power |X|^2 (weighted for the half spectrum)
    # that relative_norm measures by Parseval, on the first such request.
    # last(m) gives both up

    def __init__(self, f):
        if isinstance(f, SeparableField):
            self._source = f
        elif isinstance(f, (SpacetimeField, Field)):
            self._source = f.samples
        else:
            raise TypeError("symbol_applier acts on a SpacetimeField, a SeparableField "
                            f"or a spatial Field, got {type(f).__name__}")
        self.grid = f.grid
        self._shape = f.grid.shape
        self._count = math.prod(self._shape)
        self._spectrum = self._real = self._power = None

    def _checked(self, m):
        # m, refused unless the input takes it: a RadialSymbol on its grid,
        # or on a spatial input an array over the grid's axes, which may
        # carry leading axes
        if isinstance(m, RadialSymbol) or isinstance(self.grid, SpacetimeGrid):
            return _radial_symbol(m, self.grid)
        shape = np.shape(m)
        if shape[len(shape) - self.grid.n:] != self.grid.shape:
            raise ValueError(f"multiplier shape {shape} does not end in the grid shape "
                             f"{self.grid.shape}")
        return m

    def _held(self) -> np.ndarray:
        if self._spectrum is None:
            if self._source is None:
                raise RuntimeError("this apply's spectrum was given up to last(m); "
                                   "make a new apply for another request")
            self._spectrum, self._real = _spectrum(self._source)
            self._source = None  # the spectrum replaces the samples
        return self._spectrum

    def __call__(self, m) -> np.ndarray:
        m = self._checked(m)
        return _Inverse(_multiply(self._held(), m), self._shape, self._real).whole()

    def last(self, m):
        # the orthant of an untransformed even member (_is_even) under a
        # RadialSymbol, else self(m) before its last stage
        m = self._checked(m)
        if self._spectrum is None and isinstance(m, RadialSymbol) and _is_even(self._source):
            source, self._source = self._source, None
            return _Orthant(source, m)
        spectrum = self._held()
        self._spectrum = self._power = None
        return _Inverse(_multiply(spectrum, m, out=spectrum), self._shape, self._real)

    def relative_change(self, m1: RadialSymbol, m0: RadialSymbol) -> float:
        m1, m0 = _radial_symbol(m1, self.grid), _radial_symbol(m0, self.grid)
        d = _adopt(self.grid, np.subtract(m1.rows, m0.rows), m0.scatter)
        return self.relative_norm(d, m0)

    def relative_norm(self, d: RadialSymbol, m: RadialSymbol) -> float:
        # ||self(d)|| / ||self(m)||, or the numerator alone when self(m) is
        # zero: sum |X|^2 d^2 over sum |X|^2 m^2 under its square root, by
        # numpy's pairwise sum, not BLAS, so the value does not depend on
        # the BLAS threads.  d's and then m's half spectrum are gathered
        # into one contiguous buffer, one row per spatial cell
        d, m = _radial_symbol(d, self.grid), _radial_symbol(m, self.grid)
        power = self._weighted_power()
        width = power.shape[-1]
        flat = np.empty((d.scatter.size, width))
        buf = flat.reshape(power.shape)
        sums = []
        for s in (d, m):
            for c in _blocks(s.scatter.size, width):
                flat[c] = s.rows[s.scatter[c], :width]
            buf *= buf
            buf *= power
            sums.append(math.sqrt(float(buf.sum()) / self._count))
        moved, scale = sums
        return moved / scale if scale > 0.0 else moved

    def _weighted_power(self) -> np.ndarray:
        spectrum = self._held()
        if self._power is None:
            power = np.square(spectrum.real)
            power += np.square(spectrum.imag)
            if self._real:
                # a half-spectrum column other than tau = 0 and Nyquist
                # stands for itself and its mirror, whose power is the same
                power[..., 1:(self._shape[-1] + 1) // 2] *= 2.0
            self._power = power
        return self._power


def _radial_symbol(m, grid=None) -> RadialSymbol:
    # m, refused unless it is a RadialSymbol, on grid when grid is given
    if not isinstance(m, RadialSymbol):
        raise TypeError(f"a symbol is a fields.RadialSymbol, got {type(m).__name__}")
    if grid is not None and m.grid != grid:
        raise ValueError(f"symbol grid {m.grid} != field grid {grid}")
    return m


def symbol_applier(f):
    """apply(m), the samples of the field f under the Fourier multiplier m:
    the package's one multiplier apply.

    f is a SpacetimeField, a SeparableField (its factors stand for their
    outer product) or a spatial Field; anything else raises TypeError.
    Each m is checked by f's type before any transform.  A RadialSymbol
    must be on f's grid (ValueError), so a spatial f refuses one; a
    spacetime f takes nothing else (TypeError); a spatial f takes an
    array of its grid's shape, which may carry leading axes (one output
    per leading index).  An m must be real and equal to its point
    reflection, m[-k mod N] == m[k] on every axis in FFT layout, which a
    RadialSymbol is by type and an array by its caller's construction.

    Such an m is the transform of a real, even kernel, so applying it is a
    circular convolution: no shift pair, no spacing scale, and real
    samples stay real.  f is transformed once, on the first request, into
    one buffer that replaces its samples in the applier (f is left
    unchanged): float64 samples, and complex ones whose imaginary part is
    all zero, by rfftn, coming back into float64 by irfftn's steps on the
    tau >= 0 half of m; others by one complex pair on the full m, into
    complex128.  A SeparableField's spectrum is fftn of its space factor
    times rfft of its time factor.  apply(m) multiplies into a copy of the
    spectrum, so the bits are those of irfftn(rfftn(samples) * m_half)
    (ifftn(fftn(samples) * m)) and the spectrum serves the next m; a
    RadialSymbol's samples are gathered from its rows a block of cells at
    a time.

    apply.last(m), the single-use apply, multiplies into the spectrum
    itself, gives it up and returns the output in progress, whose
    part(a, b) is elements a..b-1 of the output (C order), made from the
    rows that hold them; its whole() is apply(m), bit for bit.  The route
    is chosen here: an untransformed SeparableField whose factors equal
    their reflections on every axis, under a RadialSymbol, has an output
    even on every axis, and last(m) gives its nonnegative orthant instead
    (_Orthant), whose weight(a, b) is each element's multiplicity in the
    full grid and whose whole() raises RuntimeError: a caller that needs
    the output whole takes apply(m).
    apply.relative_norm(d, m) is ||apply(d)||_2 / ||apply(m)||_2 (the
    numerator alone when apply(m) is zero) and apply.relative_change(m1,
    m0) that ratio for d = m1 - m0, by Parseval on the held spectrum with
    no inverse transform; they take RadialSymbols alone, checked as apply
    checks them.  After last(m) every request raises RuntimeError.
    apply.grid is f's grid.
    """
    return _HeldSpectrum(f)


# ---------------------------------------------------------------------------
# import/export: flat little-endian float64 pairs (re, im) + JSON sidecar


def _sidecar_path(path) -> str:
    return str(path) + ".json"


def save_field(f: SpacetimeField, path) -> None:
    """Write a spacetime field as interleaved little-endian float64 plus a
    JSON sidecar, the authority on its grid: kind "spacetime", n, N, L,
    N_t, L_t, domain_tag "physical" and the format version.

    A float64 field is written as its complex128 widening (imaginary parts
    +0.0), so its bytes are those of the same field held complex.  The
    samples are widened and written a block at a time, in C order, so no
    widened copy of the whole field is made.
    """
    g = f.grid
    meta = {
        "kind": "spacetime",
        "n": g.space.n,
        "N": g.space.points,
        "L": g.space.extent,
        "N_t": g.t_points,
        "L_t": g.t_extent,
        "domain_tag": "physical",
        "version": _FORMAT_VERSION,
    }
    # a little-endian complex128 array is the interleaved (re, im) buffer
    flat = f.samples.reshape(-1)
    with open(path, "wb") as fh:
        for start in range(0, flat.size, _SAVE_BLOCK):
            np.asarray(flat[start:start + _SAVE_BLOCK], dtype="<c16").tofile(fh)
    with open(_sidecar_path(path), "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _sidecar_int(meta: dict, key: str) -> int:
    # a JSON integer, not a float to truncate or a boolean
    value = meta[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise FieldFormatError(f"{key} must be an integer, got {value!r}")
    return value


def _sidecar_extent(meta: dict, key: str) -> float:
    # a finite JSON number, not a boolean or a string to convert
    value = meta[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise FieldFormatError(f"{key} must be a finite number, got {value!r}")
    return float(value)


def load_field(path) -> SpacetimeField:
    """Read a spacetime field written by save_field.

    The sidecar must be a JSON object with kind "spacetime", domain_tag
    "physical" and version the JSON integer 1, its sizes n, N and N_t JSON
    integers and its extents L and L_t finite JSON numbers, and the blob
    must hold exactly the grid's samples; anything else, an unreadable
    sidecar or blob included, raises FieldFormatError, and the sidecar is
    checked before the blob is read.
    The samples are always complex128, whatever dtype the saved field had.
    """
    try:
        with open(_sidecar_path(path)) as fh:
            meta = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: not JSON, or not UTF-8
        raise FieldFormatError(f"cannot read sidecar for {path}: {exc}") from exc
    if not isinstance(meta, dict):
        raise FieldFormatError(f"bad sidecar for {path}: expected a JSON object, got {meta!r}")
    for key, want in (("kind", "spacetime"), ("domain_tag", "physical")):
        if meta.get(key) != want:
            raise FieldFormatError(f"bad sidecar for {path}: {key} must be {want!r}, "
                                   f"got {meta.get(key)!r}")
    try:
        if _sidecar_int(meta, "version") != _FORMAT_VERSION:
            raise FieldFormatError(f"version must be {_FORMAT_VERSION}, got {meta['version']!r}")
        grid = SpacetimeGrid(
            Grid(_sidecar_int(meta, "n"), _sidecar_int(meta, "N"), _sidecar_extent(meta, "L")),
            _sidecar_int(meta, "N_t"),
            _sidecar_extent(meta, "L_t"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise FieldFormatError(f"bad sidecar for {path}: {exc}") from exc

    try:
        raw = np.fromfile(path, dtype="<f8")
    except OSError as exc:
        raise FieldFormatError(f"cannot read samples of {path}: {exc}") from exc
    count = math.prod(grid.shape)
    if raw.size != 2 * count:
        raise FieldFormatError(
            f"{path}: expected {2 * count} floats for shape {grid.shape}, found {raw.size}"
        )
    # the pairs read as complex128 in place, bit for bit (signed zeros,
    # infinities and nans included), with no full-size temporary
    return SpacetimeField(grid, raw.view("<c16").reshape(grid.shape))
