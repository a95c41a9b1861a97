"""The compiled loops of _native.c, loaded once, and the references
they equal: squared discrete fields of a window, checked against NumPy;
the rows of CSV tables, checked against rows assembled in Python with
repr and str; and Brownian increments, checked against NumPy's
Generator(Philox(key=seed)).

The estimators' integrands are squared fields of a window's Y
(P, L+2, M+2), at its levels n = 1 .. L: y^2 and (Dt y)^2 at the
interior nodes, (P, L, M); (Dx y)^2 and (Dt Dx y)^2 at the dual points,
(P, L, M+1).  Each field is a function f(Y, out, dx, dt) that writes
into out, a C-contiguous buffer of the caller's; Fields holds the four.
Every sum over a field stays with the caller, in NumPy.

NUMPY is the reference.  The compiled loops perform the same IEEE
operations in the same order (subtract, divide by dx or dt, then
square, with no fused multiply-add), so both give the same bits.

A CSV table is given column by column; table() prepares it and writes
its rows one block at a time.  The columns broadcast against each
other, and the rows run over the broadcast shape in C order.  Each
column is one of two kinds.  An aligned float64 array with a cell for
every row is formatted one block at a time as repr formats it, by the
compiled writer: the shortest digits that read back as the same double
(Ryu), laid out as repr lays them out, with power-of-five tables made
here with exact integers when the library loads.  Every other column is
text, rendered once for the whole table as its cells' UTF-8 bytes and
their offsets, and each row picks its cell through the column's strides
(0 on a broadcast axis).  Text cells come from one formatter,
cell_text, except a broadcast float64 column's, which the row writer
formats once per value.  So a float64 column's text is held one block
at a time and a text column's for the whole table, which no table the
CLI writes makes large.  The compiled writer assembles each block's
rows, commas and newlines into one buffer, stepping each column's cell
position with the rows.  It writes cells by whole-word stores that
reach past a cell's end, and reads text cells by whole words, so each
block's buffer has _SLACK bytes past its rows' reserved widths
(_out_bytes) and each Text blob _PAD bytes past its last cell;
python_rows, the reference, assembles the same bytes with str.join.

normals(seeds, scale) draws standard normals from one Philox4x64-10
stream per seed, keyed [seed, 0] as NumPy's Philox(key=seed) keys it,
and scales them.  Philox is counter-based, so a stream's whole state is
an 88-byte record: counter, key, the last block of four words and the
position in it.  sw_normals draws each path's next values from its
record through NumPy's own exported random_standard_normal_fill (_FILL),
the function Generator.standard_normal runs, resolved once from
numpy.random._generator, so every ziggurat branch reads the same words
and a stream gives the same bits drawn at once or in pieces.  One
ctypes call draws a whole block's rows and scales them; it releases the
GIL.  generator_normals, the reference, keeps one
Generator(Philox(key=seed)) per path, about 700 bytes and 12 us to
build each, and calls standard_normal once per row.

fields(), table() and normals() load the library at the first call of
any of them, never at import: it compiles _native.c once with `cc` and
FLAGS into ${XDG_CACHE_HOME:-$HOME/.cache}/stochwave/native-<sha256>.so,
the hash taken over the source and the flags, opens the library with
ctypes and checks every field loop bit for bit against NUMPY on a small
fixed window, the row writer against repr on fixed values and against
python_rows on a fixed table with text columns, and the sampler against
Generator(Philox(key=seed)).standard_normal (_parity_normals).  If any
step fails (no cc on PATH, a build error, no HOME or a HOME that is not
a directory, a cache directory that cannot be written or is not
private, a library that does not load, NumPy's fill not found, a
parity mismatch), FALLBACK is chosen: fields() returns NUMPY, table()
writes through python_rows, normals() draws through generator_normals,
and `reason` says why; `reason` is None while the library is in use.
"""

from __future__ import annotations

import math
import os
from itertools import accumulate, zip_longest
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

SOURCE = Path(__file__).with_name("_native.c")
FLAGS = ("-O3", "-ffp-contract=off", "-fno-math-errno", "-shared", "-fPIC")

# why the compiled library is not in use, or None
reason: str | None = None
# what fields() and table() read; None until the first call of either
_chosen: "Native | None" = None


class Fields(NamedTuple):
    y2: Callable
    dty2: Callable
    dxy2: Callable
    dtdx2: Callable


class Native(NamedTuple):
    """The loader's choice: the four fields; the row writer, a
    function of a table's shape and prepared columns that returns
    block(start, count), the UTF-8 bytes of those rows; and the
    sampler, a function of seeds and a scale that returns draw(out)
    (see normals)."""

    fields: Fields
    rows: Callable
    normals: Callable


def _np_y2(Y, out, dx, dt):
    yc = Y[:, 1:-1, 1:-1]
    np.multiply(yc, yc, out=out)


def _np_dty2(Y, out, dx, dt):
    np.subtract(Y[:, 2:, 1:-1], Y[:, 1:-1, 1:-1], out=out)
    out /= dt
    out *= out


def _np_dxy2(Y, out, dx, dt):
    np.subtract(Y[:, 1:-1, 1:], Y[:, 1:-1, :-1], out=out)
    out /= dx
    out *= out


def _np_dtdx2(Y, out, dx, dt):
    dxy = np.subtract(Y[:, :-1, 1:], Y[:, :-1, :-1])  # levels 0 .. L
    dxy /= dx
    np.subtract(dxy[:, 1:], dxy[:, :-1], out=out)
    out /= dt
    out *= out


NUMPY = Fields(_np_y2, _np_dty2, _np_dxy2, _np_dtdx2)
# columns of each field beyond the M interior ones
_EXTRA = {"y2": 0, "dty2": 0, "dxy2": 1, "dtdx2": 1}


class Text(NamedTuple):
    """A column of text cells, each rendered once, as the row writers
    read it: the row at multi-index i of the table reads the cell at
    position sum(i * strides), whose UTF-8 bytes are
    blob[offsets[k] : offsets[k+1]], at most width of them.  The blob
    ends with _PAD zero bytes after its last cell."""

    cells: np.ndarray
    strides: tuple
    blob: np.ndarray
    offsets: np.ndarray
    width: int


def _text(cells, strides) -> Text:
    enc = [c.encode() for c in cells]
    offsets = np.fromiter(accumulate(map(len, enc), initial=0), np.int64,
                          len(enc) + 1)
    cells = np.array(cells, dtype=object)
    return Text(cells, tuple(strides),
                np.frombuffer(b"".join(enc) + bytes(_PAD), np.uint8),
                offsets, max(map(len, enc), default=0))


def _strides(col_shape, ndim) -> tuple:
    """The strides, in cells, of a C-ordered column of col_shape
    broadcast to ndim axes: 0 on every axis it does not span."""
    out, step = [], 1
    for n in reversed(col_shape):
        out.append(step if n > 1 else 0)
        step *= n
    return (0,) * (ndim - len(col_shape)) + tuple(reversed(out))


def _compiled_floats(col) -> bool:
    """Whether sw_rows formats the column col itself: an aligned float64
    array."""
    return (isinstance(col, np.ndarray) and col.dtype == np.float64
            and col.flags.aligned)


def cell_text(v) -> str:
    """The text of one cell of a text column: true or false for a bool
    (bool or np.bool_), repr of a float and str of anything else, an
    integer (int or np.integer) included."""
    if type(v) is int:  # an integer column's cells: skip the slower checks
        return str(v)
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def python_rows(shape, columns):
    """The reference row writer: block(start, count) assembles rows
    start .. start+count-1 from repr and the text cells in Python."""

    def block(start, count):
        at = np.unravel_index(np.arange(start, start + count), shape)
        cells = [
            c.cells[sum(i * s for i, s in zip(at, c.strides))].tolist()
            if isinstance(c, Text)
            else list(map(repr, c.flat[start : start + count].tolist()))
            for c in columns
        ]
        rows = "\n".join(map(",".join, zip(*cells)))
        return (rows + "\n").encode() if count else b""

    return block


def _check_rows(out, paths):
    """Refuse an out that a sampler of `paths` streams cannot fill in
    place, row by row."""
    if not (isinstance(out, np.ndarray) and out.dtype == np.float64
            and out.ndim == 2 and out.shape[0] == paths
            and out.flags.writeable and out.flags.aligned
            and out.strides[1] == 8 and out.strides[0] % 8 == 0):
        raise ValueError(f"out must be a writable float64 array of "
                         f"{paths} rows of unit element stride, got "
                         f"{getattr(out, 'dtype', type(out))} "
                         f"{np.shape(out)}")


def generator_normals(seeds, scale):
    """The reference sampler: one Generator(Philox(key=seed)) per seed,
    whose standard_normal fills its row of out, which is then
    multiplied by scale."""
    rngs = [np.random.Generator(np.random.Philox(key=seed))
            for seed in seeds]

    def draw(out):
        _check_rows(out, len(rngs))
        for rng, row in zip(rngs, out):
            rng.standard_normal(out=row)
        out *= scale

    return draw


FALLBACK = Native(NUMPY, python_rows, generator_normals)


def _prepare(write, columns):
    """Prepare a table for the row writer `write` (see table)."""
    shapes = [c.shape if isinstance(c, np.ndarray) else (len(c),)
              for c in columns]
    shape = np.broadcast_shapes((1,), *shapes)
    count = math.prod(shape)
    cols = []
    for col, col_shape in zip(columns, shapes):
        if not _compiled_floats(col):
            if isinstance(col, np.ndarray):
                col = col.ravel().tolist()
            cells = list(map(cell_text, col))
        elif col.size == count:
            cols.append(np.broadcast_to(col, shape))
            continue
        else:
            # a broadcast float column: the writer formats each value once
            flat = col.reshape(-1)
            cells = str(write(flat.shape, [flat])(0, flat.size),
                        "utf-8").split("\n")[:-1]
        cols.append(_text(cells, _strides(col_shape, len(shape))))
    return count, write(shape, cols)


def table(columns):
    """One CSV table, given column by column: each column is a NumPy
    array or a sequence of cells.  The columns broadcast against each
    other and the rows run over the broadcast shape in C order, so a
    (J, 1) column beside a (K,) column repeats each of its J values K
    times while rendering each once.  A column is one of two kinds: an
    aligned float64 array with a cell for every row, which the row
    writer formats as repr does, one block at a time; or text, rendered
    once by cell_text (a broadcast float64 column by the row writer
    itself) and picked through the column's strides.  Returns the row
    count and block(start, count), the UTF-8 bytes of rows start ..
    start+count-1, each ended by a newline.  The float64 columns' text
    is held one block at a time, the text columns' for the whole table.
    Loads the library as fields() does, and writes through python_rows,
    with the same bytes, without it."""
    return _prepare(_choose().rows, columns)


def normals(seeds, scale):
    """One Philox stream per seed, as NumPy's Philox(key=seed) keys it,
    each read by standard_normal: draw(out) fills row k of out, a
    float64 (len(seeds), n) array whose rows have unit element stride,
    with the next n standard normals of stream k times scale.  A stream
    gives the same bits whether it is drawn at once or in pieces.
    Loads the library as fields() does, and draws through
    generator_normals, with the same bits, without it."""
    return _choose().normals(seeds, scale)


class _Unavailable(Exception):
    """A step of loading the compiled loops failed; the message says
    which."""


def _compiler():
    import shutil

    return shutil.which("cc")


def _cache_dir() -> Path:
    xdg = os.environ.get("XDG_CACHE_HOME", "")
    if os.path.isabs(xdg):
        base = Path(xdg)
    elif os.environ.get("HOME"):
        home = Path(os.environ["HOME"])
        if not home.is_dir():
            raise _Unavailable(f"no cache directory: HOME {home} is not a "
                               "directory")
        base = home / ".cache"
    else:
        raise _Unavailable("no cache directory: neither XDG_CACHE_HOME "
                           "nor HOME is set")
    return base / "stochwave"


def _library_path() -> Path:
    import hashlib

    key = hashlib.sha256(SOURCE.read_bytes())
    key.update(" ".join(FLAGS).encode())
    return _cache_dir() / f"native-{key.hexdigest()}.so"


def _private_dir(path: Path):
    """Make path with mode 0700 if it is missing; refuse a directory
    that another user owns or could write, since the library in it is
    loaded into this process."""
    path.parent.mkdir(parents=True, exist_ok=True)
    try:
        path.mkdir(mode=0o700)
    except FileExistsError:
        pass
    st = path.stat()
    if st.st_uid != os.getuid() or st.st_mode & 0o077:
        raise _Unavailable(
            f"cache directory {path} is not private to this user "
            f"(mode {st.st_mode & 0o777:o})"
        )


def _build(lib: Path):
    """Compile SOURCE into lib through a temporary file in the same
    directory and os.replace, so concurrent builds never expose a
    partial library."""
    import subprocess
    import tempfile

    cc = _compiler()
    if cc is None:
        raise _Unavailable("no C compiler: cc is not on PATH")
    _private_dir(lib.parent)
    fd, tmp = tempfile.mkstemp(prefix=lib.stem + ".", suffix=".tmp",
                               dir=lib.parent)
    os.close(fd)
    try:
        done = subprocess.run([cc, *FLAGS, "-o", tmp, str(SOURCE)],
                              capture_output=True, text=True)
        if done.returncode != 0:
            lines = done.stderr.strip().splitlines() or ["no message"]
            raise _Unavailable(
                f"{cc} exited {done.returncode} building {SOURCE.name}: "
                f"{lines[0]}"
            )
        os.replace(tmp, lib)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


# significant bits of each power-of-five table entry (Ryu's POW5_BITS)
_POW5_BITS = 125
# bytes of the longest repr of a double: "-", 17 digits, ".", "e-" and
# 3 digits
_REPR_WIDTH = 24
# bytes past a block's reserved row widths that sw_rows' word stores
# may overwrite, and readable bytes after a Text blob's last cell that
# its word loads may read: _native.c's slack contract
_SLACK = 16
_PAD = 16


def _out_bytes(count, columns) -> int:
    """The bytes sw_rows may write for count rows of a table's columns:
    count times the rows' reserved width (a comma or the newline per
    column, _REPR_WIDTH per float64 column and the longest cell of each
    Text), and _SLACK."""
    width = sum(1 + (c.width if isinstance(c, Text) else _REPR_WIDTH)
                for c in columns)
    return count * width + _SLACK


def _pow5_tables():
    """The tables _native.c's formatter reads, from exact integers: the
    125 leading bits of 5^i for i = 0 .. 325, and floor(2^(bitlength(5^q)
    - 1 + 125) / 5^q) + 1 for q = 0 .. 290, each as (low, high) uint64
    words."""

    def leading(p):
        shift = p.bit_length() - _POW5_BITS
        return p >> shift if shift >= 0 else p << -shift

    def words(values):
        return np.array([(v & (1 << 64) - 1, v >> 64) for v in values],
                        dtype=np.uint64)

    pow5 = words(leading(5**i) for i in range(326))
    inv5 = words((1 << (5**q).bit_length() - 1 + _POW5_BITS) // 5**q + 1
                 for q in range(291))
    return pow5, inv5


# NumPy's exported fill that Generator.standard_normal runs for float64
_FILL = "random_standard_normal_fill"
# uint64 words of sw_normals' per-path Philox record: counter, key,
# buffer and buffer position
_PHILOX_WORDS = 11


def _normal_fill():
    """The address of NumPy's _FILL, from the numpy.random._generator
    extension that Generator.standard_normal runs in."""
    import ctypes

    from numpy.random import _generator

    try:
        fill = getattr(ctypes.CDLL(_generator.__file__), _FILL)
    except (AttributeError, OSError):
        raise _Unavailable(f"the sampler finds no {_FILL} in NumPy's "
                           f"numpy.random._generator") from None
    return ctypes.cast(fill, ctypes.c_void_p)


def _bind(lib) -> Native:
    """The loops of the loaded library as Python functions, each
    checking its arguments before it passes their pointers."""
    import ctypes

    def symbol(name, argtypes, restype):
        try:
            fn = getattr(lib, name)
        except AttributeError:
            raise _Unavailable(f"the library has no {name}") from None
        fn.argtypes, fn.restype = argtypes, restype
        return fn

    def bind(name, extra):
        fn = symbol(name, [ctypes.c_void_p] + [ctypes.c_ssize_t] * 6
                    + [ctypes.c_double] * 2 + [ctypes.c_void_p], None)

        def field(Y, out, dx, dt):
            if Y.ndim != 3:
                raise ValueError(f"Y must be a (P, L+2, M+2) window, got "
                                 f"shape {Y.shape}")
            P, L, M = Y.shape[0], Y.shape[1] - 2, Y.shape[2] - 2
            if (Y.dtype != np.float64 or L < 0 or M < 0
                    or any(s % 8 for s in Y.strides)):
                raise ValueError(f"Y must be a float64 (P, L+2, M+2) window "
                                 f"of whole-element strides, got {Y.dtype} "
                                 f"{Y.shape} {Y.strides}")
            if (out.dtype != np.float64 or out.shape != (P, L, M + extra)
                    or not out.flags.c_contiguous
                    or not out.flags.writeable):
                raise ValueError(f"out must be a writable C-contiguous "
                                 f"float64 {(P, L, M + extra)} array, got "
                                 f"{out.dtype} {out.shape}")
            fn(Y.ctypes.data, P, L, M, *(s // 8 for s in Y.strides),
               dx, dt, out.ctypes.data)

        return field

    fields = Fields(*(bind(f"sw_{name}", extra)
                      for name, extra in _EXTRA.items()))
    sw_rows = symbol("sw_rows", [ctypes.c_ssize_t] * 3
                     + [ctypes.c_void_p, ctypes.c_ssize_t]
                     + [ctypes.c_void_p] * 8, ctypes.c_ssize_t)
    # pointers that keep their arrays alive, as every pointer held
    # across calls below does
    tables = [t.ctypes.data_as(ctypes.c_void_p) for t in _pow5_tables()]

    def rows(shape, columns):
        ncols, ndim, total = len(columns), len(shape), math.prod(shape)
        dims = np.array(shape, dtype=np.intp)
        cells = np.zeros(ncols, dtype=np.uintp)
        text = np.zeros(ncols, dtype=np.uintp)
        ntext = np.full(ncols, -1, dtype=np.intp)
        stride = np.zeros((ncols, ndim), dtype=np.intp)
        for c, col in enumerate(columns):
            if isinstance(col, Text):
                cells[c] = col.offsets.ctypes.data
                text[c] = col.blob.ctypes.data
                ntext[c], stride[c] = len(col.cells), col.strides
            elif col.shape != tuple(shape) or not _compiled_floats(col):
                raise ValueError(f"an array column must have the table's "
                                 f"shape {tuple(shape)} and be an aligned "
                                 f"float64 array, got {col.dtype} "
                                 f"{col.shape}, aligned: {col.flags.aligned}")
            else:
                cells[c] = col.ctypes.data
                stride[c] = [s // 8 for s in col.strides]
        # sw_rows' cell positions, one per column, shared by the table's
        # block calls, which therefore must not overlap
        pos = np.empty(ncols, dtype=np.intp)
        held = [a.ctypes.data_as(ctypes.c_void_p)
                for a in (cells, text, ntext, stride, pos)]
        args = (ndim, dims.ctypes.data_as(ctypes.c_void_p), ncols, *held,
                *tables)

        def block(start, count):
            if not 0 <= start <= start + count <= total:
                raise ValueError(f"rows {start} .. {start + count - 1} are "
                                 f"not rows of a table of {total}")
            out = np.empty(_out_bytes(count, columns), dtype=np.uint8)
            n = sw_rows(start, count, *args, out.ctypes.data)
            if n < 0:
                raise ValueError("a text cell's position lies outside its "
                                 "column")
            return out.data[:n]

        return block

    sw_normals = symbol("sw_normals", [ctypes.c_void_p] * 2
                        + [ctypes.c_ssize_t] * 2
                        + [ctypes.c_double, ctypes.c_void_p,
                           ctypes.c_ssize_t], None)
    fill = _normal_fill()

    def normals(seeds, scale):
        states = np.zeros((len(seeds), _PHILOX_WORDS), dtype=np.uint64)
        states[:, 4] = seeds  # the key [seed, 0]
        states[:, 10] = 4  # an empty buffer
        paths, held = len(states), states.ctypes.data_as(ctypes.c_void_p)
        scale = ctypes.c_double(scale)

        def draw(out):
            _check_rows(out, paths)
            sw_normals(fill, held, paths, out.shape[1], scale,
                       out.ctypes.data, out.strides[0] // 8)

        return draw

    return Native(fields, rows, normals)


def _parity_floats() -> np.ndarray:
    """Fixed values for the formatter's check: zeros, infinities, nan,
    the subnormal, normal and finite extremes, repr's layout edges and
    their neighbours, powers of two and spread bit patterns."""
    edges = np.array([5e-324, 2.2250738585072014e-308, 1e-5, 1e-4, 0.1,
                      1 / 3, 1.0, 1e15, 9999999999999998.0, 1e16, 1e22,
                      1.7976931348623157e308])
    with np.errstate(over="ignore"):
        up = np.nextafter(edges, np.inf)
    edges = np.concatenate([edges, np.nextafter(edges, 0.0), up,
                            np.ldexp(1.0, np.arange(-1074, 1024, 11))])
    # a Weyl sequence spreads 512 bit patterns over every sign and
    # exponent (a NumPy Generator would cost about 2 MB of RSS here)
    weyl = np.arange(1, 513, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    bits = weyl.view(np.float64)
    return np.concatenate([[0.0, np.inf, np.nan], edges, -edges, bits,
                           [-0.0, -np.inf]])


def _parity_columns() -> list:
    """A fixed 3 x 4 table for the row writer's check: a (3, 1) float
    column, a (4,) column of non-ASCII text and a (3, 4) int64 column,
    each rendered once as text, and a float64 column read through a
    reversed transposed view."""
    values = (np.arange(12.0).reshape(4, 3).T / 7.0)[::-1]
    return [np.array([[-0.0], [1e-5], [np.nan]]), ["é", "", "a b", "→ ∞"],
            values, np.arange(-6, 6, dtype=np.int64).reshape(3, 4)]


def _parity(native: Native):
    """Check every field loop against NUMPY on a small fixed window (a
    strided view, with -0.0, inf and NaN among the values), the row
    writer's float text against repr on _parity_floats, and its rows
    against python_rows on _parity_columns, in two blocks."""
    base = np.sin(np.arange(3 * 6 * 7 * 2, dtype=np.float64)) * 1e3
    Y = base.reshape(3, 6, 14)[:, :, ::2]  # (P, L+2, M+2) = (3, 6, 7)
    Y[0, 2, 3], Y[1, 3, 1], Y[2, 4, 5] = -0.0, np.inf, np.nan
    with np.errstate(invalid="ignore", over="ignore"):
        for name, extra in _EXTRA.items():
            want = np.empty((3, 4, 5 + extra))
            got = np.empty_like(want)
            getattr(NUMPY, name)(Y, want, 0.1, 0.03)
            getattr(native.fields, name)(Y, got, 0.1, 0.03)
            if not np.array_equal(want.view(np.int64), got.view(np.int64)):
                raise _Unavailable(f"{name} differs from NumPy's bits on "
                                   "the parity window")
    values = _parity_floats()
    text = str(native.rows(values.shape, [values])(0, values.size), "ascii")
    for got, value in zip_longest(text.split("\n")[:-1], values.tolist()):
        if got != repr(value):
            raise _Unavailable(f"the row writer writes {got!r} for "
                               f"{value!r}, where repr writes "
                               f"{repr(value)!r}")
    count, compiled = _prepare(native.rows, _parity_columns())
    _, reference = _prepare(python_rows, _parity_columns())
    for start, n in ((0, 5), (5, count - 5)):
        if bytes(compiled(start, n)) != reference(start, n):
            raise _Unavailable(f"the row writer's rows {start} .. "
                               f"{start + n - 1} of the parity table "
                               "differ from python_rows'")
    _parity_normals(native.normals)


# the sampler's check: seeds at both ends of the key range, and pieces
# of 1 .. 7 normals, four times over, so that a piece starts at every
# position of a 4-word block, then one piece to _PARITY_NORMALS, far
# enough that each seed's stream reaches the ziggurat's tail and wedge
# branches (seed 0 first reaches the tail at its normal 4467)
_PARITY_SEEDS = (0, 2**64 - 1)
_PARITY_PIECES = (1, 2, 3, 4, 5, 6, 7) * 4
_PARITY_NORMALS = 4608
_PARITY_SCALE = math.sqrt(0.03)


def _parity_normals(normals):
    """Check the sampler against Generator(Philox(key=seed))
    .standard_normal times _PARITY_SCALE, on _PARITY_SEEDS drawn in
    _PARITY_PIECES into rows of a wider buffer."""
    wide = np.zeros((len(_PARITY_SEEDS), _PARITY_NORMALS + 3))
    out = wide[:, 1 : _PARITY_NORMALS + 1]
    draw = normals(_PARITY_SEEDS, _PARITY_SCALE)
    for start, stop in zip((0, *accumulate(_PARITY_PIECES)),
                           (*accumulate(_PARITY_PIECES), _PARITY_NORMALS)):
        draw(out[:, start:stop])
    for seed, row in zip(_PARITY_SEEDS, out):
        rng = np.random.Generator(np.random.Philox(key=seed))
        want = rng.standard_normal(_PARITY_NORMALS)
        want *= _PARITY_SCALE
        if not np.array_equal(want.view(np.int64), row.view(np.int64)):
            raise _Unavailable(
                f"the sampler's normals of seed {seed} differ from "
                f"Generator(Philox(key={seed})).standard_normal's")


def _load() -> Native:
    import ctypes

    lib = _library_path()
    if lib.exists():
        _private_dir(lib.parent)
    else:
        _build(lib)
    native = _bind(ctypes.CDLL(str(lib)))
    _parity(native)
    return native


def _choose() -> Native:
    global _chosen, reason
    if _chosen is None:
        try:
            _chosen, reason = _load(), None
        except (_Unavailable, OSError) as exc:
            _chosen, reason = FALLBACK, str(exc)
    return _chosen


def fields() -> Fields:
    """The compiled field loops, loaded at the first call of fields(),
    table() or normals(), or NUMPY with `reason` set if the library
    cannot be built, loaded or trusted."""
    return _choose().fields
