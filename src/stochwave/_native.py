"""Squared discrete fields of a window: the NumPy reference and the
compiled loops of _native.c, of which fields() chooses one.

The estimators' integrands are squared fields of a window's Y
(P, L+2, M+2), at its levels n = 1 .. L: y^2 and (Dt y)^2 at the
interior nodes, (P, L, M); (Dx y)^2 and (Dt Dx y)^2 at the dual points,
(P, L, M+1).  Each field is a function f(Y, out, dx, dt) that writes
into out, a C-contiguous buffer of the caller's; Fields holds the four.
Every sum over a field stays with the caller, in NumPy.

NUMPY is the reference.  The compiled loops perform the same IEEE
operations in the same order (subtract, divide by dx or dt, then
square, with no fused multiply-add), so both give the same bits.

fields() loads the compiled loops at its first call, never at import:
it compiles _native.c once with `cc` and FLAGS into
${XDG_CACHE_HOME:-$HOME/.cache}/stochwave/native-<sha256>.so, the hash
taken over the source and the flags, opens the library with ctypes and
checks every loop bit for bit against NUMPY on a small fixed window.
If any step fails (no cc on PATH, a build error, no HOME or a HOME
that is not a directory, a cache directory that cannot be written or
is not private, a library that does not load, a parity mismatch), it returns NUMPY and sets `reason`
to why; `reason` is None while the compiled loops are in use.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

SOURCE = Path(__file__).with_name("_native.c")
FLAGS = ("-O3", "-ffp-contract=off", "-fno-math-errno", "-shared", "-fPIC")

# why the compiled loops are not in use, or None
reason: str | None = None
# what fields() returns; None until its first call
_chosen: "Fields | None" = None


class Fields(NamedTuple):
    y2: Callable
    dty2: Callable
    dxy2: Callable
    dtdx2: Callable


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


def flux2(Y: np.ndarray, dx: float) -> np.ndarray:
    """The squared boundary flux, Dx y at x = dx/2, at the levels
    n = 1 .. L of a window's Y, as a new (P, L) array."""
    fl = np.subtract(Y[:, 1:-1, 1], Y[:, 1:-1, 0])
    fl /= dx
    fl *= fl
    return fl


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


def _bind(lib) -> Fields:
    """The four loops of the loaded library as field functions, each
    checking its arguments before it passes their pointers."""
    import ctypes

    def bind(name, extra):
        try:
            fn = getattr(lib, name)
        except AttributeError:
            raise _Unavailable(f"the library has no {name}") from None
        fn.argtypes = ([ctypes.c_void_p] + [ctypes.c_ssize_t] * 6
                       + [ctypes.c_double] * 2 + [ctypes.c_void_p])
        fn.restype = None

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

    return Fields(*(bind(f"sw_{name}", extra)
                    for name, extra in _EXTRA.items()))


def _parity(f: Fields):
    """Check every loop against NUMPY on a small fixed window: a strided
    view, with -0.0, inf and NaN among the values."""
    base = np.sin(np.arange(3 * 6 * 7 * 2, dtype=np.float64)) * 1e3
    Y = base.reshape(3, 6, 14)[:, :, ::2]  # (P, L+2, M+2) = (3, 6, 7)
    Y[0, 2, 3], Y[1, 3, 1], Y[2, 4, 5] = -0.0, np.inf, np.nan
    with np.errstate(invalid="ignore", over="ignore"):
        for name, extra in _EXTRA.items():
            want = np.empty((3, 4, 5 + extra))
            got = np.empty_like(want)
            getattr(NUMPY, name)(Y, want, 0.1, 0.03)
            getattr(f, name)(Y, got, 0.1, 0.03)
            if not np.array_equal(want.view(np.int64), got.view(np.int64)):
                raise _Unavailable(f"{name} differs from NumPy's bits on "
                                   "the parity window")


def _load() -> Fields:
    import ctypes

    lib = _library_path()
    if lib.exists():
        _private_dir(lib.parent)
    else:
        _build(lib)
    f = _bind(ctypes.CDLL(str(lib)))
    _parity(f)
    return f


def fields() -> Fields:
    """The compiled loops, loaded at the first call, or NUMPY with
    `reason` set if they cannot be built, loaded or trusted."""
    global _chosen, reason
    if _chosen is None:
        try:
            _chosen, reason = _load(), None
        except (_Unavailable, OSError) as exc:
            _chosen, reason = NUMPY, str(exc)
    return _chosen
