"""The compiled library (stochwave._native): bit-for-bit parity of every
field loop with the NumPy reference, the row writer's float text against
repr and the sampler against NumPy's Generator(Philox(key=seed)), the
fallback to NumPy, Python's rows and per-path Generators and its reason,
laziness, the packaged source, and a C file free of warnings and of
sanitizer reports."""

import ctypes
import hashlib
import importlib.machinery
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import stochwave
from stochwave import _native, cli
from stochwave.fields import sine_slice, zero_field
from stochwave.grids import build_grid
from stochwave.solver import ProblemData, SchemeCoefficients, run_ensemble



@pytest.fixture(scope="module")
def compiled():
    f = _native.fields()
    if f is _native.NUMPY:
        if shutil.which("cc"):
            pytest.fail(f"cc exists but the compiled fields fell back: "
                        f"{_native.reason}")
        pytest.skip(f"compiled fields unavailable: {_native.reason}")
    return f


@pytest.fixture(scope="module")
def native(compiled):
    """The loaded library: its fields and its row writer."""
    return _native._choose()


def bits(a):
    return np.ascontiguousarray(a).view(np.int64)


def assert_same_fields(f, Y, dx=0.1, dt=0.03):
    P, L, M = Y.shape[0], Y.shape[1] - 2, Y.shape[2] - 2
    with np.errstate(invalid="ignore", over="ignore"):
        for name, extra in _native._EXTRA.items():
            want = np.empty((P, L, M + extra))
            got = np.full_like(want, 7.0)
            getattr(_native.NUMPY, name)(Y, want, dx, dt)
            getattr(f, name)(Y, got, dx, dt)
            assert np.array_equal(bits(want), bits(got)), name


def test_compiled_fields_are_active_where_cc_exists():
    if shutil.which("cc") is None:
        pytest.skip("no cc on PATH")
    assert _native.fields() is not _native.NUMPY, _native.reason
    assert _native.reason is None


@pytest.mark.parametrize("shape", [(1, 3, 3), (5, 18, 17), (3, 7, 130),
                                   (64, 18, 9)])
def test_random_windows(compiled, shape):
    rng = np.random.default_rng(sum(shape))
    Y = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
    assert_same_fields(compiled, Y)
    assert_same_fields(compiled, Y, dx=1 / 3, dt=1e-300)


def test_strided_and_offset_views(compiled):
    rng = np.random.default_rng(4)
    big = rng.standard_normal((9, 20, 23))
    assert_same_fields(compiled, big[1::2, 3:15, 2::3])
    assert_same_fields(compiled, big[::-1, ::-1, ::-2])


def test_special_values(compiled):
    rng = np.random.default_rng(5)
    Y = rng.standard_normal((4, 8, 9))
    specials = [-0.0, 0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324,
                1e308, -1e308]
    flat = Y.reshape(-1)
    flat[rng.choice(flat.size, 60, replace=False)] = np.resize(specials, 60)
    assert_same_fields(compiled, Y)


def test_whole_window_views_and_a_short_last_window(compiled):
    # N = 37: stream windows of 16, 16 and 5 levels, as views of a
    # whole window whose path stride is (N+2)(M+2)
    grid = build_grid(6, 37, 1.0)
    data = ProblemData(sine_slice(grid, 1, 1.0, "closure"),
                       zero_field(grid, "closure", None),
                       zero_field(grid, "primal", "primal"))
    whole = run_ensemble(data, SchemeCoefficients.constant(grid, d=0.5),
                         grid, 4, 3)
    levels = []
    for win in whole.windows():
        assert win.Y.strides[0] == 8 * (grid.N + 2) * (grid.M + 2)
        levels.append(win.levels)
        assert_same_fields(compiled, win.Y, grid.dx, grid.dt)
    assert levels == [16, 16, 5]


def test_arguments_are_checked_before_pointers_pass(compiled):
    Y = np.zeros((2, 5, 6))
    with pytest.raises(ValueError, match="out must be"):
        compiled.y2(Y, np.empty((2, 3, 5)), 1.0, 1.0)  # M+1 columns
    with pytest.raises(ValueError, match="out must be"):
        compiled.dxy2(Y, np.empty((2, 3, 5), dtype=np.float32), 1.0, 1.0)
    with pytest.raises(ValueError, match="out must be"):
        compiled.dtdx2(Y, np.empty((2, 5, 3)).transpose(0, 2, 1), 1.0, 1.0)
    with pytest.raises(ValueError, match="Y must be"):
        compiled.y2(Y.astype(np.float32), np.empty((2, 3, 4)), 1.0, 1.0)
    with pytest.raises(ValueError, match="Y must be"):
        compiled.y2(Y[0], np.empty((2, 3, 4)), 1.0, 1.0)


# ---------------------------------------------------------------------------
# the row writer's float text against repr


@pytest.fixture(scope="module")
def fmt(native):
    """The compiled row writer on a table of one float64 column, as the
    list of its cells' text."""

    def text(values):
        block = native.rows(values.shape, [values])(0, values.size)
        return str(block, "ascii").split("\n")[:-1]

    return text


def assert_repr(fmt, values):
    values = np.ascontiguousarray(values, dtype=np.float64).ravel()
    got = fmt(values)
    want = list(map(repr, values.tolist()))
    assert len(got) == len(want)
    bad = [(w, g) for w, g in zip(want, got) if w != g]
    assert not bad, bad[:10]


def neighbours(x, steps=1):
    """x and the `steps` doubles on each side of each of its values."""
    out, down, up = [x], x, x
    with np.errstate(over="ignore"):
        for _ in range(steps):
            down, up = np.nextafter(down, -np.inf), np.nextafter(up, np.inf)
            out += [down, up]
    return np.concatenate(out)


def test_formatter_powers_of_two_and_their_neighbours(fmt):
    x = neighbours(np.ldexp(1.0, np.arange(-1074, 1024)))
    assert_repr(fmt, np.concatenate([x, -x]))


def test_formatter_subnormals_and_extremes(fmt):
    rng = np.random.default_rng(11)
    low = np.arange(1, 4096, dtype=np.uint64)
    sub = np.concatenate([low, 2**52 - low,
                          rng.integers(1, 2**52, 100_000, dtype=np.uint64)])
    extremes = neighbours(np.array([5e-324, 2.2250738585072014e-308,
                                    1.7976931348623157e308]))
    extremes = extremes[np.isfinite(extremes) & (extremes > 0)]
    x = np.concatenate([sub.view(np.float64), extremes])
    assert_repr(fmt, np.concatenate([x, -x]))
    assert fmt(np.array([5e-324, 1.7976931348623157e308])) == [
        "5e-324", "1.7976931348623157e+308"]


def test_formatter_zeros_infinities_and_nan(fmt):
    x = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan])
    assert fmt(x) == ["0.0", "-0.0", "inf", "-inf", "nan", "nan"]
    assert_repr(fmt, x)


def test_formatter_layout_edges(fmt):
    # fixed notation for -4 < decpt <= 16, exponent notation outside
    edges = np.array([1e-4, 1e-5, 1e15, 1e16, 9999999999999998.0])
    assert fmt(edges) == ["0.0001", "1e-05", "1000000000000000.0", "1e+16",
                          "9999999999999998.0"]
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
    with np.errstate(over="ignore"):
        x = np.concatenate([neighbours(edges, 3), neighbours(tens),
                            5 * tens, 1.5 * tens, 123456789 * tens])
    x = x[np.isfinite(x)]
    assert_repr(fmt, np.concatenate([x, -x]))


def test_formatter_integers(fmt):
    x = np.arange(100_000, dtype=np.float64)
    assert_repr(fmt, np.concatenate([x, -x]))


def test_formatter_random_bit_patterns(fmt):
    rng = np.random.default_rng(20_181_018)
    assert_repr(fmt, rng.integers(0, 2**64, 1_000_000,
                                  dtype=np.uint64).view(np.float64))


def test_float_columns_are_read_through_their_strides(native):
    x = np.linspace(-3.0, 3.0, 40).reshape(5, 8) / 7.0
    for view in (x[:, ::-3], x.T, x[::-1, 1::2]):
        block = native.rows(view.shape, [view])(0, view.size)
        assert str(block, "ascii").split("\n")[:-1] == list(
            map(repr, view.ravel().tolist()))


def test_formatter_checks_its_argument(native, fmt):
    assert fmt(np.empty(0)) == []
    with pytest.raises(ValueError, match="must have the table's shape"):
        native.rows((2, 3), [np.ones((3, 2))])
    # arrays whose bytes are not aligned doubles, which table() renders
    # as text: refused before any pointer passes
    misaligned = np.zeros(33, dtype=np.uint8)[1:].view(np.float64)
    assert not misaligned.flags.aligned
    for col in (np.arange(4), np.ones(4, dtype=np.float32), misaligned):
        with pytest.raises(ValueError, match="be an aligned float64 array"):
            native.rows((4,), [col])
    block = native.rows((4,), [np.ones(4)])
    for start, count in ((3, 2), (-1, 1), (5, 0)):
        with pytest.raises(ValueError, match="are not rows of a table of 4"):
            block(start, count)
    # a text column whose strides reach past its cells
    text = _native._text(["a", "b"], (1,))
    with pytest.raises(ValueError, match="lies outside its column"):
        native.rows((3,), [text])(0, 3)


# ---------------------------------------------------------------------------
# the sampler

# the ziggurat's tail starts at r: a normal beyond it came from the tail
ZIGGURAT_R = 3.6541528853610088


@pytest.mark.parametrize("sampler", ["compiled", "reference"])
def test_sampler_draws_each_stream_in_pieces_as_at_once(native, sampler):
    normals = (native.normals if sampler == "compiled"
               else _native.generator_normals)
    seeds = [0, 2**64 - 1, 2**63, 12345]
    pieces = [1, 2, 3, 4, 5, 6, 7, 0, 17, 16, 16, 5000]
    wide = np.full((len(seeds), sum(pieces) + 5), 7.0)
    out = wide[:, 2 : sum(pieces) + 2]
    draw = normals(seeds, 0.25)
    at = 0
    for n in pieces:
        draw(out[:, at : at + n])
        at += n
    for seed, row in zip(seeds, out):
        rng = np.random.Generator(np.random.Philox(key=seed))
        want = rng.standard_normal(out.shape[1]) * 0.25
        assert np.array_equal(bits(want), bits(row)), seed
    # nothing outside the rows is written
    assert (wide[:, :2] == 7.0).all() and (wide[:, -3:] == 7.0).all()


@pytest.mark.parametrize("sampler", ["compiled", "reference"])
def test_sampler_checks_its_argument(native, sampler):
    normals = (native.normals if sampler == "compiled"
               else _native.generator_normals)
    draw = normals([1, 2], 1.0)
    for out in (np.empty((3, 4)), np.empty(4), np.empty((2, 4), np.float32),
                np.empty((4, 2)).T, np.empty((2, 4))[:, ::2]):
        with pytest.raises(ValueError, match="out must be a writable"):
            draw(out)
    frozen = np.empty((2, 4))
    frozen.flags.writeable = False
    with pytest.raises(ValueError, match="out must be a writable"):
        draw(frozen)


def words_drawn(bitgen):
    """The 64-bit words a fresh Philox bit generator has given."""
    state = bitgen.state
    return 4 * int(state["state"]["counter"][0]) - (4 - state["buffer_pos"])


def test_parity_draws_cross_every_buffer_offset_the_tail_and_the_wedge():
    # each normal reads one word on the ziggurat's fast path, two on an
    # accepted wedge draw, and at least three in the tail, beyond r
    for seed in _native._PARITY_SEEDS:
        bitgen = np.random.Philox(key=seed)
        rng = np.random.Generator(bitgen)
        offsets = set()
        for n in _native._PARITY_PIECES:
            offsets.add(words_drawn(bitgen) % 4)
            rng.standard_normal(n)
        assert offsets == {0, 1, 2, 3}, seed
        drawn = sum(_native._PARITY_PIECES)
        wedge = tail = 0
        before = words_drawn(bitgen)
        for _ in range(_native._PARITY_NORMALS - drawn):
            x = rng.standard_normal()
            after = words_drawn(bitgen)
            wedge += after - before == 2 and abs(x) < ZIGGURAT_R
            tail += abs(x) > ZIGGURAT_R
            before = after
        assert wedge > 0 and tail > 0, (seed, wedge, tail)


def test_recorded_parity_digests_are_numpys():
    # the load check compares against these digests, not a Generator
    assert tuple(_native._PARITY_SHA256) == _native._PARITY_SEEDS
    for seed in _native._PARITY_SEEDS:
        rng = np.random.Generator(np.random.Philox(key=seed))
        want = rng.standard_normal(_native._PARITY_NORMALS)
        want = (want * _native._PARITY_SCALE).astype("<f8").tobytes()
        assert (hashlib.sha256(want).hexdigest()
                == _native._PARITY_SHA256[seed]), seed


def test_wrong_normal_fill_falls_back_with_the_same_artifacts(native, reload,
                                                              monkeypatch,
                                                              tmp_path):
    monkeypatch.setattr(_native, "_chosen", native)
    compiled_digests = run_digests(tmp_path, "martingale")
    # NumPy's exponential fill has the normal fill's signature
    monkeypatch.setattr(_native, "_chosen", None)
    monkeypatch.setattr(_native, "_FILL", "random_standard_exponential_fill")
    assert run_digests(tmp_path, "martingale") == compiled_digests
    assert _native._chosen is _native.FALLBACK
    assert _native.reason == ("the sampler's normals of seed 0 differ from "
                              "Generator(Philox(key=0)).standard_normal's")


def test_missing_normal_fill_falls_back(compiled, reload, monkeypatch):
    monkeypatch.setattr(_native, "_FILL", "random_no_such_fill")
    assert _native.fields() is _native.NUMPY
    assert _native.reason == ("the sampler finds no random_no_such_fill in "
                              "NumPy's numpy.random._generator")


def test_missing_generator_extension_falls_back_with_the_same_artifacts(
        native, reload, monkeypatch, tmp_path):
    monkeypatch.setattr(_native, "_chosen", native)
    compiled_digests = run_digests(tmp_path, "martingale")
    monkeypatch.setattr(_native, "_chosen", None)
    monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [])
    assert run_digests(tmp_path, "martingale") == compiled_digests
    assert _native._chosen is _native.FALLBACK
    where = Path(np.__file__).parent / "random"
    assert _native.reason == ("the sampler finds no numpy.random._generator "
                              f"extension in {where}")


# ---------------------------------------------------------------------------
# fallback


CONFIGS = {
    "simulate": {
        "grid": {"M": 7, "N": 40, "T": 1.0},
        "data": {"y0": {"sine": {"mode": 1, "amplitude": 1.0}},
                 "g": {"random": {"seed": 21, "amplitude": 0.5}}},
        "mc": {"paths": 2, "master_seed": 9},
    },
    "carleman": {
        "grid": {"M": 3, "N": 40, "T": 3.5},
        "weight": {"s": 2.0, "lambda": 0.05, "beta": 0.5, "xstar": 1.5,
                   "mconst": 10.0},
        "data": {"y0": {"sine": {"mode": 1, "amplitude": 1.0}},
                 "g": {"random": {"seed": 21, "amplitude": 0.5}}},
        "mc": {"paths": 6, "master_seed": 3},
    },
    "stability": {
        "grid": {"M": 3, "N": 40, "T": 1.0},
        "data": {"y0": {"sine": {"mode": 1, "amplitude": 1.0}},
                 "g": {"random": {"seed": 21, "amplitude": 0.5}}},
        "data_b": {"y0": {"sine": {"mode": 2, "amplitude": 0.5}}},
        "mc": {"paths": 6, "master_seed": 5},
    },
    "martingale": {
        "grid": {"M": 3, "N": 40, "T": 1.0},
        "data": {"y0": {"sine": {"mode": 1, "amplitude": 1.0}},
                 "g": {"random": {"seed": 21, "amplitude": 0.5}}},
        "mc": {"paths": 100, "master_seed": 7},
    },
    "identities": {
        "grid": {"M": 6, "N": 9, "T": 1.0},
        "mc": {"master_seed": 4},
    },
    "weights-order": {
        "grid": {"M": 15, "N": 8, "T": 0.5},
        "weight": {"s": 1.0, "lambda": 1.0, "beta": 0.10, "xstar": 1.05,
                   "mconst": 0.3},
    },
}


def run_digests(tmp_path, subcommand):
    cfg = tmp_path / f"{subcommand}.json"
    cfg.write_text(json.dumps(CONFIGS[subcommand]), encoding="utf-8")
    out = tmp_path / "out"
    assert cli._execute(subcommand, str(cfg), str(out), None, None) == 0
    digests = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
               for f in sorted(out.iterdir())}
    shutil.rmtree(out)
    return digests


@pytest.fixture
def reload(monkeypatch, tmp_path):
    """Forget the loader's choice and point it at an empty cache."""
    monkeypatch.setattr(_native, "_chosen", None)
    monkeypatch.setattr(_native, "reason", None)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    return tmp_path / "cache" / "stochwave"


@pytest.mark.parametrize("subcommand", sorted(CONFIGS))
def test_runs_fall_back_to_numpy_without_cc(native, reload, monkeypatch,
                                            tmp_path, subcommand):
    monkeypatch.setattr(_native, "_compiler", lambda: None)
    fallback = run_digests(tmp_path, subcommand)
    assert _native.fields() is _native.NUMPY
    assert _native._chosen is _native.FALLBACK
    assert _native.reason == "no C compiler: cc is not on PATH"
    assert not reload.exists()
    monkeypatch.setattr(_native, "_chosen", native)
    assert run_digests(tmp_path, subcommand) == fallback


def test_build_error_falls_back_with_the_compiler_message(reload,
                                                          monkeypatch,
                                                          tmp_path):
    if shutil.which("cc") is None:
        pytest.skip("no cc on PATH")
    broken = tmp_path / "_native.c"
    broken.write_text("this is not C\n")
    monkeypatch.setattr(_native, "SOURCE", broken)
    assert _native.fields() is _native.NUMPY
    assert "exited 1 building _native.c" in _native.reason
    # no library and no temporary file is left behind
    assert list(reload.iterdir()) == []


def test_parity_mismatch_falls_back(native, reload, monkeypatch):
    wrong = native.fields._replace(dtdx2=native.fields.dxy2)
    monkeypatch.setattr(_native, "_bind",
                        lambda lib: native._replace(fields=wrong))
    assert _native.fields() is _native.NUMPY
    assert _native._chosen is _native.FALLBACK
    assert _native.reason == ("dtdx2 differs from NumPy's bits on the "
                              "parity window")


def mangled(native, old, new):
    """The compiled row writer with `old` replaced by `new` in its
    rows."""

    def rows(shape, columns):
        block = native.rows(shape, columns)
        return lambda start, count: bytes(block(start, count)).replace(old,
                                                                       new)

    return rows


def test_formatter_parity_mismatch_falls_back_to_repr(native, reload,
                                                      monkeypatch, tmp_path):
    assert_falls_back(native, monkeypatch, tmp_path, b"e+", b"e",
                      "the row writer writes '1e16' for 1e+16, where repr "
                      "writes '1e+16'")


def test_text_rows_parity_mismatch_falls_back(native, reload, monkeypatch,
                                              tmp_path):
    assert_falls_back(native, monkeypatch, tmp_path, "→".encode(), b"->",
                      "the row writer's rows 0 .. 4 of the parity table "
                      "differ from python_rows'")


def assert_falls_back(native, monkeypatch, tmp_path, old, new, reason):
    """A compiled writer that replaces old by new fails the load check,
    and simulate then writes the compiled run's bytes through Python."""
    monkeypatch.setattr(_native, "_chosen", native)
    compiled_digests = run_digests(tmp_path, "simulate")
    monkeypatch.setattr(_native, "_chosen", None)
    monkeypatch.setattr(
        _native, "_bind",
        lambda lib: native._replace(rows=mangled(native, old, new)))
    assert run_digests(tmp_path, "simulate") == compiled_digests
    assert _native._chosen is _native.FALLBACK
    assert _native.fields() is _native.NUMPY
    assert _native.reason == reason


def test_a_missing_home_is_not_created(reload, monkeypatch, tmp_path):
    monkeypatch.delenv("XDG_CACHE_HOME")
    monkeypatch.setenv("HOME", str(tmp_path / "gone"))
    assert _native.fields() is _native.NUMPY
    assert _native.reason == (f"no cache directory: HOME {tmp_path / 'gone'} "
                              "is not a directory")
    assert not (tmp_path / "gone").exists()


def test_a_shared_cache_directory_is_refused(compiled, reload, monkeypatch):
    reload.mkdir(parents=True, mode=0o755)
    reload.chmod(0o755)
    assert _native.fields() is _native.NUMPY
    assert "is not private to this user (mode 755)" in _native.reason
    assert list(reload.iterdir()) == []
    # a library already there is not loaded either
    reload.chmod(0o700)
    monkeypatch.setattr(_native, "_chosen", None)
    assert _native.fields() is not _native.NUMPY
    reload.chmod(0o775)
    monkeypatch.setattr(_native, "_chosen", None)
    assert _native.fields() is _native.NUMPY
    assert "is not private to this user (mode 775)" in _native.reason


def test_build_is_private_cached_and_named_by_source_and_flags(compiled,
                                                               reload):
    assert _native.fields() is not _native.NUMPY
    (lib,) = reload.iterdir()
    key = hashlib.sha256(_native.SOURCE.read_bytes()
                         + " ".join(_native.FLAGS).encode()).hexdigest()
    assert lib.name == f"native-{key}.so"
    assert reload.stat().st_mode & 0o777 == 0o700
    # nothing is built next to the source
    package = _native.SOURCE.parent
    assert not [p for p in package.iterdir() if p.suffix in (".so", ".tmp")]
    # a second process loads the cached library without building
    mtime = lib.stat().st_mtime_ns
    out = child("from stochwave import _native\n"
                "print(_native.fields() is not _native.NUMPY)\n",
                dict(os.environ))
    assert out.stdout.split() == ["True"], out.stderr
    assert lib.stat().st_mtime_ns == mtime


# ---------------------------------------------------------------------------
# children: laziness and a minimal environment


def child(code, env, *args):
    src = str(Path(stochwave.__file__).resolve().parents[1])
    env = dict(env, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, env=env)


LAZY = """
import json, sys
from stochwave import cli

def state():
    native = sys.modules.get("stochwave._native")
    with open("/proc/self/maps") as f:
        mapped = "/native-" in f.read()
    return [native is not None,
            native is not None and native._chosen is not None, mapped]

seen = []
cfg = cli.parse_config(sys.argv[1])
seen.append(["parse_config", *state()])
for sub in ("martingale", "simulate", "stability"):
    code = cli.run(sub, cfg)
    seen.append([sub, code, *state()])
print(json.dumps(seen))
"""


def test_loading_waits_for_the_first_draw_float_block_or_window(tmp_path):
    cfg = dict(CONFIGS["stability"], output_dir=str(tmp_path / "out"))
    cfg["mc"] = dict(cfg["mc"], paths=100)
    (tmp_path / "cfg.json").write_text(json.dumps(cfg), encoding="utf-8")
    cache = tmp_path / "cache"
    out = child(LAZY, dict(os.environ, XDG_CACHE_HOME=str(cache)),
                str(tmp_path / "cfg.json"))
    assert out.returncode == 0, out.stderr
    has_cc = shutil.which("cc") is not None
    # imported, loaded, library mapped
    assert json.loads(out.stdout.splitlines()[-1]) == [
        ["parse_config", False, False, False],
        ["martingale", 0, True, True, has_cc],
        ["simulate", 0, True, True, has_cc],
        ["stability", 0, True, True, has_cc],
    ]
    assert (cache / "stochwave").exists() == has_cc


STEPPING_RUNS = """
import json, sys
from stochwave import _native, cli

for sub, path in json.loads(sys.argv[1]).items():
    assert cli.run(sub, cli.parse_config(path)) == 0, sub
print(json.dumps([_native.reason, "numpy.random" in sys.modules]))
"""


def test_stepping_runs_leave_numpy_random_unimported(tmp_path):
    # the compiled sampler opens NumPy's normal fill by path and the
    # random fields draw their coefficients in Python: importing
    # numpy.random would cost about 2 MB of RSS
    if shutil.which("cc") is None:
        pytest.skip("no cc on PATH: the fallback sampler imports it")
    configs = {}
    for sub in ("simulate", "carleman", "stability", "martingale"):
        cfg = dict(CONFIGS[sub], output_dir=str(tmp_path / "out" / sub))
        configs[sub] = str(tmp_path / f"{sub}.json")
        Path(configs[sub]).write_text(json.dumps(cfg), encoding="utf-8")
    out = child(STEPPING_RUNS,
                dict(os.environ, XDG_CACHE_HOME=str(tmp_path / "cache")),
                json.dumps(configs))
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout.splitlines()[-1]) == [None, False]


def test_import_and_parse_config_leave_the_library_unloaded(tmp_path):
    # bench/child.py's setup_s times exactly these two steps: neither may
    # build, check or map the library
    (tmp_path / "cfg.json").write_text(json.dumps(CONFIGS["martingale"]),
                                       encoding="utf-8")
    cache = tmp_path / "cache"
    out = child("import sys\nimport stochwave.cli\n"
                "stochwave.cli.parse_config(sys.argv[1])\n"
                "from stochwave import _native\n"
                "with open('/proc/self/maps') as f:\n"
                "    mapped = '/native-' in f.read()\n"
                "print(_native._chosen is None, mapped)\n",
                dict(os.environ, XDG_CACHE_HOME=str(cache)),
                str(tmp_path / "cfg.json"))
    assert out.stdout.split() == ["True", "False"], out.stderr
    assert not cache.exists()


def test_minimal_environment_falls_back_without_a_traceback(tmp_path):
    (tmp_path / "cfg.json").write_text(json.dumps(CONFIGS["stability"]),
                                       encoding="utf-8")
    env = {"PATH": os.environ.get("PATH", "/usr/bin:/bin")}
    run = child("import sys\nfrom stochwave import cli\n"
                "sys.argv[0] = 'stochwave'\ncli.main()\n",
                env, "stability", "--config", str(tmp_path / "cfg.json"),
                "--output-dir", str(tmp_path / "out"))
    assert run.returncode == 0, run.stderr
    assert "Traceback" not in run.stderr
    probe = child("from stochwave import _native\n_native.fields()\n"
                  "print(_native.reason)\n", env)
    assert probe.stdout == ("no cache directory: neither XDG_CACHE_HOME "
                            "nor HOME is set\n"), probe.stderr


# ---------------------------------------------------------------------------
# packaging and the C source


def test_source_compiles_without_warnings():
    cc = shutil.which("cc")
    if cc is None:
        pytest.skip("no cc on PATH")
    done = subprocess.run([cc, "-fsyntax-only", "-Wall", "-Wextra", "-Werror",
                           str(_native.SOURCE)], capture_output=True,
                          text=True)
    assert done.returncode == 0, done.stderr


# ---------------------------------------------------------------------------
# the C file under AddressSanitizer and UndefinedBehaviorSanitizer
#
# sw_rows writes whole words past a cell's end into slack the caller
# sizes, so an undersized block or blob would corrupt the heap silently.
# A small C driver runs the loops on heap buffers of exactly the sizes
# _native.py computes, and any sanitizer report fails the test.  It runs
# sw_normals on exactly P Philox records and on rows of a stride larger
# than the values drawn, through a stand-in for NumPy's normal fill that
# returns the streams' words, so that the draws can be checked against
# NumPy's Philox.

SANITIZE = ("-fsanitize=address,undefined", "-fno-sanitize-recover=all")

DRIVER = r"""
#include <stddef.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

typedef ptrdiff_t idx;

idx sw_rows(idx, idx, idx, const idx *, idx, const void *const *,
            const char *const *, const idx *, const idx *, idx *,
            const uint64_t *, const uint64_t *, char *);
typedef void field(const double *, idx, idx, idx, idx, idx, idx, double,
                   double, double *);
field sw_y2, sw_dty2, sw_dxy2, sw_dtdx2;

typedef struct {
    void *state;
    uint64_t (*next_uint64)(void *);
    uint32_t (*next_uint32)(void *);
    double (*next_double)(void *);
    uint64_t (*next_raw)(void *);
} bitgen;
void sw_normals(void (*)(bitgen *, idx, double *), uint64_t *, idx, idx,
                double, double *, idx);

struct column {
    int is_text;
    const void *data;   /* a float column's span, or a text blob */
    size_t bytes;
    idx first;          /* a float column's cell [0, .., 0] in its span */
    const int64_t *off; /* a text column's ntext + 1 offsets */
    idx ntext;
    const idx *stride;
};

struct block {
    const char *name;
    idx start, count, ndim, ncols;
    const idx *shape;
    const struct column *cols;
    size_t out_bytes;
    const char *want;
    size_t want_len;
};

/* a copy of n bytes in a heap buffer of exactly n bytes */
static void *heap(const void *src, size_t n)
{
    void *p = malloc(n);
    if (n && !p)
        abort();
    if (n)
        memcpy(p, src, n);
    return p;
}

static int run_block(const struct block *b, const uint64_t *pow5,
                     const uint64_t *inv5)
{
    const idx nc = b->ncols, nd = b->ndim;
    const void **cells = calloc(nc, sizeof *cells);
    const char **text = calloc(nc, sizeof *text);
    void **data = calloc(nc, sizeof *data), **off = calloc(nc, sizeof *off);
    idx *ntext = calloc(nc, sizeof *ntext);
    idx *stride = calloc(nc * nd, sizeof *stride);
    idx *pos = malloc(nc * sizeof *pos);
    idx *shape = heap(b->shape, nd * sizeof *shape);
    for (idx c = 0; c < nc; c++) {
        const struct column *col = b->cols + c;
        data[c] = heap(col->data, col->bytes);
        memcpy(stride + c * nd, col->stride, nd * sizeof *stride);
        if (col->is_text) {
            off[c] = heap(col->off, (col->ntext + 1) * sizeof(int64_t));
            cells[c] = off[c];
            text[c] = data[c];
            ntext[c] = col->ntext;
        } else {
            cells[c] = (const double *)data[c] + col->first;
            ntext[c] = -1;
        }
    }
    char *out = malloc(b->out_bytes);
    idx n = sw_rows(b->start, b->count, nd, shape, nc, cells, text, ntext,
                    stride, pos, pow5, inv5, out);
    int bad = n != (idx)b->want_len || memcmp(out, b->want, b->want_len);
    if (bad)
        fprintf(stderr, "%s: rows %td .. %td: %td bytes, not python_rows' "
                "%zu\n", b->name, b->start, b->start + b->count - 1, n,
                b->want_len);
    for (idx c = 0; c < nc; c++) {
        free(data[c]);
        free(off[c]);
    }
    free(out); free(shape); free(pos); free(stride); free(ntext);
    free(off); free(data); free(text); free(cells);
    return bad;
}

/* a stand-in for NumPy's normal fill that reads both kinds of draw: a
 * word's top 53 bits as an integer at even i, a uniform double at odd i */
static void fill(bitgen *g, idx n, double *out)
{
    for (idx i = 0; i < n; i++)
        out[i] = i % 2 ? g->next_double(g->state)
                       : (double)(g->next_uint64(g->state) >> 11);
}

/* P streams from copies of their 11-word records in a heap buffer of
 * exactly P records, drawn in pieces into rows stride doubles apart of
 * a buffer that ends at the last row's last value */
static int run_normals(const uint64_t *records, idx P, const idx *pieces,
                       idx npieces, idx stride, double scale,
                       const uint64_t *want)
{
    idx n = 0;
    for (idx k = 0; k < npieces; k++)
        n += pieces[k];
    uint64_t *states = heap(records, P * 11 * sizeof *states);
    double *out = malloc(((P - 1) * stride + n) * sizeof *out);
    for (idx k = 0, at = 0; k < npieces; at += pieces[k++])
        sw_normals(fill, states, P, pieces[k], scale, out + at, stride);
    int bad = 0;
    for (idx p = 0; p < P; p++)
        bad |= memcmp(out + p * stride, want + p * n, n * 8) != 0;
    if (bad)
        fprintf(stderr, "sw_normals differs from NumPy's Philox words\n");
    free(states);
    free(out);
    return bad;
}

static int run_field(const char *name, field *fn, const uint64_t *y,
                     size_t ny, const idx *dims, const uint64_t *want,
                     size_t nout)
{
    double *Y = heap(y, ny * 8), *out = malloc(nout * 8);
    fn(Y, dims[0], dims[1], dims[2], dims[3], dims[4], dims[5], 0.1, 0.03,
       out);
    int bad = memcmp(out, want, nout * 8) != 0;
    if (bad)
        fprintf(stderr, "%s differs from NumPy's bits\n", name);
    free(Y);
    free(out);
    return bad;
}
"""


def c_array(ctype, name, values):
    return (f"static const {ctype} {name}[] = "
            f"{{{', '.join(map(str, values)) or '0'}}};\n")


def c_bytes(name, data: bytes):
    return c_array("char", name, (f"(char){b}" for b in data))


def c_words(name, a):
    words = np.ascontiguousarray(a).view(np.uint64).ravel().tolist()
    return c_array("uint64_t", name, (f"0x{w:x}ull" for w in words))


def capture(shape, cols):
    """A row writer for _native._prepare that keeps the prepared table
    and renders the columns _prepare renders once through python_rows."""
    block = _native.python_rows(shape, cols)
    block.table = (shape, cols)
    return block


def c_blocks(name, columns, blocks):
    """C data of the table `columns` and a struct block for each (start,
    count) of blocks, with the buffer sizes _native.py computes."""
    count, prepared = _native._prepare(capture, columns)
    shape, cols = prepared.table
    src, structs, entries = [], [], []
    src.append(c_array("idx", f"{name}_shape", shape))
    for c, col in enumerate(cols):
        ctag = f"{name}_{c}"
        if isinstance(col, _native.Text):
            src.append(c_bytes(f"{ctag}_data", col.blob.tobytes()))
            src.append(c_array("int64_t", f"{ctag}_off",
                               col.offsets.tolist()))
            src.append(c_array("idx", f"{ctag}_stride", col.strides))
            structs.append(f"{{1, {ctag}_data, {col.blob.size}, 0, "
                           f"{ctag}_off, {len(col.cells)}, {ctag}_stride}}")
        else:
            # the span of memory the strided view reaches
            steps = [(k - 1) * st for k, st in zip(col.shape, col.strides)]
            lo = sum(min(0, st) for st in steps)
            hi = sum(max(0, st) for st in steps) + 8
            span = np.frombuffer(ctypes.string_at(col.ctypes.data + lo,
                                                  hi - lo), np.uint64)
            src.append(c_words(f"{ctag}_data", span))
            src.append(c_array("idx", f"{ctag}_stride",
                               [st // 8 for st in col.strides]))
            structs.append(f"{{0, {ctag}_data, {hi - lo}, {-lo // 8}, "
                           f"0, 0, {ctag}_stride}}")
    src.append(f"static const struct column {name}_cols[] = "
               f"{{{', '.join(structs)}}};\n")
    for b, (start, n) in enumerate(blocks):
        tag = f"{name}_{b}"
        want = _native.python_rows(shape, cols)(start, n)
        src.append(c_bytes(f"{tag}_want", want))
        entries.append(f'{{"{name}", {start}, {n}, {len(shape)}, '
                       f"{len(cols)}, {name}_shape, {name}_cols, "
                       f"{_native._out_bytes(n, cols)}, {tag}_want, "
                       f"{len(want)}}}")
    return "".join(src), entries


# cells at each length extreme: the longest repr (24 bytes), three-digit
# exponents, 0.0001 and 1e+16 at the layout edges, the float whose
# stores reach furthest past its 24 bytes (17 digits, point after 16),
# and empty and 1-byte text cells
EXTREME_FLOATS = np.array([
    -2.2250738585072014e-308, 1e-300, 0.0001, 1e16, -1.2345678901234567e300,
    5e-324, 0.001, -1234567890123456.8, 1.0, -2.2250738585072014e-308,
])
EXTREME_TABLES = {
    # the longest float last in its row
    "float-last": [["", "a"] * 5, EXTREME_FLOATS],
    # a 1-byte text cell, its column's longest, last in its row
    "text-last": [EXTREME_FLOATS[::-1].copy(), ["a", ""] * 4 + ["", "a"]],
    # a column of empty cells, whose width is 0, last in its row
    "empty-last": [EXTREME_FLOATS, [""] * 10],
    # a 24-byte float, an empty and a 1-byte cell, and a 24-byte float
    "neighbours": [EXTREME_FLOATS, [""] * 10, ["a"] * 10,
                   EXTREME_FLOATS[::-1].copy()],
    # text from numbers: a (J, 1) float column, formatted once by the
    # writer, and a full-size int64 column, rendered once by cell_text,
    # whose longest cell (20 bytes) ends rows 0 and 8
    "numbers-as-text": [EXTREME_FLOATS[[0, 7]][:, None],
                        np.array([-2**63, 7, 0, -1, 2**63 - 1,
                                  10**18, -10**17, 42, -2**63, 5],
                                 dtype=np.int64).reshape(2, 5)],
}


# (seed, counter) of each stream the driver draws, and the pieces it draws
# them in: every offset of the 4-word buffer starts a piece
NORMAL_STREAMS = [(0, 0), (2**64 - 1, 0), (7, 2**64 - 3)]
NORMAL_PIECES = [1, 2, 3, 4, 5, 6, 7, 0, 16, 17, 9]


def test_loops_run_clean_under_sanitizers(tmp_path):
    cc = shutil.which("cc")
    if cc is None:
        pytest.skip("no cc on PATH")
    probe = tmp_path / "probe.c"
    probe.write_text("int main(void) { return 0; }\n", encoding="utf-8")
    if subprocess.run([cc, "-fsanitize=address", "-o", str(tmp_path / "probe"),
                       str(probe)], capture_output=True).returncode != 0:
        pytest.skip("cc cannot link a -fsanitize=address program")

    pow5, inv5 = _native._pow5_tables()
    src = [DRIVER, c_words("POW5", pow5), c_words("INV5", inv5)]
    entries = []
    values = _native._parity_floats()
    parity = _native._parity_columns()
    rows = int(np.prod(np.broadcast_shapes(*(np.shape(c) for c in parity))))
    tables = {
        # the load check's tables, in its blocks
        "parity-floats": ([values], [(0, values.size)]),
        "parity-table": (parity, [(0, 5), (5, rows - 5)]),
        # every block that ends at one of the extreme rows, and each row
        # alone, so that a row of cells at their columns' widths ends
        # the block
        **{name: (cols, [(0, n) for n in range(1, 11)]
                  + [(r, 1) for r in range(10)])
           for name, cols in EXTREME_TABLES.items()},
    }
    for k, (cols, blocks) in enumerate(tables.values()):
        data, more = c_blocks(f"t{k}", cols, blocks)
        src.append(data)
        entries += more
    src.append(f"static const struct block BLOCKS[] = "
               f"{{{', '.join(entries)}}};\n")

    # the four field loops on a strided (P, L+2, M+2) = (3, 6, 7) window
    base = np.sin(np.arange(3 * 6 * 14, dtype=np.float64)) * 1e3
    Y = base.reshape(3, 6, 14)[:, :, ::2]
    Y[0, 2, 3], Y[1, 3, 1], Y[2, 4, 5] = -0.0, np.inf, np.nan
    src.append(c_words("Y", base))
    src.append(c_array("idx", "DIMS",
                       [3, 4, 5, *(st // 8 for st in Y.strides)]))
    calls = []
    with np.errstate(invalid="ignore", over="ignore"):
        for name, extra in _native._EXTRA.items():
            want = np.empty((3, 4, 5 + extra))
            getattr(_native.NUMPY, name)(Y, want, 0.1, 0.03)
            src.append(c_words(f"WANT_{name}", want))
            calls.append(f'bad |= run_field("{name}", sw_{name}, Y, '
                         f"{base.size}, DIMS, WANT_{name}, {want.size});")

    # the sampler's streams: both ends of the key range, and a counter
    # whose low word carries into the next while it is drawn
    records, want = [], []
    scale = _native._PARITY_SCALE
    for seed, counter in NORMAL_STREAMS:
        record = np.zeros(_native._PHILOX_WORDS, dtype=np.uint64)
        record[[0, 4, 10]] = counter, seed, 4
        records.append(record)
        words = np.random.Philox(key=seed, counter=counter).random_raw(
            sum(NORMAL_PIECES)) >> np.uint64(11)
        for piece in np.split(words, np.cumsum(NORMAL_PIECES)[:-1]):
            odd = np.arange(piece.size) % 2 == 1
            want.append(np.where(odd, piece * 2.0**-53,
                                 piece.astype(np.float64)) * scale)
    src.append(c_words("RECORDS", np.concatenate(records)))
    src.append(c_array("idx", "PIECES", NORMAL_PIECES))
    src.append(c_words("WANT_NORMALS", np.concatenate(want)))
    stride = sum(NORMAL_PIECES) + 3
    calls.append(f"bad |= run_normals(RECORDS, {len(NORMAL_STREAMS)}, "
                 f"PIECES, {len(NORMAL_PIECES)}, {stride}, {scale!r}, "
                 "WANT_NORMALS);")
    src.append("int main(void)\n{\n    int bad = 0;\n"
               "    for (size_t b = 0; b < sizeof BLOCKS / sizeof *BLOCKS; "
               "b++)\n        bad |= run_block(BLOCKS + b, POW5, INV5);\n"
               + "".join(f"    {c}\n" for c in calls)
               + "    return bad;\n}\n")
    driver = tmp_path / "driver.c"
    driver.write_text("".join(src), encoding="utf-8")

    exe = tmp_path / "driver"
    flags = [f for f in _native.FLAGS if f not in ("-shared", "-fPIC")]
    build = subprocess.run([cc, *flags, "-g", *SANITIZE, "-o", str(exe),
                            str(driver), str(_native.SOURCE)],
                           capture_output=True, text=True)
    assert build.returncode == 0, build.stderr
    run = subprocess.run([str(exe)], capture_output=True, text=True,
                         env=dict(os.environ, ASAN_OPTIONS="detect_leaks=1"))
    assert (run.returncode, run.stderr) == (0, ""), run.stderr[-4000:]


def test_source_ships_next_to_the_loader():
    assert _native.SOURCE == Path(_native.__file__).with_name("_native.c")
    assert _native.SOURCE.is_file()
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    if not pyproject.is_file():
        pytest.skip("not run from a source checkout")
    meta = tomllib.loads(pyproject.read_text(encoding="utf-8"))
    data = meta["tool"]["setuptools"]["package-data"]["stochwave"]
    assert "_native.c" in data
