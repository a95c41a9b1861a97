"""Compiled estimator fields (stochwave._native): bit-for-bit parity of
every loop with the NumPy reference, the fallback to NumPy and its
reason, laziness, and the packaged source."""

import hashlib
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
# fallback


CONFIGS = {
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


@pytest.mark.parametrize("subcommand", ["carleman", "stability"])
def test_runs_fall_back_to_numpy_without_cc(compiled, reload, monkeypatch,
                                            tmp_path, subcommand):
    monkeypatch.setattr(_native, "_compiler", lambda: None)
    fallback = run_digests(tmp_path, subcommand)
    assert _native.fields() is _native.NUMPY
    assert _native.reason == "no C compiler: cc is not on PATH"
    assert not reload.exists()
    monkeypatch.setattr(_native, "_chosen", compiled)
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


def test_parity_mismatch_falls_back(compiled, reload, monkeypatch):
    wrong = compiled._replace(dtdx2=compiled.dxy2)
    monkeypatch.setattr(_native, "_bind", lambda lib: wrong)
    assert _native.fields() is _native.NUMPY
    assert _native.reason == ("dtdx2 differs from NumPy's bits on the "
                              "parity window")


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


def test_loading_waits_for_the_first_estimator_window(tmp_path):
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
        ["martingale", 0, False, False, False],
        ["simulate", 0, False, False, False],
        ["stability", 0, True, True, has_cc],
    ]
    assert (cache / "stochwave").exists() == has_cc


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
# packaging


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
