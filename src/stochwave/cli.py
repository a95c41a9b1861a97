"""Batch front door: JSON experiment configs in, CSV/JSON artifacts out.

Configs are strict JSON: unknown keys are rejected and every validation
message carries a JSON-pointer location.  Outputs are byte-identical
for identical (config, flags) pairs: floats are written with repr, JSON
keys are sorted, line endings are LF, and every file is declared in a
manifest.json carrying the sha256 of the raw config bytes.

Exit codes, so CI can tell failure classes apart:

\b
    0  success
    2  usage error (bad flags, unknown subcommand)
    3  config or experiment-setup error (JSON syntax, validation, a
       master_seed_b that differs from master_seed, module
       preconditions, an output_dir that cannot be written, a path
       block that does not fit in memory)
    4  numeric failure (solution blow-up, singular update, weight
       overflow, degenerate order fit)
    5  admissibility hard-fail (the weight geometry is wrong for the
       domain: phi changes sign or the time horizon is too short)
    6  statistical test failure (identity residual above 1e-10, or the
       martingale statistic outside its 4-standard-error band)

Mesh admissibility conditions (s*dx and the dt bound) only warn: they
are resolution knobs, not geometry, and the report records them.
\f
The report dataclasses are the artifact schema (the form feed above
ends the --help text): _report_obj writes a report's fields as JSON,
and _term_rows its lhs and then rhs terms as CSV rows.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import reprlib
import sys
from pathlib import Path

import click
import numpy as np

from .errors import BlowUpError, DegenerateOrderError, SingularUpdateError
from .estimators import carleman_terms, martingale_check, stability_terms
from .fields import (
    constant_coefficient,
    preset_coefficient,
    random_field,
    random_slice,
    sine_field,
    sine_slice,
    zero_field,
)
from .grids import GridFunction, build_grid
from .identities import identity_residuals
from .solver import (
    BrownianPath,
    ProblemData,
    SchemeCoefficients,
    Trajectory,
    observe,
    path_seed,
    stream_windows,
)
from .solver import run_ensemble  # noqa: F401  (bound for bench/tracer.py)
from .weights import EXPRESSION_IDS, WeightParams, check_admissible, estimate_order

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CONFIG = 3
EXIT_NUMERIC = 4
EXIT_ADMISSIBILITY = 5
EXIT_STATISTICAL = 6

IDENTITY_GATE = 1e-10

# largest mesh size, path count or sine mode, and largest random-data seed
_MAX_COUNT = 2**63 - 1
_MAX_SEED = 2**64 - 1


class ConfigError(Exception):
    """Config validation failure with a JSON-pointer location."""

    def __init__(self, pointer: str, message: str):
        self.pointer = pointer
        super().__init__(f"{pointer}: {message}")


# ---------------------------------------------------------------------------
# strict config parsing

_SWEEPABLE = (
    "weight.s",
    "weight.lambda",
    "weight.beta",
    "weight.xstar",
    "weight.mconst",
    "weight.epsilon",
    "weight.dt_multiplier",
    "weight.kappa",
)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_num(v) -> bool:
    return _is_int(v) or isinstance(v, float)


def _need_object(node, ptr):
    if not isinstance(node, dict):
        raise ConfigError(ptr, f"expected an object, got {type(node).__name__}")
    return node


def _check_keys(node, allowed, ptr):
    for key in node:
        if key not in allowed:
            raise ConfigError(f"{ptr}/{key}", "unknown key")


def _get(node, key, ptr, required=True, default=None):
    if key not in node:
        if required:
            raise ConfigError(f"{ptr}/{key}", "missing required key")
        return default
    return node[key]


def _as_int(v, ptr, minimum=None, maximum=None):
    if not _is_int(v):
        raise ConfigError(ptr, f"expected an integer, got {reprlib.repr(v)}")
    if minimum is not None and v < minimum:
        raise ConfigError(ptr, f"must be >= {minimum}, got {v}")
    if maximum is not None and v > maximum:
        raise ConfigError(ptr, f"must be <= {maximum}, got {reprlib.repr(v)}")
    return v


def _as_num(v, ptr):
    if not _is_num(v):
        raise ConfigError(ptr, f"expected a number, got {reprlib.repr(v)}")
    # an integer literal past the float range: float() would overflow
    if abs(v) > sys.float_info.max:
        raise ConfigError(
            ptr,
            f"must be <= {sys.float_info.max!r} in magnitude, got "
            f"{reprlib.repr(v)}",
        )
    return float(v)


def _as_str(v, ptr, choices=None):
    if not isinstance(v, str):
        raise ConfigError(ptr, f"expected a string, got {reprlib.repr(v)}")
    if choices is not None and v not in choices:
        raise ConfigError(ptr, f"must be one of {sorted(choices)}, got {v!r}")
    return v


def _parse_grid(node, ptr):
    node = _need_object(node, ptr)
    _check_keys(node, {"M", "N", "T"}, ptr)
    M = _as_int(_get(node, "M", ptr), f"{ptr}/M", 1, _MAX_COUNT)
    N = _as_int(_get(node, "N", ptr), f"{ptr}/N", 1, _MAX_COUNT)
    T = _as_num(_get(node, "T", ptr), f"{ptr}/T")
    if T <= 0:
        raise ConfigError(f"{ptr}/T", f"must be > 0, got {T}")
    return {"M": M, "N": N, "T": T}


def _parse_weight(node, ptr):
    node = _need_object(node, ptr)
    allowed = {
        "s",
        "lambda",
        "beta",
        "xstar",
        "mconst",
        "epsilon",
        "dt_multiplier",
        "kappa",
    }
    _check_keys(node, allowed, ptr)
    out = {}
    for key in ("s", "lambda", "beta", "xstar", "mconst"):
        out[key] = _as_num(_get(node, key, ptr), f"{ptr}/{key}")
    for key, default in (
        ("epsilon", 0.5),
        ("dt_multiplier", 1.0),
        ("kappa", 0.0),
    ):
        v = _get(node, key, ptr, required=False, default=default)
        out[key] = _as_num(v, f"{ptr}/{key}")
    return out


_COEFF_PRESET_NAMES = {"zero", "one", "ramp_x", "ramp_t", "sine_x"}


def _parse_coefficients(node, ptr):
    node = _need_object(node, ptr)
    _check_keys(node, {"a", "b", "c", "d"}, ptr)
    out = {}
    for sym in ("a", "b", "c", "d"):
        if sym not in node:
            out[sym] = ("constant", 0.0)
            continue
        spec = _need_object(node[sym], f"{ptr}/{sym}")
        _check_keys(spec, {"constant", "preset"}, f"{ptr}/{sym}")
        if len(spec) != 1:
            raise ConfigError(
                f"{ptr}/{sym}", "choose exactly one of constant/preset"
            )
        if "constant" in spec:
            out[sym] = (
                "constant",
                _as_num(spec["constant"], f"{ptr}/{sym}/constant"),
            )
        else:
            name = _as_str(
                spec["preset"], f"{ptr}/{sym}/preset", _COEFF_PRESET_NAMES
            )
            out[sym] = ("preset", name)
    return out


def _parse_data_spec(node, ptr):
    if node == "zero":
        return ("zero",)
    spec = _need_object(node, ptr)
    _check_keys(spec, {"zero", "sine", "random"}, ptr)
    if len(spec) != 1:
        raise ConfigError(ptr, "choose exactly one of zero/sine/random")
    if "zero" in spec:
        sub = _need_object(spec["zero"], f"{ptr}/zero")
        _check_keys(sub, set(), f"{ptr}/zero")
        return ("zero",)
    if "sine" in spec:
        sub = _need_object(spec["sine"], f"{ptr}/sine")
        _check_keys(sub, {"mode", "amplitude"}, f"{ptr}/sine")
        mode = _as_int(
            _get(sub, "mode", f"{ptr}/sine"), f"{ptr}/sine/mode", 1, _MAX_COUNT
        )
        amp = _as_num(
            _get(sub, "amplitude", f"{ptr}/sine"), f"{ptr}/sine/amplitude"
        )
        return ("sine", mode, amp)
    sub = _need_object(spec["random"], f"{ptr}/random")
    _check_keys(sub, {"seed", "amplitude"}, f"{ptr}/random")
    seed = _as_int(
        _get(sub, "seed", f"{ptr}/random"), f"{ptr}/random/seed", 0, _MAX_SEED
    )
    amp = _as_num(
        _get(sub, "amplitude", f"{ptr}/random"), f"{ptr}/random/amplitude"
    )
    return ("random", seed, amp)


def _parse_data(node, ptr):
    node = _need_object(node, ptr)
    _check_keys(node, {"y0", "y1", "g", "f"}, ptr)
    out = {}
    for key in ("y0", "y1", "g", "f"):
        if key in node:
            out[key] = _parse_data_spec(node[key], f"{ptr}/{key}")
        else:
            out[key] = ("zero",)
    return out


def _parse_mc(node, ptr):
    node = _need_object(node, ptr)
    _check_keys(node, {"paths", "master_seed", "master_seed_b"}, ptr)
    paths = _as_int(
        _get(node, "paths", ptr, required=False, default=1), f"{ptr}/paths",
        1, _MAX_COUNT,
    )
    seed = _as_int(
        _get(node, "master_seed", ptr, required=False, default=0),
        f"{ptr}/master_seed",
        0,
    )
    seed_b = node.get("master_seed_b")
    if seed_b is not None:
        seed_b = _as_int(seed_b, f"{ptr}/master_seed_b", 0)
    mc = {"paths": paths, "master_seed": seed, "master_seed_b": seed_b}
    _check_common_noise(mc)
    return mc


def _check_common_noise(mc):
    """master_seed_b may only repeat master_seed: the stability pair is
    stepped as one difference system, which needs common noise."""
    seed_b = mc["master_seed_b"]
    if seed_b is not None and seed_b != mc["master_seed"]:
        raise ConfigError(
            "/mc/master_seed_b",
            f"must equal master_seed ({mc['master_seed']}), got {seed_b} "
            "(coupling error: the difference system needs common noise)",
        )


def _parse_sweep(node, ptr):
    node = _need_object(node, ptr)
    _check_keys(node, {"parameter", "values"}, ptr)
    param = _as_str(_get(node, "parameter", ptr), f"{ptr}/parameter")
    if param not in _SWEEPABLE:
        raise ConfigError(
            f"{ptr}/parameter",
            f"not a sweepable scalar; choose one of {list(_SWEEPABLE)}",
        )
    values = _get(node, "values", ptr)
    if not isinstance(values, list) or not values:
        raise ConfigError(f"{ptr}/values", "expected a nonempty array")
    out = []
    for i, v in enumerate(values):
        out.append(_as_num(v, f"{ptr}/values/{i}"))
    return {"parameter": param, "values": out}


class RunConfig:
    """Validated experiment configuration plus the raw-byte hash."""

    def __init__(self, raw: dict, sha256: str):
        _check_keys(
            raw,
            {
                "grid",
                "weight",
                "coefficients",
                "data",
                "data_b",
                "g_mode",
                "mc",
                "sweep",
                "output_dir",
            },
            "",
        )
        self.grid = _parse_grid(_get(raw, "grid", ""), "/grid")
        self.weight = (
            _parse_weight(raw["weight"], "/weight") if "weight" in raw else None
        )
        self.coefficients = _parse_coefficients(
            raw.get("coefficients", {}), "/coefficients"
        )
        self.data = _parse_data(raw.get("data", {}), "/data")
        self.data_b = (
            _parse_data(raw["data_b"], "/data_b") if "data_b" in raw else None
        )
        self.g_mode = _as_str(
            raw.get("g_mode", "space_time"),
            "/g_mode",
            {"space_time", "space_only"},
        )
        self.mc = _parse_mc(raw.get("mc", {}), "/mc")
        self.sweep = _parse_sweep(raw["sweep"], "/sweep") if "sweep" in raw else None
        self.output_dir = _as_str(raw.get("output_dir", "out"), "/output_dir")
        self.sha256 = sha256


def parse_config(path) -> RunConfig:
    """Load and validate a strict-JSON config file."""
    p = Path(path)
    try:
        blob = p.read_bytes()
    except OSError as exc:
        raise ConfigError("", f"cannot read config {path!r}: {exc}") from None
    try:
        raw = json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError("", f"invalid JSON: {exc}") from None
    except RecursionError:
        raise ConfigError(
            "", "invalid JSON: arrays or objects nested too deeply to parse"
        ) from None
    if not isinstance(raw, dict):
        raise ConfigError("", "top level must be a JSON object")
    _reject_non_finite(raw)
    return RunConfig(raw, hashlib.sha256(blob).hexdigest())


def _reject_non_finite(root):
    """Strict JSON has no NaN or Infinity: json.loads accepts those
    literals (and turns out-of-range numbers such as 1e999 into inf),
    so refuse any non-finite number, at its JSON pointer.  The walk
    keeps its own stack, so any depth json.loads accepted is fine, and
    visits nodes in document order, so the first offender is reported."""
    stack = [(root, "")]
    while stack:
        node, ptr = stack.pop()
        if isinstance(node, float) and not math.isfinite(node):
            raise ConfigError(ptr, f"non-finite number {node!r} is not allowed")
        if isinstance(node, dict):
            items = node.items()
        elif isinstance(node, list):
            items = enumerate(node)
        else:
            continue
        children = [
            (child, ptr + "/" + str(key).replace("~", "~0").replace("/", "~1"))
            for key, child in items
        ]
        stack.extend(reversed(children))


# ---------------------------------------------------------------------------
# realization of configured objects


def _make_grid(cfg: RunConfig):
    return build_grid(cfg.grid["M"], cfg.grid["N"], cfg.grid["T"])


def _weight_section(cfg: RunConfig) -> dict:
    if cfg.weight is None:
        raise ConfigError("/weight", "this subcommand needs a weight section")
    return cfg.weight


def _make_weight_params(w: dict, cfg: RunConfig) -> WeightParams:
    return WeightParams(
        s=w["s"],
        lam=w["lambda"],
        beta=w["beta"],
        xstar=w["xstar"],
        mconst=w["mconst"],
        T=cfg.grid["T"],
        epsilon=w["epsilon"],
        dt_mult=w["dt_multiplier"],
    )


def _make_coeffs(cfg: RunConfig, grid) -> SchemeCoefficients:
    """Each coefficient is built, and checked for finite values, once."""
    make = {"constant": constant_coefficient, "preset": preset_coefficient}
    return SchemeCoefficients(**{
        sym: make[kind](grid, arg)
        for sym, (kind, arg) in cfg.coefficients.items()
    })


def _make_slice(spec, grid):
    if spec[0] == "zero":
        return zero_field(grid, "closure", None)
    if spec[0] == "sine":
        return sine_slice(grid, spec[1], spec[2])
    return random_slice(grid, spec[1], spec[2])


def _make_interior_field(spec, grid, space_only: bool):
    if spec[0] == "zero":
        return zero_field(grid, "primal", "primal")
    if spec[0] == "sine":
        return sine_field(grid, spec[1], spec[2])
    return random_field(grid, spec[1], spec[2], space_only=space_only)


def _make_problem(data_spec, cfg: RunConfig, grid) -> ProblemData:
    space_only = cfg.g_mode == "space_only"
    f_spec = data_spec["f"]
    f = None if f_spec == ("zero",) else _make_interior_field(f_spec, grid, False)
    return ProblemData(
        y0=_make_slice(data_spec["y0"], grid),
        y1=_make_slice(data_spec["y1"], grid),
        g=_make_interior_field(data_spec["g"], grid, space_only),
        f=f,
    )


# ---------------------------------------------------------------------------
# deterministic writers


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _column_text(col) -> np.ndarray:
    """The CSV text of every cell of one column, as an object array of
    the column's shape.  A float or integer array is formatted by
    `_cell_text`; any other column goes through `_fmt` cell by cell."""
    if _is_numeric(col):
        return np.array(_cell_text(col), dtype=object).reshape(col.shape)
    cells = [_fmt(v) for v in col]
    return np.array(cells, dtype=object).reshape(len(cells))


def _is_numeric(col) -> bool:
    return isinstance(col, np.ndarray) and col.dtype.kind in "fiu"


def _cell_text(cells: np.ndarray) -> list:
    """The CSV text of the cells of an array, in C order: a float or
    integer array is converted with one `tolist` and formatted by `repr`
    or `str`, which is what `_fmt` gives each of its cells; an object
    array already holds text."""
    values = cells.ravel().tolist()
    if cells.dtype.kind == "O":
        return values
    return list(map(repr if cells.dtype.kind == "f" else str, values))


def _columns(rows, width):
    """The columns of a small table given as a list of row tuples."""
    return list(zip(*rows)) if rows else [()] * width


# rows formatted, joined and handed to the file per write
_ROWS_PER_WRITE = 1 << 11


class ArtifactWriter:
    """Writes CSV/JSON under output_dir and records the manifest."""

    def __init__(self, output_dir: str, config_sha256: str, subcommand: str):
        self.dir = Path(output_dir)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.sha = config_sha256
        self.subcommand = subcommand
        self.entries = []

    def csv(self, name: str, header, columns):
        """Write one table, given column by column: each entry of
        `columns` is a NumPy array or a sequence of cells.  The columns
        broadcast against each other and the rows run over the broadcast
        shape in C order, so a (J, 1) column beside a (K,) column repeats
        each of its J values K times while formatting each once.

        A numeric column with a cell for every row is formatted one
        block of _ROWS_PER_WRITE rows at a time, so the text held at
        once is one block's whatever the table's length; a sequence
        column, or one that broadcasts (fewer cells than rows), is
        formatted whole, once per cell."""
        cols = [c if _is_numeric(c) else _column_text(c) for c in columns]
        shape = np.broadcast_shapes(*(c.shape for c in cols))
        count = math.prod(shape)
        cols = [
            _column_text(c) if _is_numeric(c) and c.size < count else c
            for c in cols
        ]
        flats = [np.broadcast_to(c, shape).flat for c in cols]
        with open(self.dir / name, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(header) + "\n")
            for i in range(0, count, _ROWS_PER_WRITE):
                block = [_cell_text(f[i : i + _ROWS_PER_WRITE]) for f in flats]
                fh.write("\n".join(map(",".join, zip(*block))) + "\n")
        self.entries.append({"name": name, "rows": count})

    def json(self, name: str, obj):
        """Write one standard-JSON document; a non-finite float in obj
        raises FloatingPointError naming the file and its JSON pointer,
        since standard JSON has no NaN or Infinity."""
        _check_json_finite(name, obj)
        text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"
        (self.dir / name).write_text(text, encoding="utf-8", newline="\n")
        self.entries.append({"name": name, "rows": len(text.splitlines())})

    def finish(self):
        manifest = {
            "config_sha256": self.sha,
            "subcommand": self.subcommand,
            "files": sorted(self.entries, key=lambda e: e["name"]),
        }
        text = json.dumps(manifest, sort_keys=True, indent=2) + "\n"
        (self.dir / "manifest.json").write_text(
            text, encoding="utf-8", newline="\n"
        )


def _check_json_finite(name: str, obj, ptr: str = ""):
    if isinstance(obj, float) and not math.isfinite(obj):
        raise FloatingPointError(
            f"{name}: {ptr or '/'} is {obj!r}, which standard JSON cannot "
            "hold"
        )
    if isinstance(obj, dict):
        for key, value in obj.items():
            _check_json_finite(name, value, f"{ptr}/{key}")
    elif isinstance(obj, (list, tuple)):
        for i, value in enumerate(obj):
            _check_json_finite(name, value, f"{ptr}/{i}")


def _stream(cfg: RunConfig, out: ArtifactWriter, data, coeffs, grid):
    """The window stream of the configured path family.  If dt > dx,
    first say on stderr, once per run, that the explicit scheme is
    outside its stability limit, so the warning also precedes the
    blow-up it explains.  The artifacts do not record it."""
    if grid.cfl_warning:
        click.echo(
            f"{out.subcommand}: warning, dt > dx (explicit scheme unstable)",
            err=True,
        )
    return stream_windows(
        data, coeffs, grid, cfg.mc["paths"], cfg.mc["master_seed"]
    )


def _report_obj(rep) -> dict:
    """The JSON form of an estimator's report: its dataclass fields,
    nested reports included, with CarlemanReport.lam written as
    "lambda"."""
    obj = dataclasses.asdict(rep)
    if "lam" in obj:
        obj["lambda"] = obj.pop("lam")
    return obj


def _term_rows(rep):
    """(term, value, stderr) rows of a report's lhs and then its rhs
    terms, in their order."""
    return [
        (key, st.mean, st.stderr)
        for terms in (rep.lhs, rep.rhs)
        for key, st in terms.items()
    ]


# ---------------------------------------------------------------------------
# subcommand bodies


def _run_identities(cfg: RunConfig, out: ArtifactWriter) -> int:
    grid = _make_grid(cfg)
    # field seeds reduced to 64 bits, as path_seed reduces its input
    seed = cfg.mc["master_seed"]
    u = random_field(grid, seed % 2**64, 1.0, "closure", "closure")
    v = random_field(grid, (seed + 1) % 2**64, 1.0, "closure", "closure")
    table = identity_residuals(u, v)
    rows = [
        (ident, "" if res is None else res) for ident, res in table.rows()
    ]
    out.csv("identities.csv", ("identity", "residual"), _columns(rows, 2))
    worst = table.max_residual()
    click.echo(f"identities: max residual {worst:.3e} over {len(rows)} rows")
    return EXIT_OK if worst <= IDENTITY_GATE else EXIT_STATISTICAL


def _order_levels(cfg: RunConfig, count=4):
    M, N, T = cfg.grid["M"], cfg.grid["N"], cfg.grid["T"]
    levels = []
    for _ in range(count):
        levels.append(build_grid(M, N, T))
        M, N = 2 * M + 1, 2 * N
    return levels


def _run_weights_order(cfg: RunConfig, out: ArtifactWriter) -> int:
    params = _make_weight_params(_weight_section(cfg), cfg)
    levels = _order_levels(cfg)
    summary, residual_rows = [], []
    for expr in EXPRESSION_IDS:
        est = estimate_order(expr, params, levels)
        summary.append((expr, est.order, est.fit_residual))
        for dx, res in zip(est.dx, est.residuals):
            residual_rows.append((expr, dx, res))
        click.echo(f"weights-order: {expr} order {est.order:.3f}")
    out.csv(
        "weights_order.csv",
        ("expression", "order", "fit_residual"),
        _columns(summary, 3),
    )
    out.csv(
        "weights_residuals.csv",
        ("expression", "dx", "residual"),
        _columns(residual_rows, 3),
    )
    return EXIT_OK


def _step_path_zero(cfg: RunConfig, grid, out: ArtifactWriter):
    """Step every path of the configured family and keep a copy of path
    0 only (the first block's windows come first): its levels 0..N+1,
    (N+2, M+2), and its N+1 increments.  The problem data, the
    coefficients and the stream's buffers are dropped on return."""
    # the kept copy first: the data made after it, and freed before the
    # writer runs, then leave the top of the heap free for the writer
    head = np.empty((grid.N + 2, grid.M + 2))
    data = _make_problem(cfg.data, cfg, grid)
    coeffs = _make_coeffs(cfg, grid)
    block = -1
    for win in _stream(cfg, out, data, coeffs, grid):
        block += win.n0 == 0
        if block == 0:
            head[win.n0 : win.n0 + win.levels + 2] = win.Y[0]
            if win.last:
                dB = win.dB[0].copy()
    return head, dB


def _run_simulate(cfg: RunConfig, out: ArtifactWriter) -> int:
    """Step the family, then observe and write path 0.  Only path 0's
    levels and increments are held from the end of the stream on: the
    observation and the CSV writer run without the problem data, and
    the writer formats _ROWS_PER_WRITE rows at a time."""
    grid = _make_grid(cfg)
    paths, master_seed = cfg.mc["paths"], cfg.mc["master_seed"]
    head, dB = _step_path_zero(cfg, grid, out)
    traj = Trajectory(
        y=GridFunction(
            grid, head.T, grid.space_axis("closure"), grid.time_axis("closure")
        ),
        path=BrownianPath(dB, path_seed(master_seed, 0)),
        cfl_warning=grid.cfl_warning,
    )
    y = traj.y
    vals = y.values
    J, K = vals.shape
    # one row per (j, n), space-major: the axes broadcast against vals
    out.csv(
        "trajectory.csv",
        ("j", "x", "n", "t", "y"),
        (np.arange(J)[:, None], y.x[:, None], np.arange(K), y.t, vals),
    )
    obs = observe(traj, grid)
    fx = obs.flux
    out.csv(
        "flux.csv",
        ("n", "t", "flux"),
        (np.arange(1, fx.values.shape[0] + 1), fx.t, fx.values),
    )
    ty, tv = obs.terminal_y, obs.terminal_v
    out.csv(
        "terminal.csv",
        ("j", "x", "terminal_y", "terminal_v"),
        (np.arange(J), ty.x, ty.values, tv.values),
    )
    click.echo(
        f"simulate: {paths} path(s), wrote trajectory of path 0, "
        f"max |y| {np.max(np.abs(vals)):.6g}"
    )
    return EXIT_OK


def _hard_fail(rep) -> bool:
    adm = rep.admissibility
    return not (adm.t_condition and adm.phi_positive)


def _run_carleman(cfg: RunConfig, out: ArtifactWriter) -> int:
    grid = _make_grid(cfg)
    data = _make_problem(cfg.data, cfg, grid)
    coeffs = _make_coeffs(cfg, grid)
    weight = _weight_section(cfg)
    if cfg.sweep is None:
        weights = [weight]
    else:
        # one weight section per sweep value; cfg.weight stays as parsed
        key = cfg.sweep["parameter"].split(".", 1)[1]
        weights = [{**weight, key: v} for v in cfg.sweep["values"]]
    params = [_make_weight_params(w, cfg) for w in weights]
    # the weights do not enter the trajectories: one ensemble serves all
    reps = carleman_terms(
        _stream(cfg, out, data, coeffs, grid), params, data, grid,
        kappa=[w["kappa"] for w in weights],
    )
    if cfg.sweep is None:
        rep = reps[0]
        out.json("carleman.json", _report_obj(rep))
        out.csv(
            "carleman_terms.csv",
            ("term", "value", "stderr"),
            _columns(_term_rows(rep), 3),
        )
        ratio = "undefined" if not rep.ratio_defined else f"{rep.ratio:.6g}"
        click.echo(f"carleman: ratio {ratio}, admissible {rep.admissible}")
        return EXIT_ADMISSIBILITY if _hard_fail(rep) else EXIT_OK
    sweep_rows = []
    fail = False
    for i, (value, rep) in enumerate(zip(cfg.sweep["values"], reps)):
        out.json(f"carleman_{i:02d}.json", _report_obj(rep))
        for term, mean, stderr in _term_rows(rep):
            sweep_rows.append((value, term, mean, stderr))
        fail = fail or _hard_fail(rep)
        ratio = "undefined" if not rep.ratio_defined else f"{rep.ratio:.6g}"
        click.echo(
            f"carleman: {cfg.sweep['parameter']} = {value}: ratio {ratio}"
        )
    out.csv(
        "carleman_sweep.csv",
        ("sweep_value", "term", "value", "stderr"),
        _columns(sweep_rows, 4),
    )
    return EXIT_ADMISSIBILITY if fail else EXIT_OK


def _difference_system(cfg: RunConfig, grid):
    """The data and coefficients of the one family stability steps: the
    difference system of the coupled pair, data minus data_b.  The two
    problems are dropped on return, so only the difference is resident
    while the paths are stepped."""
    if cfg.data_b is not None:
        data_a = _make_problem(cfg.data, cfg, grid)
        diff = data_a.difference(_make_problem(cfg.data_b, cfg, grid))
    else:
        # the default comparison problem is zero data under the same
        # forcing: x - (+0.0) is x bit for bit and the shared f cancels,
        # so the difference is data's y0, y1 and g, and f is never built
        diff = _make_problem({**cfg.data, "f": ("zero",)}, cfg, grid)
    return diff, _make_coeffs(cfg, grid)


def _run_stability(cfg: RunConfig, out: ArtifactWriter) -> int:
    """Step the difference system and reduce it window by window.  The
    stream holds the difference data, one window, one block's
    increments and the window's table rows; neither problem of the pair
    is resident."""
    grid = _make_grid(cfg)
    diff, coeffs = _difference_system(cfg, grid)
    rep = stability_terms(
        _stream(cfg, out, diff, coeffs, grid), diff, grid, g_mode=cfg.g_mode
    )
    out.json("stability.json", _report_obj(rep))
    out.csv(
        "stability_terms.csv",
        ("term", "value", "stderr"),
        _columns(_term_rows(rep), 3),
    )
    if rep.ratio_unsquared_defined:
        click.echo(f"stability: ratio {rep.ratio_unsquared:.6g}")
    else:
        click.echo("stability: ratio undefined (all terms zero)")
    return EXIT_OK


def _run_martingale(cfg: RunConfig, out: ArtifactWriter) -> int:
    grid = _make_grid(cfg)
    data = _make_problem(cfg.data, cfg, grid)
    coeffs = _make_coeffs(cfg, grid)
    st = martingale_check(_stream(cfg, out, data, coeffs, grid), grid)
    bound = 4.0 * st.stderr
    ok = abs(st.mean) <= bound
    out.json(
        "martingale.json", {**_report_obj(st), "bound_4se": bound, "pass": ok}
    )
    click.echo(
        f"martingale: mean {st.mean:+.3e}, stderr {st.stderr:.3e}, "
        f"{'pass' if ok else 'FAIL'}"
    )
    return EXIT_OK if ok else EXIT_STATISTICAL


_SUBCOMMANDS = {
    "identities": _run_identities,
    "weights-order": _run_weights_order,
    "simulate": _run_simulate,
    "carleman": _run_carleman,
    "stability": _run_stability,
    "martingale": _run_martingale,
}


def run(subcommand: str, cfg: RunConfig) -> int:
    """Dispatch one subcommand; returns the process exit code and writes
    the artifact files plus manifest.json under cfg.output_dir."""
    if subcommand not in _SUBCOMMANDS:
        raise ValueError(f"unknown subcommand {subcommand!r}")
    if cfg.sweep is not None and subcommand != "carleman":
        raise ConfigError(
            "/sweep", "sweeps are only supported by the carleman subcommand"
        )
    out = ArtifactWriter(cfg.output_dir, cfg.sha256, subcommand)
    code = _SUBCOMMANDS[subcommand](cfg, out)
    out.finish()
    return code


def _execute(subcommand, config_path, output_dir, paths, seed) -> int:
    try:
        cfg = parse_config(config_path)
        if output_dir is not None:
            cfg.output_dir = output_dir
        if paths is not None:
            cfg.mc["paths"] = _as_int(paths, "/mc/paths", 1, _MAX_COUNT)
        if seed is not None:
            cfg.mc["master_seed"] = _as_int(seed, "/mc/master_seed", 0)
            _check_common_noise(cfg.mc)
        return run(subcommand, cfg)
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        return EXIT_CONFIG
    except (SingularUpdateError, DegenerateOrderError) as exc:
        click.echo(f"numeric failure: {exc}", err=True)
        return EXIT_NUMERIC
    except ValueError as exc:
        click.echo(f"invalid experiment: {exc}", err=True)
        return EXIT_CONFIG
    except FloatingPointError as exc:  # BlowUpError, WeightOverflowError
        click.echo(f"numeric failure: {exc}", err=True)
        return EXIT_NUMERIC
    except OSError as exc:
        # an unreadable config is a ConfigError: this failed writing output
        where = exc.filename or cfg.output_dir
        msg = exc.strerror or exc
        click.echo(f"cannot write output: {where}: {msg}", err=True)
        return EXIT_CONFIG
    except MemoryError as exc:
        # NumPy's message names the size of the array it could not make
        click.echo(f"out of memory: {exc or 'an allocation failed'}", err=True)
        return EXIT_CONFIG


def _common_options(fn):
    fn = click.option(
        "--seed", type=click.IntRange(min=0), default=None,
        help="Override mc.master_seed.",
    )(fn)
    fn = click.option(
        "--paths", type=click.IntRange(min=1), default=None,
        help="Override mc.paths.",
    )(fn)
    fn = click.option(
        "--output-dir", type=click.Path(), default=None,
        help="Override output_dir.",
    )(fn)
    fn = click.option(
        "--config", "config_path", type=click.Path(), required=True,
        help="Path to the JSON experiment config.",
    )(fn)
    return fn


@click.group(
    help=__doc__,
    context_settings={"help_option_names": ["-h", "--help"]},
)
def main():
    pass


def _register(name, doc):
    @main.command(name=name, help=doc)
    @_common_options
    def _cmd(config_path, output_dir, paths, seed, _name=name):
        sys.exit(_execute(_name, config_path, output_dir, paths, seed))

    return _cmd


_register("identities", "Summation-by-parts residual table on random data.")
_register(
    "weights-order",
    "Mesh-refinement order of the discrete weight derivative residuals.",
)
_register("simulate", "Solve the scheme and write trajectory/observation CSVs.")
_register(
    "carleman",
    "Monte Carlo weighted-energy terms and their ratio (supports sweep).",
)
_register(
    "stability",
    "Data-difference vs observation-difference norms for a coupled pair.",
)
_register("martingale", "Zero-mean test of the adapted Ito-sum statistic.")


if __name__ == "__main__":
    main()
