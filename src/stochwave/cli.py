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
    3  config or experiment-setup error (JSON syntax, validation,
       module preconditions, an output_dir that cannot be written, a
       data, coefficient or path-0 array or a path block that does not
       fit in memory); weight and sweep values and the grid's dt are
       checked at parse, with their JSON pointers, by every
       subcommand, and a config refused there, or for its sweep or
       weight section, martingale's path count, weights-order's
       refined grids or s on its coarsest grid, the identity suite's
       mesh, or memory, creates no files
    4  numeric failure (solution blow-up, singular update, weight
       overflow, degenerate order fit); carleman's weights and
       weights-order's weights and fits are evaluated before anything
       is written, so a failure there creates no files
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

from .errors import DegenerateOrderError, SingularUpdateError
from .estimators import (
    MARTINGALE_MIN_PATHS,
    carleman_stack_shapes,
    carleman_terms,
    carleman_weights,
    martingale_check,
    stability_terms,
)
from .fields import (
    COEFF_PRESETS,
    constant_coefficient,
    preset_coefficient,
    preset_varies_in_x,
    random_field,
    random_slice,
    sine_field,
    sine_slice,
    zero_field,
)
from .grids import build_grid
from .identities import check_mesh, identity_residuals
from .solver import (
    ProblemData,
    SchemeCoefficients,
    Window,
    check_array_memory,
    observe,
    stream_block,
    stream_windows,
)
from .solver import run_ensemble  # noqa: F401  (bound for bench/tracer.py)
from .weights import EXPRESSION_IDS, WeightParams, check_coarsest_level, estimate_order

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
#
# Each object section is declared once, as a table mapping each key to
# (parser, default).  A parser takes (value, JSON pointer) and returns
# the parsed value.  An absent key with default _REQUIRED is refused,
# with default None is None, and with any other default is parsed as if
# the default had been written in the config.

_REQUIRED = object()


def _at(ptr: str, fn, *args, **kwargs):
    """fn(*args, **kwargs), a ValueError from it refused at ptr."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(ptr, str(exc)) from None


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _need_object(node, ptr):
    if not isinstance(node, dict):
        raise ConfigError(ptr, f"expected an object, got {type(node).__name__}")
    return node


def _check_keys(node, allowed, ptr):
    for key in node:
        if key not in allowed:
            raise ConfigError(f"{ptr}/{key}", "unknown key")


def _as_int(v, ptr, minimum=None, maximum=None):
    if not _is_int(v):
        raise ConfigError(ptr, f"expected an integer, got {reprlib.repr(v)}")
    if minimum is not None and v < minimum:
        raise ConfigError(ptr, f"must be >= {minimum}, got {v}")
    if maximum is not None and v > maximum:
        raise ConfigError(ptr, f"must be <= {maximum}, got {reprlib.repr(v)}")
    return v


def _as_num(v, ptr):
    if not (_is_int(v) or isinstance(v, float)):
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


def _int(minimum, maximum=None):
    return lambda v, ptr: _as_int(v, ptr, minimum, maximum)


def _str(choices=None):
    return lambda v, ptr: _as_str(v, ptr, choices)


_count = _int(1, _MAX_COUNT)


def _positive(v, ptr):
    v = _as_num(v, ptr)
    if v <= 0:
        raise ConfigError(ptr, f"must be > 0, got {v}")
    return v


def _section(table):
    """The parser of an object whose keys are those of `table`; it
    returns a dict with every key of the table, in the table's order."""

    def parse(node, ptr):
        node = _need_object(node, ptr)
        _check_keys(node, table, ptr)
        out = {}
        for key, (parse_value, default) in table.items():
            if key in node:
                out[key] = parse_value(node[key], f"{ptr}/{key}")
            elif default is _REQUIRED:
                raise ConfigError(f"{ptr}/{key}", "missing required key")
            else:
                out[key] = (
                    None if default is None
                    else parse_value(default, f"{ptr}/{key}")
                )
        return out

    return parse


def _one_of(kinds):
    """The parser of an object that names exactly one of `kinds`, a
    table of kind -> parser; it returns (kind, parsed value)."""

    def parse(node, ptr):
        node = _need_object(node, ptr)
        _check_keys(node, kinds, ptr)
        if len(node) != 1:
            raise ConfigError(ptr, f"choose exactly one of {'/'.join(kinds)}")
        ((kind, value),) = node.items()
        return kind, kinds[kind](value, f"{ptr}/{kind}")

    return parse


# each weight key: its WeightParams field and its default; kappa has no
# field, since it weighs the Carleman functional's terms, not the weight
_WEIGHT = {
    "s": ("s", _REQUIRED),
    "lambda": ("lam", _REQUIRED),
    "beta": ("beta", _REQUIRED),
    "xstar": ("xstar", _REQUIRED),
    "mconst": ("mconst", _REQUIRED),
    "epsilon": ("epsilon", 0.5),
    "dt_multiplier": ("dt_mult", 1.0),
    "kappa": (None, 0.0),
}
_SWEEPABLE = tuple(f"weight.{key}" for key in _WEIGHT)


def _weight_params(w: dict, T: float, ptr: str):
    """(WeightParams, kappa) of a parsed weight section; a value out of
    its range is refused at ptr."""
    fields = {field: w[key] for key, (field, _) in _WEIGHT.items()}
    kappa = fields.pop(None)
    return _at(ptr, WeightParams, T=T, **fields), kappa


def _sweep_parameter(v, ptr):
    v = _as_str(v, ptr)
    if v not in _SWEEPABLE:
        raise ConfigError(
            ptr, f"not a sweepable scalar; choose one of {list(_SWEEPABLE)}"
        )
    return v


def _numbers(v, ptr):
    if not isinstance(v, list) or not v:
        raise ConfigError(ptr, "expected a nonempty array")
    return [_as_num(x, f"{ptr}/{i}") for i, x in enumerate(v)]


# each data kind: its keys, and its builders of an initial slice from
# (grid, *values) and of an interior field from (grid, space_only,
# *values).  The builders look the field functions up when called.
_DATA_KINDS = {
    "zero": (
        {},
        lambda grid: zero_field(grid, "closure", None),
        lambda grid, space_only: zero_field(grid, "primal", "primal"),
    ),
    "sine": (
        {"mode": (_count, _REQUIRED),
         "amplitude": (_as_num, _REQUIRED)},
        lambda grid, mode, amp: sine_slice(grid, mode, amp),
        lambda grid, space_only, mode, amp: sine_field(grid, mode, amp),
    ),
    "random": (
        {"seed": (_int(0, _MAX_SEED), _REQUIRED),
         "amplitude": (_as_num, _REQUIRED)},
        lambda grid, seed, amp: random_slice(grid, seed, amp),
        lambda grid, space_only, seed, amp: random_field(
            grid, seed, amp, space_only=space_only
        ),
    ),
}
_data_kind = _one_of(
    {kind: _section(keys) for kind, (keys, _, _) in _DATA_KINDS.items()}
)


def _data_spec(node, ptr):
    """A data spec as (kind, *values); "zero" is short for {"zero": {}}."""
    kind, values = _data_kind({"zero": {}} if node == "zero" else node, ptr)
    return (kind, *values.values())


_MC = {
    "paths": (_count, 1),
    "master_seed": (_int(0), 0),
}
_data = _section({key: (_data_spec, "zero") for key in ("y0", "y1", "g", "f")})
_coefficient = _one_of({"constant": _as_num, "preset": _str(COEFF_PRESETS)})

_CONFIG = _section({
    "grid": (
        _section({
            "M": (_count, _REQUIRED),
            "N": (_count, _REQUIRED),
            "T": (_positive, _REQUIRED),
        }),
        _REQUIRED,
    ),
    "weight": (
        _section({key: (_as_num, dflt) for key, (_, dflt) in _WEIGHT.items()}),
        None,
    ),
    "coefficients": (
        _section({sym: (_coefficient, {"constant": 0.0}) for sym in "abcd"}),
        {},
    ),
    "data": (_data, {}),
    "data_b": (_data, None),
    "g_mode": (_str({"space_time", "space_only"}), "space_time"),
    "mc": (_section(_MC), {}),
    "sweep": (
        _section({
            "parameter": (_sweep_parameter, _REQUIRED),
            "values": (_numbers, _REQUIRED),
        }),
        None,
    ),
    "output_dir": (_str(), "out"),
})


class RunConfig:
    """Validated experiment configuration plus the raw-byte hash.

    Each top-level key is the attribute of its name, parsed.  grid is the
    Grid, and weight the WeightParams of the weight section (None without
    one); weights holds the (WeightParams, kappa) pair of each Carleman
    evaluation: the weight section's, or one per sweep value.  The grid
    and the weights are checked once every section has parsed, so a
    config with a malformed section is refused at that section."""

    def __init__(self, raw: dict, sha256: str):
        vars(self).update(_CONFIG(raw, ""))
        self.sha256 = sha256
        self.grid = _at("/grid", build_grid, **self.grid)
        section = self.weight
        self.weights = []
        if section is not None:
            T = self.grid.T
            self.weights = [_weight_params(section, T, "/weight")]
            self.weight = self.weights[0][0]
            if self.sweep is not None:
                key = self.sweep["parameter"].split(".", 1)[1]
                self.weights = [
                    _weight_params({**section, key: v}, T, f"/sweep/values/{i}")
                    for i, v in enumerate(self.sweep["values"])
                ]


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


def _make_coeffs(cfg: RunConfig, grid) -> SchemeCoefficients:
    """Each coefficient is built, and checked for finite values, once."""
    make = {"constant": constant_coefficient, "preset": preset_coefficient}
    return SchemeCoefficients(**{
        sym: make[kind](grid, arg)
        for sym, (kind, arg) in cfg.coefficients.items()
    })


def _make_slice(spec, grid):
    return _DATA_KINDS[spec[0]][1](grid, *spec[1:])


def _make_interior_field(spec, grid, space_only: bool):
    return _DATA_KINDS[spec[0]][2](grid, space_only, *spec[1:])


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


def _columns(rows, width):
    """The columns of a small table given as a list of row tuples."""
    return list(zip(*rows)) if rows else [()] * width


# rows assembled and handed to the file per write
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
        each of its J values K times while rendering each once.  A
        float64 array with a cell for every row is formatted as repr
        formats it, _ROWS_PER_WRITE rows at a time, so its text is held
        one block at a time whatever the table's length.  Every other
        column is text, rendered once for the whole table: true or false
        for a bool, str of an integer, repr of a float (see
        _native.table and _native.cell_text)."""
        from . import _native  # at the first table: importing costs setup

        count, block = _native.table(columns)
        with open(self.dir / name, "wb") as fh:
            fh.write((",".join(header) + "\n").encode())
            for i in range(0, count, _ROWS_PER_WRITE):
                fh.write(block(i, min(_ROWS_PER_WRITE, count - i)))
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
    grid = cfg.grid
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
    """The grid and its count - 1 refinements (M -> 2M + 1, N -> 2N); a
    refinement whose dt underflows is refused at /grid."""
    M, N, T = cfg.grid.M, cfg.grid.N, cfg.grid.T
    levels = []
    for _ in range(count):
        try:
            levels.append(build_grid(M, N, T))
        except ValueError as exc:
            raise ConfigError(
                "/grid", f"{exc} at weights-order's refined N = {N}"
            ) from None
        M, N = 2 * M + 1, 2 * N
    return levels


def _order_estimates(cfg: RunConfig):
    """weights-order's fits, one per expression, made before anything
    is written: a refined grid whose dt underflows is refused at /grid,
    a coarsest grid with max(s*dx, s*dt) > 1 at /weight, and a weight
    that overflows or a fit without a slope is a numeric failure."""
    levels = _order_levels(cfg)
    _at("/weight", check_coarsest_level, cfg.weight, levels[0])
    return [estimate_order(expr, cfg.weight, levels)
            for expr in EXPRESSION_IDS]


def _run_weights_order(cfg: RunConfig, out: ArtifactWriter, estimates) -> int:
    summary, residual_rows = [], []
    for expr, est in zip(EXPRESSION_IDS, estimates):
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
    dB = np.empty(grid.N + 1)
    data = _make_problem(cfg.data, cfg, grid)
    coeffs = _make_coeffs(cfg, grid)
    block = -1
    for win in _stream(cfg, out, data, coeffs, grid):
        block += win.n0 == 0
        if block == 0:
            head[win.n0 : win.n0 + win.levels + 2] = win.Y[0]
            dB[win.n0 : win.n0 + win.levels + 1] = win.dB[0]
    return head, dB


def _run_simulate(cfg: RunConfig, out: ArtifactWriter) -> int:
    """Step the family, then observe and write path 0.  Only path 0's
    levels and increments are held from the end of the stream on: the
    observation and the CSV writer run without the problem data, and
    the writer formats _ROWS_PER_WRITE rows at a time."""
    grid = cfg.grid
    head, dB = _step_path_zero(cfg, grid, out)
    win = Window(grid, head[None], dB[None], 0)
    x, J, K = grid.space_closure, grid.M + 2, grid.N + 2
    # one row per (j, n), space-major: the axes broadcast against Y[0].T
    out.csv(
        "trajectory.csv",
        ("j", "x", "n", "t", "y"),
        (np.arange(J)[:, None], x[:, None], np.arange(K), grid.time_closure,
         win.Y[0].T),
    )
    flux, (terminal_y, terminal_v) = observe(win, grid)
    out.csv(
        "flux.csv",
        ("n", "t", "flux"),
        (np.arange(1, grid.N + 1), grid.time_primal, flux[0]),
    )
    out.csv(
        "terminal.csv",
        ("j", "x", "terminal_y", "terminal_v"),
        (np.arange(J), x, terminal_y[0], terminal_v[0]),
    )
    click.echo(
        f"simulate: {cfg.mc['paths']} path(s), wrote trajectory of path 0, "
        f"max |y| {np.max(np.abs(head)):.6g}"
    )
    return EXIT_OK


def _memory_preflight(cfg: RunConfig, subcommand: str):
    """Refuse, with MemoryError, a stepping run that cannot fit in
    physical memory, before anything is built or written: first any one
    full-size array it builds, in the order it builds them (simulate's
    copy of path 0, the data's g or f, carleman's factor stacks and each
    preset coefficient that varies in x), then a block of its window
    stream.  Zero data is a zero-stride view, so the data's (M, N) array
    counts only where a non-zero g or f is configured, or where
    stability is given data_b (the g difference is always a full
    array); a preset that does not read x is one row of values
    (fields.preset_varies_in_x)."""
    grid = cfg.grid
    M, N = grid.M, grid.N
    arrays = []
    if subcommand == "simulate":
        arrays.append(("copy of path 0", (N + 2, M + 2)))
    built = [key for key in ("g", "f") if cfg.data[key] != ("zero",)]
    if subcommand == "stability" and cfg.data_b is not None:
        built = ["g"]
    if built:
        arrays.append((f"data's {built[0]}", (M, N)))
    if subcommand == "carleman":
        arrays += [
            (f"carleman factor stack {key}", shape) for key, shape
            in carleman_stack_shapes(grid, len(cfg.weights)).items()
        ]
    arrays += [
        (f"preset coefficient {sym}", (M + 2, N + 1))
        for sym, (kind, name) in cfg.coefficients.items()
        if kind == "preset" and preset_varies_in_x(name)
    ]
    check_array_memory(arrays)
    stream_block(grid, cfg.mc["paths"])


def _hard_fail(rep) -> bool:
    adm = rep.admissibility
    return not (adm.t_condition and adm.phi_positive)


def _carleman_inputs(cfg: RunConfig):
    """carleman's problem data and every weight set's factors, made
    before anything is written or stepped: a weight that overflows is
    a numeric failure here."""
    data = _make_problem(cfg.data, cfg, cfg.grid)
    params, kappa = zip(*cfg.weights)
    return data, carleman_weights(params, data, cfg.grid, kappa=kappa)


def _run_carleman(cfg: RunConfig, out: ArtifactWriter, data, weights) -> int:
    grid = cfg.grid
    coeffs = _make_coeffs(cfg, grid)
    # the weights do not enter the trajectories: one ensemble serves all
    reps = carleman_terms(
        _stream(cfg, out, data, coeffs, grid), weights, data, grid
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
    grid = cfg.grid
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
    grid = cfg.grid
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


_STEPPING = ("simulate", "carleman", "stability", "martingale")


def run(subcommand: str, cfg: RunConfig) -> int:
    """Dispatch one subcommand; returns the process exit code and writes
    the artifact files plus manifest.json under cfg.output_dir."""
    if subcommand not in _SUBCOMMANDS:
        raise ValueError(f"unknown subcommand {subcommand!r}")
    if cfg.sweep is not None and subcommand != "carleman":
        raise ConfigError(
            "/sweep", "sweeps are only supported by the carleman subcommand"
        )
    if cfg.weight is None and subcommand in ("weights-order", "carleman"):
        raise ConfigError("/weight", "this subcommand needs a weight section")
    paths = cfg.mc["paths"]
    if subcommand == "martingale" and paths < MARTINGALE_MIN_PATHS:
        raise ConfigError(
            "/mc/paths",
            f"the martingale check needs >= {MARTINGALE_MIN_PATHS} paths, "
            f"got {paths}",
        )
    # refused here, before anything is built or written; the weights
    # are evaluated here too, and handed to the subcommand
    if subcommand in _STEPPING:
        # every stepping run draws its increments through _native, which
        # loads the library at the first draw.  Imported here, before the
        # run checks or builds anything, the module's compilation from
        # source (no cached bytecode) frees about 1 MB that the run's
        # arrays then reuse; imported at the first draw, it adds to the
        # run's peak.
        from . import _native  # noqa: F401

        _memory_preflight(cfg, subcommand)
    inputs = ()
    if subcommand == "weights-order":
        inputs = (_order_estimates(cfg),)
    if subcommand == "carleman":
        inputs = _carleman_inputs(cfg)
    if subcommand == "identities":
        _at("/grid", check_mesh, cfg.grid)
    out = ArtifactWriter(cfg.output_dir, cfg.sha256, subcommand)
    code = _SUBCOMMANDS[subcommand](cfg, out, *inputs)
    out.finish()
    return code


def _execute(subcommand, config_path, output_dir, paths, seed) -> int:
    try:
        cfg = parse_config(config_path)
        if output_dir is not None:
            cfg.output_dir = output_dir
        for key, value in (("paths", paths), ("master_seed", seed)):
            if value is not None:
                cfg.mc[key] = _MC[key][0](value, f"/mc/{key}")
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
