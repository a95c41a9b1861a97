"""Command-line front end: strict config parsing, artifact layout,
determinism, flag overrides, and the exit-code contract."""

import dataclasses
import hashlib
import json
import shutil
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from golden import run_cli as invoke

import stochwave.cli as cli_mod
import stochwave.solver as solver_mod
from stochwave import _native
from stochwave.cli import ArtifactWriter, ConfigError, parse_config
from stochwave.fields import zero_field
from stochwave.solver import (
    ProblemData,
    SchemeCoefficients,
    observe,
    run_ensemble,
)

GRID = {"M": 4, "N": 4, "T": 1.0}
WEIGHT = {"s": 0.7, "lambda": 0.9, "beta": 0.3, "xstar": 1.3, "mconst": 0.25}

# admissible weight setup, frozen alongside the acceptance sweep
GOOD_CARLEMAN = {
    "grid": {"M": 15, "N": 1792, "T": 3.5},
    "weight": {
        "s": 2.0, "lambda": 0.05, "beta": 0.5, "xstar": 1.5,
        "mconst": 10.0, "epsilon": 0.5,
    },
    "coefficients": {"a": {"constant": -0.5}, "d": {"constant": 0.5}},
    "data": {
        "y0": {"sine": {"mode": 1, "amplitude": 1.0}},
        "g": {"random": {"seed": 21, "amplitude": 0.5}},
    },
    "mc": {"paths": 2, "master_seed": 3},
}


def write_cfg(tmp_path, obj, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(obj), encoding="utf-8")
    return p


# ---------------------------------------------------------------------------
# config parsing


def test_parse_minimal_defaults(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, {"grid": GRID}))
    assert (cfg.grid.M, cfg.grid.N, cfg.grid.T) == (4, 4, 1.0)
    assert cfg.mc == {"paths": 1, "master_seed": 0}
    assert cfg.output_dir == "out"
    assert cfg.g_mode == "space_time"
    assert cfg.weight is None and cfg.sweep is None and cfg.data_b is None


def test_parse_weight_defaults(tmp_path):
    cfg = parse_config(
        write_cfg(tmp_path, {"grid": GRID, "weight": dict(WEIGHT)})
    )
    assert cfg.weight.epsilon == 0.5
    assert cfg.weight.dt_mult == 1.0
    assert cfg.weights[0][1] == 0.0


def test_parse_sha256_of_raw_bytes(tmp_path):
    p = write_cfg(tmp_path, {"grid": GRID})
    assert parse_config(p).sha256 == hashlib.sha256(p.read_bytes()).hexdigest()


@pytest.mark.parametrize(
    "mangle,pointer",
    [
        (lambda c: c["grid"].pop("M"), "/grid/M"),
        (lambda c: c["grid"].__setitem__("M", "four"), "/grid/M"),
        (lambda c: c["grid"].__setitem__("M", True), "/grid/M"),
        (lambda c: c["grid"].__setitem__("M", 0), "/grid/M"),
        (lambda c: c["grid"].__setitem__("bogus", 1), "/grid"),
        (lambda c: c.__setitem__("bogus", 1), "/bogus"),
        (lambda c: c.__setitem__("mc", {"paths": 0}), "/mc/paths"),
        (lambda c: c.__setitem__("g_mode", "diagonal"), "/g_mode"),
        (
            lambda c: c.__setitem__(
                "sweep", {"parameter": "grid.M", "values": [1]}
            ),
            "/sweep/parameter",
        ),
        (
            lambda c: c.__setitem__("data", {"y0": {"sine": {"mode": 0}}}),
            "/data/y0/sine/mode",
        ),
        (   # json.dumps writes the non-standard NaN / -Infinity literals
            lambda c: c.__setitem__(
                "data",
                {"y0": {"sine": {"mode": 1, "amplitude": float("nan")}}},
            ),
            "/data/y0/sine/amplitude",
        ),
        (
            lambda c: c.__setitem__(
                "sweep",
                {"parameter": "weight.s", "values": [1.0, float("-inf")]},
            ),
            "/sweep/values/1",
        ),
        # value ranges: checked at parse, whatever the subcommand
        (
            lambda c: c.__setitem__("weight", dict(WEIGHT, beta=2.0)),
            "/weight: beta",
        ),
        (
            lambda c: c.update(
                weight=dict(WEIGHT),
                sweep={"parameter": "weight.beta", "values": [0.5, 3.0]},
            ),
            "/sweep/values/1: beta",
        ),
        (
            lambda c: c["grid"].__setitem__("T", 5e-324),
            "/grid: dt = T/N underflows",
        ),
    ],
)
def test_parse_pointer_errors(tmp_path, mangle, pointer):
    raw = {"grid": dict(GRID)}
    mangle(raw)
    with pytest.raises(ConfigError) as exc:
        parse_config(write_cfg(tmp_path, raw))
    assert pointer in str(exc.value)


@pytest.mark.parametrize("subcommand", sorted(cli_mod._SUBCOMMANDS))
def test_weight_range_is_checked_by_every_subcommand(tmp_path, subcommand):
    raw = {"grid": GRID, "weight": dict(WEIGHT, beta=2.0)}
    res = invoke([subcommand, "--config", str(write_cfg(tmp_path, raw)),
                  "--output-dir", str(tmp_path / "o")])
    assert res.exit_code == 3, res.output
    assert res.stderr == (
        "config error: /weight: beta must lie in (0,1), got 2.0\n"
    )


@pytest.mark.parametrize(
    "subcommand, raw",
    [
        ("carleman", {"grid": GRID}),
        ("carleman", {"grid": GRID, "weight": dict(WEIGHT, beta=2.0)}),
        ("simulate", {"grid": dict(GRID, T=5e-324)}),
    ],
)
def test_refused_config_creates_no_output_dir(tmp_path, subcommand, raw):
    out = tmp_path / "o"
    res = invoke([subcommand, "--config", str(write_cfg(tmp_path, raw)),
                  "--output-dir", str(out)])
    assert res.exit_code == 3, res.output
    assert not out.exists()


@pytest.mark.parametrize(
    "subcommand, raw, message",
    [
        ("martingale", {"grid": GRID, "mc": {"paths": 1}},
         "config error: /mc/paths: the martingale check needs >= 100 "
         "paths, got 1\n"),
        ("weights-order", {"grid": {"M": 2, "N": 1, "T": 2e-323},
                           "weight": WEIGHT},
         "config error: /grid: dt = T/N underflows to zero for T = 2e-323 "
         "at weights-order's refined N = 8\n"),
        ("weights-order", {"grid": {"M": 3, "N": 4, "T": 1.0},
                           "weight": {"s": 10.0, "lambda": 0.5, "beta": 0.5,
                                      "xstar": 1.5, "mconst": 1.0}},
         "config error: /weight: coarsest level violates "
         "max(s*dx, s*dt) <= 1: s*dx=2.5, s*dt=2.5\n"),
        ("identities", {"grid": {"M": 1, "N": 4, "T": 1.0}},
         "config error: /grid: identity suite needs M >= 2 and N >= 2, "
         "got M=1, N=4\n"),
    ],
    ids=["martingale-paths", "weights-order-refined-grid",
         "weights-order-coarsest-grid", "identities-mesh"],
)
def test_refused_before_stepping_or_writing(tmp_path, monkeypatch,
                                            subcommand, raw, message):
    assert_refused_early(tmp_path, monkeypatch, subcommand, raw, 3, message)


def assert_refused_early(tmp_path, monkeypatch, subcommand, raw, code,
                         message):
    """subcommand on raw exits with code and message on stderr, having
    made no output_dir and no window stream."""
    stepped = []
    monkeypatch.setattr(cli_mod, "stream_windows",
                        lambda *args: stepped.append(args))
    out = tmp_path / "o"
    res = invoke([subcommand, "--config", str(write_cfg(tmp_path, raw)),
                  "--output-dir", str(out)])
    assert res.exit_code == code, res.output
    assert res.stderr == message
    assert not out.exists()
    assert stepped == []


OVERFLOWING_WEIGHT = {"s": 0.7, "lambda": 800.0, "beta": 0.3, "xstar": 1.3,
                      "mconst": 0.25}


@pytest.mark.parametrize(
    "subcommand, weight, message",
    [
        ("carleman", OVERFLOWING_WEIGHT,
         "numeric failure: lam*phi exceeds the float64 exponent range; "
         "reduce lam or mconst (exp argument 1064.5)\n"),
        # lam*phi fits; s*varphi, and then 2*s*varphi for r^2, does not
        ("carleman", dict(WEIGHT, s=800.0),
         "numeric failure: s*varphi exceeds the float64 exponent range; "
         "reduce s or lam (exp argument 2649.63)\n"),
        # s*varphi fits, 2*s*varphi does not
        ("carleman", dict(WEIGHT, s=150.0),
         "numeric failure: 2*s*varphi exceeds the float64 exponent range; "
         "r^2 terms need smaller s or lam (exp argument 993.61)\n"),
        ("weights-order", OVERFLOWING_WEIGHT,
         "numeric failure: lam*phi exceeds the float64 exponent range; "
         "reduce lam or mconst (exp argument 842)\n"),
        ("weights-order", dict(WEIGHT, s=0.0),
         "numeric failure: expression 'r_dx_rho' is numerically exact on "
         "the coarsest level (residual 0.000e+00); no order is "
         "estimable\n"),
    ],
    ids=["carleman-overflow", "carleman-l-overflow", "carleman-r2-overflow",
         "weights-order-overflow", "weights-order-exact"],
)
def test_weight_failures_come_before_stepping_or_writing(
        tmp_path, monkeypatch, subcommand, weight, message):
    raw = {"grid": {"M": 3, "N": 4, "T": 1.0}, "weight": weight}
    assert_refused_early(tmp_path, monkeypatch, subcommand, raw, 4, message)


# 72.8 TiB for a full g alone
HUGE = {"M": 100_000_000, "N": 100_000, "T": 1.0}
SINE_G = {"g": {"sine": {"mode": 1, "amplitude": 1.0}}}


@pytest.mark.parametrize(
    "subcommand, raw, phys, array",
    [
        ("simulate", {"grid": HUGE}, 2**40,
         "the copy of path 0, a 100002 x 100000002 float64 array, needs "
         "80001601600032 bytes"),
        ("carleman", {"grid": HUGE, "weight": WEIGHT, "data": SINE_G}, 2**40,
         "the data's g, a 100000000 x 100000 float64 array, needs "
         "80000000000000 bytes"),
        # g (3 x 4 x 8 B = 96 B) fits, the first factor stack of a
        # two-value sweep (2 x 4 x 3 x 8 B) does not
        ("carleman", {"grid": {"M": 3, "N": 4, "T": 1.0}, "weight": WEIGHT,
                      "sweep": {"parameter": "weight.s",
                                "values": [0.7, 0.8]}}, 150,
         "the carleman factor stack L1, a 2 x 4 x 3 float64 array, needs "
         "192 bytes"),
        # the zero g is not budgeted, a preset coefficient (5 x 5 x 8 B)
        # does not fit
        ("stability", {"grid": {"M": 3, "N": 4, "T": 1.0},
                       "coefficients": {"b": {"preset": "sine_x"}}}, 150,
         "the preset coefficient b, a 5 x 5 float64 array, needs 200 "
         "bytes"),
        ("martingale", {"grid": HUGE, "data": SINE_G, "mc": {"paths": 100}},
         2**40,
         "the data's g, a 100000000 x 100000 float64 array, needs "
         "80000000000000 bytes"),
        # ramp_t is one row of values broadcast along x, sine_x a full
        # array
        ("martingale", {"grid": HUGE, "mc": {"paths": 100},
                        "coefficients": {"a": {"preset": "ramp_t"},
                                         "b": {"preset": "sine_x"}}},
         2**40,
         "the preset coefficient b, a 100000002 x 100001 float64 array, "
         "needs 80000801600016 bytes"),
        # a zero g is a zero-stride view: only the stream block counts,
        # with one window's 17 increments and a noise stream per path
        ("martingale", {"grid": HUGE, "mc": {"paths": 100}}, 2**36,
         "a block of 1 path(s) holding 18 of the 100002 time levels of a "
         "100000000 x 100000 mesh needs 14400000288 bytes for its "
         "trajectories and 96000003080 bytes with one window's 17 of its "
         "100001 increments and a 1024-byte noise stream per path and 17 "
         "rows of the six coefficient and data tables"),
    ],
    ids=["simulate", "carleman", "carleman-stacks", "stability",
         "martingale", "martingale-presets", "martingale-zero-g"],
)
def test_arrays_larger_than_memory_are_refused_before_building(
        tmp_path, monkeypatch, subcommand, raw, phys, array):
    monkeypatch.setattr(solver_mod, "_physical_bytes", lambda: phys)
    built = []
    monkeypatch.setattr(cli_mod, "_make_problem",
                        lambda *args: built.append(args))
    assert_refused_early(
        tmp_path, monkeypatch, subcommand, raw, 3,
        f"out of memory: {array}, more than the {phys} bytes of physical "
        "memory\n")
    assert built == []


@pytest.mark.parametrize(
    "subcommand, raw, refused",
    [
        ("martingale", {}, None),
        ("carleman", {}, "carleman factor stack L1"),
        ("martingale", {"data": {"f": SINE_G["g"]}}, "data's f"),
        # stability's G norm reads a zero g difference once
        ("stability", {}, None),
        # the difference of two zero g is a zero-stride view
        ("stability", {"data_b": {}}, None),
        # the default comparison problem cancels f
        ("stability", {"data": {"f": SINE_G["g"]}}, None),
        ("stability", {"data_b": SINE_G}, "data's g"),
    ],
    ids=["martingale", "carleman", "martingale-f", "stability",
         "stability-data-b", "stability-f", "stability-data-b-g"],
)
def test_zero_data_is_not_budgeted_as_a_full_array(
        tmp_path, monkeypatch, subcommand, raw, refused):
    """A mesh whose zero g would not fit in memory as a full array
    passes the preflight, unless another full array is built."""
    monkeypatch.setattr(solver_mod, "_physical_bytes", lambda: 2**40)
    cfg = parse_config(write_cfg(tmp_path, {
        "grid": HUGE, "weight": WEIGHT, "mc": {"paths": 100}, **raw,
    }))
    if refused is None:
        cli_mod._memory_preflight(cfg, subcommand)
    else:
        with pytest.raises(MemoryError, match=f"^the {refused}, a "):
            cli_mod._memory_preflight(cfg, subcommand)


def test_parse_rejects_invalid_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError, match="invalid JSON"):
        parse_config(p)


def test_parse_rejects_non_object(tmp_path):
    p = tmp_path / "arr.json"
    p.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(ConfigError, match="top level"):
        parse_config(p)


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_exit_config_non_finite_literal(tmp_path, literal):
    p = tmp_path / "cfg.json"
    p.write_text(
        '{"grid": {"M": 4, "N": 4, "T": 1.0}, "data": {"y0": '
        f'{{"sine": {{"mode": 1, "amplitude": {literal}}}}}}}}}',
        encoding="utf-8",
    )
    res = invoke(
        ["simulate", "--config", str(p), "--output-dir", str(tmp_path / "o")]
    )
    assert res.exit_code == 3
    assert "/data/y0/sine/amplitude" in res.stderr
    assert "non-finite" in res.stderr


@pytest.mark.parametrize("depth", [995, 100_000])
def test_exit_config_deep_nesting(tmp_path, depth):
    p = tmp_path / "cfg.json"
    p.write_text('{"grid": ' + "[" * depth + "]" * depth + "}", encoding="utf-8")
    res = invoke(
        ["simulate", "--config", str(p), "--output-dir", str(tmp_path / "o")]
    )
    assert res.exit_code == 3
    assert "nested too deeply" in res.stderr
    assert "Traceback" not in res.output


def test_parse_deep_value_message_is_bounded(tmp_path):
    # deep enough to reach the value check, but parsed by json.loads
    deep = "[" * 500 + "]" * 500
    p = tmp_path / "cfg.json"
    p.write_text('{"grid": {"M": ' + deep + ', "N": 4, "T": 1.0}}',
                 encoding="utf-8")
    with pytest.raises(ConfigError) as exc:
        parse_config(p)
    assert "/grid/M" in str(exc.value)
    assert len(str(exc.value)) < 100


def test_parse_missing_file():
    with pytest.raises(ConfigError, match="cannot read"):
        parse_config("/no/such/config.json")


# ---------------------------------------------------------------------------
# artifacts and manifest


def read_manifest(outdir):
    return json.loads((outdir / "manifest.json").read_text())


def test_identities_artifacts(tmp_path):
    p = write_cfg(tmp_path, {"grid": GRID})
    out = tmp_path / "run"
    res = invoke(
        ["identities", "--config", str(p), "--output-dir", str(out)]
    )
    assert res.exit_code == 0, res.output
    lines = (out / "identities.csv").read_text().splitlines()
    assert lines[0] == "identity,residual"
    assert len(lines) == 16          # header plus one row per identity
    man = read_manifest(out)
    assert man["subcommand"] == "identities"
    assert man["config_sha256"] == hashlib.sha256(p.read_bytes()).hexdigest()
    assert man["files"] == [{"name": "identities.csv", "rows": 15}]


def test_simulate_artifacts(tmp_path):
    p = write_cfg(
        tmp_path,
        {
            "grid": {"M": 5, "N": 8, "T": 1.0},
            "data": {"y0": {"sine": {"mode": 1, "amplitude": 1.0}}},
            "coefficients": {"d": {"constant": 0.5}},
            "mc": {"paths": 2, "master_seed": 1},
        },
    )
    out = tmp_path / "run"
    res = invoke(["simulate", "--config", str(p), "--output-dir", str(out)])
    assert res.exit_code == 0, res.output
    man = read_manifest(out)
    rows = {e["name"]: e["rows"] for e in man["files"]}
    assert rows["trajectory.csv"] == 7 * 10   # full closure of path 0
    assert rows["flux.csv"] == 8
    assert rows["terminal.csv"] == 7
    names = [e["name"] for e in man["files"]]
    assert names == sorted(names)


def test_stability_and_martingale_artifacts(tmp_path):
    base = {
        "grid": {"M": 5, "N": 8, "T": 1.0},
        "data": {"y0": {"sine": {"mode": 1, "amplitude": 1.0}}},
        "coefficients": {"d": {"constant": 0.5}},
        "mc": {"paths": 120, "master_seed": 2},
    }
    p = write_cfg(tmp_path, base)
    out1 = tmp_path / "stab"
    res = invoke(["stability", "--config", str(p), "--output-dir", str(out1)])
    assert res.exit_code == 0, res.output
    obj = json.loads((out1 / "stability.json").read_text())
    assert set(obj["lhs"]) == {"G", "Y0", "Y1"}
    assert set(obj["rhs"]) == {"FLUX", "XT", "DTDX"}
    assert obj["ratio_unsquared_defined"] is True

    out2 = tmp_path / "mart"
    res = invoke(["martingale", "--config", str(p), "--output-dir", str(out2)])
    assert res.exit_code == 0, res.output
    obj = json.loads((out2 / "martingale.json").read_text())
    assert obj["paths"] == 120 and obj["pass"] is True
    assert abs(obj["mean"]) <= obj["bound_4se"]


def test_weights_order_artifacts(tmp_path):
    p = write_cfg(
        tmp_path,
        {
            "grid": {"M": 15, "N": 8, "T": 0.5},
            "weight": {
                "s": 1.0, "lambda": 1.0, "beta": 0.10,
                "xstar": 1.05, "mconst": 0.3,
            },
        },
    )
    out = tmp_path / "run"
    res = invoke(
        ["weights-order", "--config", str(p), "--output-dir", str(out)]
    )
    assert res.exit_code == 0, res.output
    lines = (out / "weights_order.csv").read_text().splitlines()
    assert len(lines) == 5           # header plus 4 expressions
    for line in lines[1:]:
        order = float(line.split(",")[1])
        assert order > 1.5


def test_byte_identical_reruns(tmp_path):
    p = write_cfg(
        tmp_path,
        {
            "grid": {"M": 5, "N": 8, "T": 1.0},
            "data": {"g": {"random": {"seed": 4, "amplitude": 1.0}}},
            "coefficients": {"d": {"constant": 0.5}},
            "mc": {"paths": 3, "master_seed": 11},
        },
    )
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        res = invoke(["simulate", "--config", str(p), "--output-dir", str(out)])
        assert res.exit_code == 0
        outs.append(out)
    files = sorted(f.name for f in outs[0].iterdir())
    assert files == sorted(f.name for f in outs[1].iterdir())
    for name in files:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_flag_overrides(tmp_path):
    base = {
        "grid": {"M": 4, "N": 6, "T": 1.0},
        "data": {"y0": {"random": {"seed": 1, "amplitude": 1.0}}},
        "coefficients": {"d": {"constant": 0.5}},
        "mc": {"paths": 1, "master_seed": 0},
    }
    p1 = write_cfg(tmp_path, base, "a.json")
    seeded = dict(base, mc={"paths": 2, "master_seed": 5})
    p2 = write_cfg(tmp_path, seeded, "b.json")
    o1, o2 = tmp_path / "o1", tmp_path / "o2"
    res = invoke(
        ["simulate", "--config", str(p1), "--output-dir", str(o1),
         "--paths", "2", "--seed", "5"]
    )
    assert res.exit_code == 0
    res = invoke(["simulate", "--config", str(p2), "--output-dir", str(o2)])
    assert res.exit_code == 0
    # overrides reproduce the config that states the same values
    assert (o1 / "trajectory.csv").read_bytes() == (
        o2 / "trajectory.csv"
    ).read_bytes()


# ---------------------------------------------------------------------------
# sweeps


def test_carleman_sweep_artifacts(tmp_path):
    cfg = dict(GOOD_CARLEMAN)
    cfg["sweep"] = {"parameter": "weight.s", "values": [2.0, 4.0]}
    p = write_cfg(tmp_path, cfg)
    out = tmp_path / "run"
    res = invoke(["carleman", "--config", str(p), "--output-dir", str(out)])
    assert res.exit_code == 0, res.output
    man = read_manifest(out)
    names = [e["name"] for e in man["files"]]
    assert names == ["carleman_00.json", "carleman_01.json", "carleman_sweep.csv"]
    sweep = (out / "carleman_sweep.csv").read_text().splitlines()
    assert sweep[0] == "sweep_value,term,value,stderr"
    assert len(sweep) == 1 + 2 * 11  # 11 terms per sweep point
    rep0 = json.loads((out / "carleman_00.json").read_text())
    rep1 = json.loads((out / "carleman_01.json").read_text())
    assert rep0["s"] == 2.0 and rep1["s"] == 4.0
    assert rep0["admissible"] is True


TERM_TABLES = [
    ("carleman", GOOD_CARLEMAN,
     ["L1", "L2", "L3", "L4", "L5", "L6", "L7"], ["R1", "R2", "R3", "R4"]),
    ("stability", {
        "grid": {"M": 4, "N": 6, "T": 1.0},
        "data": {"y0": {"sine": {"mode": 1, "amplitude": 1.0}},
                 "g": {"random": {"seed": 4, "amplitude": 1.0}}},
        "data_b": {"y1": {"sine": {"mode": 2, "amplitude": 0.5}}},
        "coefficients": {"d": {"constant": 0.5}},
        "mc": {"paths": 3, "master_seed": 1},
    },
     ["G", "Y0", "Y1"], ["FLUX", "XT", "DTDX"]),
]


@pytest.mark.parametrize(
    "subcommand,raw,lhs,rhs", TERM_TABLES, ids=["carleman", "stability"]
)
def test_term_tables_are_the_reports_terms(tmp_path, subcommand, raw, lhs,
                                           rhs):
    out = tmp_path / "run"
    res = invoke([subcommand, "--config", str(write_cfg(tmp_path, raw)),
                  "--output-dir", str(out)])
    assert res.exit_code == 0, res.output
    obj = json.loads((out / f"{subcommand}.json").read_text())
    lines = (out / f"{subcommand}_terms.csv").read_text().splitlines()
    assert lines[0] == "term,value,stderr"
    rows = [line.split(",") for line in lines[1:]]
    # the JSON's lhs terms, then its rhs terms, in the report's order
    assert (set(obj["lhs"]), set(obj["rhs"])) == (set(lhs), set(rhs))
    assert [row[0] for row in rows] == lhs + rhs
    for term, value, stderr in rows:
        st = obj["lhs" if term in lhs else "rhs"][term]
        assert (value, stderr) == (repr(st["mean"]), repr(st["stderr"]))


def test_carleman_sweep_leaves_config_unchanged(tmp_path):
    raw = dict(GOOD_CARLEMAN)
    raw["sweep"] = {"parameter": "weight.s", "values": [2.0, 4.0]}
    cfg = parse_config(write_cfg(tmp_path, raw))
    weight = dataclasses.replace(cfg.weight)
    cfg.output_dir = str(tmp_path / "run")
    assert cli_mod.run("carleman", cfg) == 0
    assert cfg.weight == weight and cfg.weight.s == 2.0


@pytest.mark.parametrize(
    "parameter,values",
    [("weight.s", [2.0, 4.0, 8.0]), ("weight.kappa", [0.0, 0.5])],
)
def test_carleman_sweep_points_equal_single_runs(tmp_path, parameter, values):
    key = parameter.split(".", 1)[1]
    raw = dict(GOOD_CARLEMAN)
    raw["sweep"] = {"parameter": parameter, "values": values}
    sweep = tmp_path / "sweep"
    res = invoke(
        ["carleman", "--config", str(write_cfg(tmp_path, raw)),
         "--output-dir", str(sweep)]
    )
    assert res.exit_code == 0, res.output
    for i, value in enumerate(values):
        single = dict(GOOD_CARLEMAN)
        single["weight"] = dict(GOOD_CARLEMAN["weight"], **{key: value})
        out = tmp_path / f"single{i}"
        p = write_cfg(tmp_path, single, name=f"single{i}.json")
        res = invoke(["carleman", "--config", str(p), "--output-dir", str(out)])
        assert res.exit_code == 0, res.output
        assert (sweep / f"carleman_{i:02d}.json").read_bytes() == (
            out / "carleman.json"
        ).read_bytes()


def test_sweep_rejected_for_other_subcommands(tmp_path):
    cfg = {
        "grid": GRID,
        "sweep": {"parameter": "weight.s", "values": [1.0]},
    }
    p = write_cfg(tmp_path, cfg)
    res = invoke(["simulate", "--config", str(p), "--output-dir",
                  str(tmp_path / "x")])
    assert res.exit_code == 3
    assert "/sweep" in res.stderr


# ---------------------------------------------------------------------------
# exit codes


def test_help_lists_each_exit_code_on_its_own_line():
    res = invoke(["--help"])
    assert res.exit_code == 0
    starts = [line.split()[0] for line in res.output.splitlines()
              if line.strip()]
    for code in ("0", "2", "3", "4", "5", "6"):
        assert starts.count(code) == 1, (code, res.output)


def test_exit_usage_missing_config():
    assert invoke(["simulate"]).exit_code == 2


def test_exit_usage_unknown_subcommand():
    assert invoke(["frobnicate", "--config", "x"]).exit_code == 2


@pytest.mark.parametrize(
    "args, code, message",
    [
        # an integer out of range is refused as its config key is
        (["identities", "--config", "CFG", "--paths", "0"], 3,
         "config error: /mc/paths: must be >= 1, got 0"),
        (["identities", "--config", "CFG", "--paths", "-3"], 3,
         "config error: /mc/paths: must be >= 1, got -3"),
        (["identities", "--config", "CFG", "--seed", "-1"], 3,
         "config error: /mc/master_seed: must be >= 0, got -1"),
        # usage errors: a value that is not an integer, no --config, no
        # such subcommand, and a prefix of a flag
        (["identities", "--config", "CFG", "--paths", "x"], 2,
         "argument --paths: invalid int value: 'x'"),
        (["identities", "--config", "CFG", "--seed", "1.5"], 2,
         "argument --seed: invalid int value: '1.5'"),
        (["identities", "--paths", "2"], 2, "required: --config"),
        (["frobnicate", "--config", "CFG"], 2, "invalid choice: 'frobnicate'"),
        (["identities", "--config", "CFG", "--path", "2"], 2,
         "unrecognized arguments: --path 2"),
        (["identities", "--conf", "CFG"], 2, "required: --config"),
    ],
    ids=["paths-0", "paths-negative", "seed-negative", "paths-x",
         "seed-float", "no-config", "unknown-subcommand", "flag-prefix",
         "config-prefix"],
)
def test_flag_values_exit_as_their_config_keys(tmp_path, args, code,
                                               message):
    # "CFG" stands for a valid config
    cfg = str(write_cfg(tmp_path, {"grid": GRID}))
    out = tmp_path / "o"
    res = invoke([cfg if a == "CFG" else a for a in args]
                 + ["--output-dir", str(out)])
    assert res.exit_code == code, res.output
    assert res.stdout == ""
    if code == 3:
        assert res.stderr == message + "\n"
    else:
        assert res.stderr.startswith("usage: stochwave")
        assert message in res.stderr
    assert not out.exists()


@pytest.mark.parametrize("form", ["config", "flag"])
def test_empty_output_dir_is_refused_before_writing(tmp_path, monkeypatch,
                                                    form):
    """An empty output_dir, as the config key or as --output-dir, exits
    3 and writes nothing, also not into the working directory."""
    raw, flags = {"grid": GRID}, []
    if form == "config":
        raw["output_dir"] = ""
    else:
        flags = ["--output-dir", ""]
    cfg = str(write_cfg(tmp_path, raw))
    monkeypatch.chdir(tmp_path)
    res = invoke(["identities", "--config", cfg, *flags])
    assert res.exit_code == 3, res.output
    assert res.stdout == ""
    assert res.stderr == "config error: /output_dir: must not be empty\n"
    assert [f.name for f in tmp_path.iterdir()] == ["cfg.json"]


def test_exit_config_unreadable(tmp_path):
    res = invoke(
        ["identities", "--config", str(tmp_path / "absent.json"),
         "--output-dir", str(tmp_path / "o")]
    )
    assert res.exit_code == 3
    assert "config error" in res.stderr


def test_exit_numeric_blowup(tmp_path):
    p = write_cfg(
        tmp_path,
        {
            "grid": {"M": 63, "N": 512, "T": 128.0},
            "data": {"y0": {"sine": {"mode": 1, "amplitude": 1.0}}},
        },
    )
    res = invoke(
        ["simulate", "--config", str(p), "--output-dir", str(tmp_path / "o")]
    )
    assert res.exit_code == 4
    assert "numeric failure" in res.stderr


def test_exit_admissibility_hard_fail(tmp_path):
    # final time far below the observability threshold
    p = write_cfg(
        tmp_path,
        {
            "grid": GRID,
            "weight": dict(WEIGHT),
            "data": {"y0": {"sine": {"mode": 1, "amplitude": 1.0}}},
        },
    )
    out = tmp_path / "o"
    res = invoke(["carleman", "--config", str(p), "--output-dir", str(out)])
    assert res.exit_code == 5
    # diagnostics are still written for inspection
    obj = json.loads((out / "carleman.json").read_text())
    assert obj["admissible"] is False
    assert obj["admissibility"]["t_condition"] is False


def test_exit_statistical_identity_gate(tmp_path, monkeypatch):
    monkeypatch.setattr(cli_mod, "IDENTITY_GATE", -1.0)
    p = write_cfg(tmp_path, {"grid": GRID})
    code = cli_mod._execute(
        "identities", str(p), str(tmp_path / "o"), None, None
    )
    assert code == 6


SEED_B = {
    "grid": {"M": 4, "N": 6, "T": 1.0},
    "data": {"y0": {"sine": {"mode": 1, "amplitude": 1.0}}},
    "coefficients": {"d": {"constant": 0.5}},
    "mc": {"paths": 2, "master_seed": 1},
}


def test_master_seed_b_refused_at_parse_time(tmp_path, monkeypatch):
    # the stability pair shares mc.master_seed: a second seed is an
    # unknown key, also where it repeats master_seed or --seed is given
    raw = dict(SEED_B, mc={"paths": 2, "master_seed": 1, "master_seed_b": 1})
    p = write_cfg(tmp_path, raw)
    with pytest.raises(ConfigError) as exc:
        parse_config(p)
    assert exc.value.pointer == "/mc/master_seed_b"
    stepped = []
    monkeypatch.setattr(cli_mod, "stream_windows",
                        lambda *a, **k: stepped.append(a))
    for flags in ([], ["--seed", "1"]):
        res = invoke(["stability", "--config", str(p), *flags,
                      "--output-dir", str(tmp_path / "o")])
        assert res.exit_code == 3
        assert res.stderr == "config error: /mc/master_seed_b: unknown key\n"
    assert stepped == []
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "subcommand", ["simulate", "carleman", "stability", "martingale"]
)
def test_each_coefficient_is_checked_once_per_run(tmp_path, monkeypatch,
                                                  subcommand):
    # a constant and a preset coefficient, each scanned for non-finite
    # values by the one SchemeCoefficients a run builds
    base = GOOD_CARLEMAN if subcommand == "carleman" else SEED_B
    raw = dict(base, coefficients=dict(base["coefficients"],
                                       b={"preset": "ramp_x"}),
               mc={"paths": 100, "master_seed": 1})
    check = SchemeCoefficients.__post_init__
    checked = []

    def spy(self):
        checked.extend("abcd")
        check(self)

    monkeypatch.setattr(SchemeCoefficients, "__post_init__", spy)
    res = invoke([subcommand, "--config", str(write_cfg(tmp_path, raw)),
                  "--output-dir", str(tmp_path / "o")])
    assert res.exit_code == 0, res.output
    assert sorted(checked) == ["a", "b", "c", "d"]


def test_stability_shared_forcing_cancels(tmp_path):
    # each leg alone overflows through the forcing both share, so a
    # two-leg run exits 4; in the difference system it cancels exactly
    raw = {
        "grid": {"M": 7, "N": 32, "T": 1.0},
        "coefficients": {"a": {"constant": 400.0}, "d": {"constant": 0.5}},
        "data": {"y0": {"sine": {"mode": 1, "amplitude": 1.0}},
                 "f": {"random": {"seed": 3, "amplitude": 1e306}}},
        "mc": {"paths": 3, "master_seed": 1},
    }
    unforced = dict(raw, data={"y0": raw["data"]["y0"]})
    outs = []
    for name, cfg in (("forced", raw), ("unforced", unforced)):
        out = tmp_path / name
        res = invoke(["stability", "--config",
                      str(write_cfg(tmp_path, cfg, f"{name}.json")),
                      "--output-dir", str(out)])
        assert res.exit_code == 0, res.output
        outs.append((out / "stability.json").read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("data", [
    {"y0": {"sine": {"mode": 1, "amplitude": 1.0}},
     "y1": {"random": {"seed": 2, "amplitude": 0.5}},
     "g": {"random": {"seed": 3, "amplitude": 0.8}},
     "f": {"random": {"seed": 4, "amplitude": 0.3}}},
    # -0.0 amplitudes: y0 and g mix -0.0 and +0.0, y1 is a zero field
    {"y0": {"sine": {"mode": 3, "amplitude": -0.0}},
     "g": {"random": {"seed": 3, "amplitude": -0.0}}},
])
def test_default_difference_system_is_data_minus_zero_problem(tmp_path, data):
    cfg = parse_config(write_cfg(tmp_path, {"grid": GRID, "data": data}))
    grid = cfg.grid
    diff, _ = cli_mod._difference_system(cfg, grid)
    data_a = cli_mod._make_problem(cfg.data, cfg, grid)
    zero = ProblemData(
        y0=zero_field(grid, "closure", None),
        y1=zero_field(grid, "closure", None),
        g=zero_field(grid, "primal", "primal"), f=data_a.f,
    )
    want = data_a.difference(zero)
    for f in (diff.f, want.f):   # one-value zero fields
        assert f.values.strides == (0, 0)
        assert f.values.tobytes() == bytes(f.values.nbytes)
    for name in ("y0", "y1", "g"):
        got, ref = getattr(diff, name), getattr(want, name)
        assert (got.space_tag, got.time_tag) == (ref.space_tag, ref.time_tag)
        assert got.values.tobytes() == ref.values.tobytes()
    if "f" not in data:
        assert np.signbit(diff.g.values).any()
        assert np.signbit(diff.y0.values[1:-1]).any()


FORCED = {"g": {"random": {"seed": 3, "amplitude": 0.8}},
          "f": {"random": {"seed": 4, "amplitude": 0.3}}}
FORCED_B = {"g": {"sine": {"mode": 2, "amplitude": 0.4}},
            "f": {"random": {"seed": 5, "amplitude": 0.1}}}


@pytest.mark.parametrize("data_b, built", [
    # the default comparison problem cancels f: it is built as zero
    (None, ["zero", "g"]),
    (FORCED_B, ["f", "g", "f_b", "g_b"]),
])
def test_stability_builds_no_cancelled_forcing(tmp_path, monkeypatch,
                                                data_b, built):
    raw = {"grid": GRID, "data": FORCED, "mc": {"paths": 3},
           "output_dir": str(tmp_path / "out")}
    if data_b is not None:
        raw["data_b"] = data_b
    cfg = parse_config(write_cfg(tmp_path, raw))
    specs = {name: cfg.data[name] for name in ("f", "g")}
    specs["zero"] = ("zero",)
    if data_b is not None:
        specs.update({f"{name}_b": cfg.data_b[name] for name in ("f", "g")})
    make = cli_mod._make_interior_field
    seen = []

    def spy(spec, grid, space_only):
        seen.append((spec, make(spec, grid, space_only)))
        return seen[-1][1]

    monkeypatch.setattr(cli_mod, "_make_interior_field", spy)
    assert cli_mod.run("stability", cfg) == cli_mod.EXIT_OK
    assert [spec for spec, _ in seen] == [specs[name] for name in built]
    # a cancelled f owns no (M, N) array
    assert all(field.values.strides == (0, 0)
               for spec, field in seen if spec == ("zero",))


SINE_MODE = {"y0": {"sine": {"mode": 10**400, "amplitude": 1.0}}}
RANDOM_SEED = {"y1": {"random": {"seed": 2**64, "amplitude": 1.0}}}


@pytest.mark.parametrize(
    "subcommand, raw, pointer",
    [
        ("identities", {"grid": dict(GRID, M=10**400)}, "/grid/M"),
        ("simulate", {"grid": dict(GRID, N=10**400)}, "/grid/N"),
        ("identities", {"grid": GRID, "mc": {"paths": 2**63}}, "/mc/paths"),
        ("simulate", {"grid": GRID, "data": SINE_MODE},
         "/data/y0/sine/mode"),
        ("stability", {"grid": GRID, "data_b": RANDOM_SEED},
         "/data_b/y1/random/seed"),
        # accepted: its two field seeds are reduced to 64 bits
        ("identities", {"grid": GRID, "mc": {"master_seed": 2**64 - 1}},
         None),
        # integers past the float range in number fields
        ("simulate", {"grid": dict(GRID, T=10**400)}, "/grid/T"),
        ("carleman", {"grid": GRID, "weight": dict(WEIGHT, s=10**400)},
         "/weight/s"),
        ("carleman", {"grid": GRID, "weight": WEIGHT,
                      "sweep": {"parameter": "weight.s",
                                "values": [10**400]}},
         "/sweep/values/0"),
        ("simulate", {"grid": GRID,
                      "coefficients": {"a": {"constant": -10**400}}},
         "/coefficients/a/constant"),
    ],
)
def test_out_of_range_integers(tmp_path, subcommand, raw, pointer):
    res = invoke([subcommand, "--config", str(write_cfg(tmp_path, raw)),
                  "--output-dir", str(tmp_path / "o")])
    if pointer is None:
        assert res.exit_code == 0, res.output
    else:
        assert res.exit_code == 3, res.output
        assert f"config error: {pointer}: must be <= " in res.stderr


def test_paths_flag_has_the_config_bound(tmp_path):
    res = invoke(["identities", "--config",
                  str(write_cfg(tmp_path, {"grid": GRID})),
                  "--paths", str(2**63), "--output-dir", str(tmp_path / "o")])
    assert res.exit_code == 3, res.output
    assert "config error: /mc/paths: must be <= " in res.stderr


def test_underflowing_dt_is_refused(tmp_path):
    # T / N is 0.0: terminal_v = (y^{N+1} - y^N) / dt was written as nan
    raw = {"grid": {"M": 3, "N": 4, "T": 5e-324}}
    res = invoke(["simulate", "--config", str(write_cfg(tmp_path, raw)),
                  "--output-dir", str(tmp_path / "o")])
    assert res.exit_code == 3, res.output
    assert "dt = T/N underflows to zero" in res.stderr


def test_overflowing_estimator_terms_are_exit_4(tmp_path):
    # the squares of 1e300 data overflow: the run exited 0 after NumPy
    # overflow warnings, printed "ratio nan" and wrote inf to the CSV
    raw = {"grid": {"M": 3, "N": 4, "T": 1.0},
           "data": {"y0": {"sine": {"mode": 1, "amplitude": 1e300}}}}
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = invoke(["stability", "--config", str(write_cfg(tmp_path, raw)),
                      "--output-dir", str(out)])
    assert res.exit_code == 4, res.output
    assert "numeric failure: lhs term Y0 is not finite: mean inf" in res.stderr
    assert not (out / "stability_terms.csv").exists()


@pytest.mark.parametrize(
    "key,pointer",
    [("epsilon", "/admissibility/dt_value"),
     ("beta", "/admissibility/t_margin")],
)
def test_non_finite_json_value_is_exit_4(tmp_path, key, pointer):
    # dt_value was written as Infinity (exit 0) and t_margin as
    # -Infinity (exit 5): neither is standard JSON
    raw = dict(GOOD_CARLEMAN, weight={**GOOD_CARLEMAN["weight"], key: 5e-324})
    out = tmp_path / "o"
    res = invoke(["carleman", "--config", str(write_cfg(tmp_path, raw)),
                  "--output-dir", str(out)])
    assert res.exit_code == 4, res.output
    assert f"numeric failure: carleman.json: {pointer} is " in res.stderr
    assert not (out / "carleman.json").exists()


def test_json_writer_names_the_non_finite_key(tmp_path):
    writer = ArtifactWriter(str(tmp_path / "w"), "0" * 64, "test")
    with pytest.raises(FloatingPointError, match=r"x\.json: /a/1 is nan"):
        writer.json("x.json", {"a": [1.0, float("nan")], "b": 2.0})
    writer.json("y.json", {"a": [1.0, 1e308]})
    assert json.loads((tmp_path / "w" / "y.json").read_text()) == {
        "a": [1.0, 1e308]
    }


@pytest.mark.parametrize("blocked", ["output_dir", "artifact"])
def test_unwritable_output_is_exit_3(tmp_path, blocked):
    if blocked == "output_dir":
        # a regular file where a parent directory should be
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "o"
        where = out
    else:
        # a directory where the artifact file should be
        out = tmp_path / "o"
        where = out / "identities.csv"
        where.mkdir(parents=True)
    res = invoke(["identities", "--config",
                  str(write_cfg(tmp_path, {"grid": GRID})),
                  "--output-dir", str(out)])
    assert res.exit_code == 3, res.output
    assert f"cannot write output: {where}: " in res.stderr


@pytest.mark.parametrize(
    "subcommand", ["simulate", "carleman", "stability", "martingale"]
)
def test_cfl_warning_once_per_subcommand(tmp_path, subcommand):
    raw = {
        "grid": {"M": 15, "N": 4, "T": 1.0},   # dt = 0.25 > dx = 1/16
        "weight": dict(WEIGHT),
        "data": {"y0": {"sine": {"mode": 1, "amplitude": 0.01}}},
        "mc": {"paths": 120, "master_seed": 1},
    }
    res = invoke(
        [subcommand, "--config", str(write_cfg(tmp_path, raw)),
         "--output-dir", str(tmp_path / "o")]
    )
    assert res.exit_code in (0, 5, 6), res.output   # no crash
    warning = f"{subcommand}: warning, dt > dx (explicit scheme unstable)"
    assert res.stderr.count(warning) == 1
    # a stable grid gives no warning
    raw["grid"] = {"M": 3, "N": 8, "T": 1.0}
    res = invoke(
        [subcommand, "--config", str(write_cfg(tmp_path, raw)),
         "--output-dir", str(tmp_path / "o2")]
    )
    assert "warning, dt > dx" not in res.stderr


def test_cfl_warning_precedes_blow_up(tmp_path):
    # dt = 0.25 > dx = 1/64: the run blows up, and the warning that
    # explains it must be printed before stepping
    raw = {
        "grid": {"M": 63, "N": 512, "T": 128.0},
        "data": {"y0": {"sine": {"mode": 1, "amplitude": 1.0}}},
    }
    res = invoke(
        ["simulate", "--config", str(write_cfg(tmp_path, raw)),
         "--output-dir", str(tmp_path / "o")]
    )
    assert res.exit_code == 4
    warning = "simulate: warning, dt > dx (explicit scheme unstable)"
    failure = (
        "numeric failure: non-finite value at space index j=1, "
        "time level n=110, path 0"
    )
    assert res.stderr.count(warning) == 1
    assert failure in res.stderr
    assert res.stderr.index(warning) < res.stderr.index(failure)


def test_cfl_warning_on_stderr(tmp_path):
    p = write_cfg(
        tmp_path,
        {
            "grid": {"M": 15, "N": 4, "T": 1.0},   # dt = 0.25 > dx = 1/16
            "data": {"y0": {"sine": {"mode": 1, "amplitude": 0.01}}},
        },
    )
    res = invoke(
        ["simulate", "--config", str(p), "--output-dir", str(tmp_path / "o")]
    )
    assert "warning" in res.stderr


# ---------------------------------------------------------------------------
# artifact writer against the per-row formatter it replaced


def ref_cell(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def ref_csv(header, rows) -> bytes:
    lines = [",".join(header)]
    lines += [",".join(ref_cell(v) for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode("utf-8")


# the switch points of float repr: signed zero, subnormals, the fixed /
# exponent boundaries at 1e-5 and 1e16, a non-shortest sum, non-finite
EDGE_FLOATS = np.array(
    [-0.0, 5e-324, 1e-5, 1.5e-4, 1e16, 9999999999999998.0, 0.1 + 0.2,
     np.nan, np.inf, -np.inf, 2.0 ** 70, -1.25]
)


def write_table(tmp_path, header, columns):
    writer = ArtifactWriter(str(tmp_path / "w"), "0" * 64, "test")
    writer.csv("t.csv", header, columns)
    return (tmp_path / "w" / "t.csv").read_bytes(), writer.entries


def test_writer_matches_row_formatter(tmp_path):
    n = len(EDGE_FLOATS)
    ints = np.arange(n, dtype=np.int64) * -(2 ** 40)
    seeds = np.arange(n, dtype=np.uint64) + np.uint64(2 ** 63)
    singles = EDGE_FLOATS.astype(np.float32)
    mixed = ["", True, False, "L1", 3, 2.5, np.float64(1e-7), np.int64(-7),
             1e22, "a b", 0, -0.0]
    header = ("f", "i", "u", "f32", "mixed")
    text, entries = write_table(
        tmp_path, header, (EDGE_FLOATS, ints, seeds, singles, mixed)
    )
    rows = list(zip(EDGE_FLOATS, ints, seeds, singles, mixed))
    assert text == ref_csv(header, rows)
    assert entries == [{"name": "t.csv", "rows": n}]


def test_writer_broadcast_rows(tmp_path):
    J, K = 3, 5
    x = EDGE_FLOATS[:J]
    t = EDGE_FLOATS[J:J + K]
    vals = np.arange(J * K, dtype=np.float64).reshape(J, K) / 7.0
    header = ("j", "x", "n", "t", "y")
    text, entries = write_table(
        tmp_path, header,
        (np.arange(J)[:, None], x[:, None], np.arange(K), t, vals),
    )
    rows = [(j, x[j], n, t[n], vals[j, n]) for j in range(J) for n in range(K)]
    assert text == ref_csv(header, rows)
    assert entries[0]["rows"] == J * K


def test_writer_bool_columns_write_true_and_false(tmp_path):
    # a NumPy bool column writes its cells as bool cells of a sequence
    # do, and as JSON writes a bool
    flags = np.array([True, False])
    text, entries = write_table(tmp_path, ("b", "c"), (flags, [True, False]))
    assert text == b"b,c\ntrue,true\nfalse,false\n"
    assert entries[0]["rows"] == 2
    # and so does a broadcast one
    text, _ = write_table(tmp_path, ("i", "b"), (flags[:, None], flags))
    assert text == (b"i,b\ntrue,true\ntrue,false\n"
                    b"false,true\nfalse,false\n")


def test_writer_empty_table(tmp_path):
    text, entries = write_table(tmp_path, ("a", "b"), ((), ()))
    assert text == b"a,b\n"
    assert entries[0]["rows"] == 0


@pytest.mark.parametrize("per_write", [1, 4, 7])
def test_writer_tables_span_several_write_blocks(tmp_path, monkeypatch,
                                                 per_write):
    # 12 rows in blocks of 1, 4 and 7: block edges inside and at the end
    monkeypatch.setattr(cli_mod, "_ROWS_PER_WRITE", per_write)
    n = len(EDGE_FLOATS)
    ints = np.arange(n, dtype=np.int64) - 5
    mixed = ["", True, False, "L1", 3, 2.5, np.float64(1e-7), np.int64(-7),
             1e22, "a b", 0, -0.0]
    header = ("f", "i", "mixed", "tuple")
    tup = tuple(EDGE_FLOATS[::-1].tolist())
    text, entries = write_table(
        tmp_path, header, (EDGE_FLOATS, ints, mixed, tup)
    )
    rows = list(zip(EDGE_FLOATS, ints, mixed, tup))
    assert text == ref_csv(header, rows)
    assert entries == [{"name": "t.csv", "rows": n}]


def test_writer_full_size_blocks(tmp_path):
    # the writer's own block size: two full blocks and a partial third
    n = 2 * cli_mod._ROWS_PER_WRITE + 3
    vals = np.sin(np.arange(n, dtype=np.float64)) * 1e-3
    vals[::1000] = EDGE_FLOATS[np.arange(0, n, 1000) % len(EDGE_FLOATS)]
    text, entries = write_table(
        tmp_path, ("k", "v"), (np.arange(n), vals)
    )
    assert text == ref_csv(("k", "v"), list(zip(range(n), vals)))
    assert entries[0]["rows"] == n


@pytest.mark.parametrize("per_write", [4, None])
def test_writer_broadcast_rows_longer_than_a_block(tmp_path, monkeypatch,
                                                   per_write):
    # a (J, 1) column beside (K,) columns with K larger than one block
    if per_write is not None:
        monkeypatch.setattr(cli_mod, "_ROWS_PER_WRITE", per_write)
    J, K = 2, 2 * cli_mod._ROWS_PER_WRITE + 5
    x = EDGE_FLOATS[:J]
    t = np.arange(K) / 7.0
    vals = np.arange(J * K, dtype=np.float64).reshape(K, J).T / 3.0
    header = ("j", "x", "n", "t", "y")
    text, entries = write_table(
        tmp_path, header,
        (np.arange(J)[:, None], x[:, None], np.arange(K), t, vals),
    )
    rows = [(j, x[j], n, t[n], vals[j, n]) for j in range(J) for n in range(K)]
    assert text == ref_csv(header, rows)
    assert entries[0]["rows"] == J * K


@pytest.mark.parametrize(
    "columns",
    [(np.empty(0), np.empty(0, dtype=np.int64)),
     (np.arange(0)[:, None], np.arange(3)),
     ([], np.empty(0))],
)
def test_writer_zero_row_tables(tmp_path, columns):
    text, entries = write_table(tmp_path, ("a", "b"), columns)
    assert text == b"a,b\n"
    assert entries[0]["rows"] == 0


def test_writer_one_row_tables(tmp_path):
    for k, columns in enumerate([
        (np.array([0.1 + 0.2]), np.array([-3]), ["x"]),
        (np.array([[2.5]]), np.array([7]), (True,)),
    ]):
        writer = ArtifactWriter(str(tmp_path / "w"), "0" * 64, "test")
        writer.csv(f"t{k}.csv", ("a", "b", "c"), columns)
        row = tuple(np.ravel(c)[0] if isinstance(c, np.ndarray) else c[0]
                    for c in columns)
        assert (tmp_path / "w" / f"t{k}.csv").read_bytes() == ref_csv(
            ("a", "b", "c"), [row]
        )
        assert writer.entries == [{"name": f"t{k}.csv", "rows": 1}]


def test_writer_holds_one_block_of_text(tmp_path):
    n = 200_000
    vals = np.random.default_rng(3).standard_normal(n)
    text_bytes = sum(sys.getsizeof(repr(v)) for v in vals.tolist())
    writer = ArtifactWriter(str(tmp_path / "w"), "0" * 64, "test")
    tracemalloc.start()
    try:
        writer.csv("t.csv", ("v",), (vals,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the formatted strings take about 14 MB; one block's about 1.1 MB
    assert peak < text_bytes / 4, (peak, text_bytes)
    assert writer.entries == [{"name": "t.csv", "rows": n}]


# ---------------------------------------------------------------------------
# the compiled row writer against the forced fallback and ref_csv

R = cli_mod._ROWS_PER_WRITE
TEXT = ["é", "→ ∞", "", "日本語", "a b", "ß", "x", "-0.0", "\u00a0", "ok",
        "Ω", "z"]


def ref_rows(columns):
    """The rows of a table given column by column, broadcast as the
    writer broadcasts them, cell by cell."""
    arrays = []
    for c in columns:
        if not isinstance(c, np.ndarray):
            a = np.empty(len(c), dtype=object)
            a[:] = list(c)
            c = a
        arrays.append(c)
    shape = np.broadcast_shapes(*(a.shape for a in arrays))
    return list(zip(*(np.broadcast_to(a, shape).ravel().tolist()
                      for a in arrays)))


def floats(n, seed=7):
    """n doubles: EDGE_FLOATS, then spread values and bit patterns."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-30, 30, n)
    x[: min(n, len(EDGE_FLOATS))] = EDGE_FLOATS[:n]
    spread = x[len(EDGE_FLOATS)::97]
    spread[:] = rng.integers(0, 2**64, len(spread),
                             dtype=np.uint64).view(np.float64)
    return x


def table(n):
    """A table of n rows: floats, int64, uint64 and float32 columns with
    a cell per row, and a column of text."""
    with np.errstate(over="ignore"):
        singles = floats(n, 8).astype(np.float32)
    return (("f", "i", "u", "f32", "text"),
            (floats(n), np.arange(n, dtype=np.int64) * -(2 ** 40) + 3,
             np.arange(n, dtype=np.uint64) + np.uint64(2 ** 64 - n), singles,
             [TEXT[k % len(TEXT)] for k in range(n)]))


def broadcast_table(J, K):
    """The simulate layout: (J, 1) and (K,) axes beside a (J, K) column,
    here an F-ordered one read through its strides."""
    vals = floats(J * K).reshape(K, J).T
    return (("j", "x", "n", "t", "label", "y"),
            (np.arange(J)[:, None], floats(J, 3)[:, None], np.arange(K),
             floats(K, 4), [TEXT[k % len(TEXT)] for k in range(K)], vals))


# the longest repr (24 bytes), and a float whose word stores reach 10
# bytes past its 24 (17 digits, the point after 16)
LONGEST = -2.2250738585072014e-308
REACHING = -1234567890123456.8


def neighbours_table(n):
    """Rows of a float, an empty text cell, a 1-byte cell and a 24-byte
    float, the first float also 24 bytes in every other row."""
    x = floats(n, 5)
    x[::2] = LONGEST
    return (("f", "empty", "one", "g"),
            (x, [""] * n, ["a"] * n, np.full(n, LONGEST)))


def float_last_table(n):
    """A float column last in its row: the newline follows stores that
    reach past the cell."""
    x = floats(n, 6)
    x[::3], x[1::3] = REACHING, LONGEST
    return ("t", "f"), ([TEXT[k % len(TEXT)] for k in range(n)], x)


def longest_last_table(n):
    """Every block's final row, and the table's, ends in its longest
    cell."""
    x = floats(n, 9)
    x[R - 1 :: R] = LONGEST
    x[-1] = LONGEST
    return ("j", "f"), (np.arange(n), x)


ROW_TABLES = {
    "edge-floats": lambda: (("f",), (EDGE_FLOATS,)),
    "broadcast": lambda: broadcast_table(5, 7),
    "broadcast-longer-than-a-block": lambda: broadcast_table(3, R + 9),
    "full-size-numeric": lambda: table(len(EDGE_FLOATS)),
    "non-ascii-sequences": lambda: (("a", "b", "c"), (
        TEXT, tuple(EDGE_FLOATS.tolist()), [True, 3, "ü", 2.5, None, -1,
                                            np.float64(1e-7), "", "∑", 0,
                                            np.int64(-7), "€"])),
    "zero-rows": lambda: (("a", "b", "c"), (np.empty(0), [],
                                            np.empty((0, 1), np.int64))),
    "R-1-rows": lambda: table(R - 1),
    "R-rows": lambda: table(R),
    "R+1-rows": lambda: table(R + 1),
    "2R+1-rows": lambda: table(2 * R + 1),
    "24-byte-empty-1-byte-24-byte": lambda: neighbours_table(50),
    "float-last-in-row": lambda: float_last_table(50),
    "block-ends-in-longest-cell": lambda: longest_last_table(2 * R + 3),
}


@pytest.mark.parametrize("name", list(ROW_TABLES))
def test_row_writer_paths_write_equal_bytes(tmp_path, monkeypatch, name):
    header, columns = ROW_TABLES[name]()
    if shutil.which("cc") is not None:
        assert _native._choose() is not _native.FALLBACK, _native.reason
    compiled, entries = write_table(tmp_path / "compiled", header, columns)
    with monkeypatch.context() as m:
        m.setattr(_native, "_chosen", _native.FALLBACK)
        fallback, _ = write_table(tmp_path / "fallback", header, columns)
    rows = ref_rows(columns)
    assert compiled == ref_csv(header, rows)
    assert fallback == compiled
    assert entries == [{"name": "t.csv", "rows": len(rows)}]


@pytest.mark.parametrize("path", ["compiled", "fallback"])
def test_writer_memory_does_not_grow_with_the_rows(tmp_path, monkeypatch,
                                                   path):
    # a (J, K) table of the simulate layout, J > one block, whose blocks
    # hold text of the same widths: 8 times the rows add only 8 times
    # the (K,) axes' few cells of text
    if path == "fallback":
        monkeypatch.setattr(_native, "_chosen", _native.FALLBACK)

    def peak(K):
        J = R + 100
        vals = np.sin(np.arange(J * K, dtype=np.float64)).reshape(K, J).T
        columns = (np.arange(J)[:, None], np.linspace(0.0, 1.0, J)[:, None],
                   np.arange(K), np.full(K, 1 / 3), vals)
        writer = ArtifactWriter(str(tmp_path / f"k{K}"), "0" * 64, "test")
        tracemalloc.start()
        try:
            writer.csv("t.csv", ("j", "x", "n", "t", "y"), columns)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(4)  # the library loaded, outside the traced runs
    one, eight = peak(4), peak(32)
    assert eight < one + 32 * 1024, (one, eight)


def test_simulate_csvs_match_row_formatter(tmp_path):
    p = write_cfg(
        tmp_path,
        {
            "grid": {"M": 6, "N": 11, "T": 1.0},
            "data": {"y0": {"random": {"seed": 2, "amplitude": 1.0}},
                     "g": {"random": {"seed": 3, "amplitude": 0.5}}},
            "coefficients": {"a": {"constant": -0.4}, "d": {"constant": 0.6}},
            "mc": {"paths": 2, "master_seed": 9},
        },
    )
    out = tmp_path / "run"
    res = invoke(["simulate", "--config", str(p), "--output-dir", str(out)])
    assert res.exit_code == 0, res.output
    # rebuild path 0 and its observation, and format it row by row
    cfg = parse_config(p)
    grid = cfg.grid
    data = cli_mod._make_problem(cfg.data, cfg, grid)
    coeffs = cli_mod._make_coeffs(cfg, grid)
    ens = run_ensemble(data, coeffs, grid, 2, 9)
    y, x, t = ens.Y[0].T, grid.space_closure, grid.time_closure
    J, K = y.shape
    rows = [(j, x[j], n, t[n], y[j, n])
            for j in range(J) for n in range(K)]
    assert (out / "trajectory.csv").read_bytes() == ref_csv(
        ("j", "x", "n", "t", "y"), rows
    )
    flux, (ty, tv) = observe(ens, grid)
    rows = [(n + 1, grid.time_primal[n], flux[0, n]) for n in range(grid.N)]
    assert (out / "flux.csv").read_bytes() == ref_csv(("n", "t", "flux"), rows)
    rows = [(j, x[j], ty[0, j], tv[0, j]) for j in range(J)]
    assert (out / "terminal.csv").read_bytes() == ref_csv(
        ("j", "x", "terminal_y", "terminal_v"), rows
    )
