"""Property test of the exit-code contract: configs drawn from the
schema, valid or not, run through every subcommand and end in a
documented exit code, never a traceback.

Mesh sizes are either tiny (1-8) or absurd (>= 2**62), never in
between: a tiny mesh runs in milliseconds, and an absurd one must be
refused before anything of its size is allocated.  Every other number
is mostly plausible, so that most runs get past the parser, and
sometimes any finite double, subnormals included."""

import contextlib
import io
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from stochwave import cli

# the parser refuses non-finite literals, so they are not drawn
ANY_FLOAT = st.floats(allow_nan=False, allow_infinity=False)


def mostly(usual, rare):
    """usual for nine values of a drawn digit, rare for the tenth."""
    return st.integers(0, 9).flatmap(lambda k: rare if k == 0 else usual)


def num(lo, hi):
    return mostly(st.floats(lo, hi, exclude_min=True), ANY_FLOAT)


# rare integers run past every bound, 2**63 - 1 and 2**64 - 1, and
# past the float range
HUGE = 10**400
SIZES = mostly(st.integers(1, 8), st.integers(2**62, HUGE))
SEEDS = mostly(st.integers(0, 2**64 - 1), st.integers(-1, HUGE))


def data_spec():
    return st.one_of(
        st.just("zero"),
        st.fixed_dictionaries({"sine": st.fixed_dictionaries({
            "mode": mostly(st.integers(1, 4), st.integers(-1, HUGE)),
            "amplitude": num(-2.0, 2.0),
        })}),
        st.fixed_dictionaries({"random": st.fixed_dictionaries({
            "seed": SEEDS, "amplitude": num(-2.0, 2.0),
        })}),
    )


def data():
    return st.fixed_dictionaries(
        {}, optional={key: data_spec() for key in ("y0", "y1", "g", "f")}
    )


def coefficient():
    return st.fixed_dictionaries({"constant": num(-2.0, 2.0)}) | (
        st.fixed_dictionaries({"preset": st.sampled_from(
            ["zero", "one", "ramp_x", "ramp_t", "sine_x"]
        )})
    )


WEIGHT = st.fixed_dictionaries(
    {"s": num(0.0, 8.0), "lambda": num(0.0, 2.0), "beta": num(0.0, 1.0),
     "xstar": num(1.0, 2.0), "mconst": num(0.0, 20.0)},
    optional={"epsilon": num(0.0, 1.0), "dt_multiplier": num(0.0, 2.0),
              "kappa": num(0.0, 1.0)},
)


@st.composite
def configs(draw, subcommand):
    raw = {"grid": {"M": draw(SIZES), "N": draw(SIZES),
                    "T": draw(num(0.0, 4.0))}}
    if subcommand in ("weights-order", "carleman"):
        raw["weight"] = draw(WEIGHT)
    if subcommand == "carleman" and draw(st.booleans()):
        raw["sweep"] = {
            "parameter": draw(st.sampled_from(cli._SWEEPABLE)),
            "values": draw(st.lists(num(0.0, 8.0), min_size=1, max_size=3)),
        }
    seed = draw(SEEDS)
    raw["mc"] = {
        "paths": draw(st.integers(1, 3) | st.integers(100, 101)),
        "master_seed": seed,
    }
    if draw(st.booleans()):
        raw["mc"]["master_seed_b"] = draw(mostly(st.just(seed), SEEDS))
    raw["coefficients"] = draw(st.fixed_dictionaries(
        {}, optional={key: coefficient() for key in "abcd"}
    ))
    raw["data"] = draw(data())
    if draw(st.booleans()):
        raw["data_b"] = draw(data())
    raw["g_mode"] = draw(st.sampled_from(["space_time", "space_only"]))
    return raw


@st.composite
def runs(draw):
    subcommand = draw(st.sampled_from(sorted(cli._SUBCOMMANDS)))
    return subcommand, draw(configs(subcommand))


# derandomized: the same examples on every run, so the gate is not flaky
@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(run=runs())
def test_every_config_ends_in_a_documented_exit(tmp_path, run):
    subcommand, raw = run
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = cli._execute(subcommand, str(path), str(tmp_path / "out"),
                            None, None)
    assert code in (0, 3, 4, 5, 6), (code, err.getvalue())
    assert "Traceback" not in err.getvalue()
