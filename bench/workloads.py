"""The four fixed CLI experiments of the benchmark and the function that writes their configs.

Each workload is one stochwave subcommand on one strict-JSON config.  The
workload seed drives mc.master_seed and every data seed; at DEFAULT_SEED
the configs are the acceptance-criterion and kernel-benchmark sizes that
the reference values in reference.json were taken from.  `tiny=True`
shrinks the meshes and path counts for the harness self-test.
"""

from __future__ import annotations

import copy

DEFAULT_SEED = 0

# Data seeds move by this stride per workload seed, master seeds by 1, so
# no two workload seeds share a data field or a Brownian path family.
_DATA_STRIDE = 1000


def _random(seed, amplitude, workload_seed):
    return {"random": {"seed": seed + _DATA_STRIDE * workload_seed,
                       "amplitude": amplitude}}


def _fine(workload_seed, paths):
    # benchmarks/kernel_benchmark.py defaults: kernel-bound, long rows
    return {
        "grid": {"M": 127, "N": 2048, "T": 1.0},
        "coefficients": {
            "a": {"constant": -0.4}, "b": {"constant": 0.2},
            "c": {"constant": 0.3}, "d": {"constant": 0.6},
        },
        "data": {
            "y0": _random(1, 1.0, workload_seed),
            "y1": _random(2, 0.5, workload_seed),
            "g": _random(3, 0.8, workload_seed),
            "f": _random(4, 0.3, workload_seed),
        },
        "mc": {"paths": paths, "master_seed": 1234 + workload_seed},
    }


def _mc_wide(s):
    # acceptance criterion 4 size
    return {
        "grid": {"M": 15, "N": 225, "T": 1.0},
        "coefficients": {"a": {"constant": -0.5}, "d": {"constant": 0.5}},
        "data": {
            "y0": {"sine": {"mode": 1, "amplitude": 1.0}},
            "g": _random(21, 0.5, s),
        },
        "mc": {"paths": 10_000, "master_seed": 42 + s},
    }


def _carleman_sweep(s):
    # acceptance criterion 7 size; admissible weight for every swept s
    return {
        "grid": {"M": 15, "N": 1792, "T": 3.5},
        "weight": {
            "s": 2.0, "lambda": 0.05, "beta": 0.5, "xstar": 1.5,
            "mconst": 10.0, "epsilon": 0.5,
        },
        "coefficients": {"a": {"constant": -0.5}, "d": {"constant": 0.5}},
        "data": {
            "y0": {"sine": {"mode": 1, "amplitude": 1.0}},
            "y1": {"sine": {"mode": 2, "amplitude": 0.3}},
            "g": _random(21, 0.5, s),
            "f": _random(22, 2.0, s),
        },
        "mc": {"paths": 200, "master_seed": 321 + s},
        "sweep": {"parameter": "weight.s", "values": [2.0, 4.0, 8.0]},
    }


# name -> (subcommand, legs, config function, tiny overrides, why)
WORKLOADS = {
    "mc-wide": (
        "martingale", 1, _mc_wide,
        {"grid": {"M": 3, "N": 16}, "mc": {"paths": 100}},
        "many cheap paths: per-path seeding, sampling, object wrapping and "
        "ensemble memory dominate",
    ),
    "carleman-sweep": (
        "carleman", 1, _carleman_sweep,
        {"grid": {"M": 3, "N": 64}, "mc": {"paths": 4}},
        "estimator, weight and GridFunction churn; each sweep value "
        "re-simulates the same paths",
    ),
    "stability-fine": (
        "stability", 2, lambda s: _fine(s, 64),
        {"grid": {"M": 7, "N": 32}, "mc": {"paths": 4}},
        "kernel-bound: long rows, few paths, two coupled legs",
    ),
    "simulate-fine": (
        "simulate", 1, lambda s: _fine(s, 1),
        {"grid": {"M": 7, "N": 32}},
        "artifact-bound: one path written as a 13 MB trajectory CSV",
    ),
}


def subcommand(name: str) -> str:
    return WORKLOADS[name][0]


def legs(name: str) -> int:
    """Trajectory families per path: 2 for the coupled stability pair."""
    return WORKLOADS[name][1]


def config(name: str, seed: int, tiny: bool = False) -> dict:
    """The strict CLI config of workload `name` at workload seed `seed`."""
    _, _, build, small, _ = WORKLOADS[name]
    cfg = build(seed)
    if tiny:
        cfg = copy.deepcopy(cfg)
        for section, values in small.items():
            cfg[section].update(values)
    return cfg
