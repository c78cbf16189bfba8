"""Workloads of the cablefield benchmark: scenario files and correctness gates.

Each op is one ``cablefield`` CLI command on a scenario file written here.
The seed varies only the sine input's amplitudes and phase, inside fixed
ranges, so unknown counts, step counts and records repeat exactly on every
seed.  Op 0 of every run uses the reference input, whose outputs are
compared with the values the seed commit produced (``baseline.json``); the
other ops, with seeded inputs, are gated on the invariants and record counts.

Scale 2 of the pair (117,594 unknowns) is not a workload: factorizing it
takes 253 s and 5.4 GB on a 2-core / 7 GB machine, which cannot be repeated
22 times per check.  It joins once the step solver scales.
"""

from __future__ import annotations

import copy
import json
import math
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))

# Relative tolerance of the reference-value check.  Another fill-reducing
# ordering of the sparse LU moves these energies by roundoff (measured:
# 3e-14 on the pair, 1.1e-11 over the 15,000 single-cable steps); a change
# of the discrete model, the input or dt moves them by far more than 1e-8.
REFERENCE_RTOL = 1e-8

GREEN_RESIDUAL_MAX = 1e-12


def _pair_config(scale, dt, T):
    """``straight_pair_config`` of tests/conftest.py at grid scale ``scale``."""
    eye4 = [[1.0 if i == j else 0.0 for j in range(4)] for i in range(4)]
    return {
        "seed": 0,
        "geometry": {
            "box": [[0.0, 1.6], [0.0, 1.0], [0.0, 1.8]],
            "collar_halfwidth": 0.3,
            "cables": [
                {"type": "segment", "p0": [0.45, 0.5, 0.4], "direction": [0, 0, 1],
                 "length": 1.0, "radius": 0.2, "line": 0},
                {"type": "segment", "p0": [1.15, 0.5, 0.4], "direction": [0, 0, 1],
                 "length": 1.0, "radius": 0.2, "line": 1},
            ],
        },
        "line": {"k": 2, "n_cells": 12 * scale, "C": 1.0, "L": 1.0, "R": 0.1, "G": 0.05},
        "fields": {"grid": [16 * scale, 10 * scale, 18 * scale], "eps": 1.0, "mu": 1.0,
                   "sigma": 0.1, "n_theta": 12 * scale},
        "boundary": {"W_B_inp": [r + r for r in eye4], "W_B_0": [], "W_C_out": "colocated"},
        "sim": {
            "dt": dt, "T": T,
            "input": {"kind": "sine", "freq": 1.0, "amplitude": [0.3, 0.0, 0.1, 0.0],
                      "phase": 0.0},
            "initial": {"kind": "smooth", "scale": 0.5},
        },
    }


def _single_config(dt, T):
    """The lossy single-cable geometry of acceptance criteria 3 and 5."""
    return {
        "seed": 0,
        "geometry": {
            "box": [[0.0, 0.6], [0.0, 0.6], [0.0, 1.0]],
            "collar_halfwidth": 0.3,
            "cables": [{"type": "segment", "p0": [0.3, 0.3, 0.15], "direction": [0, 0, 1],
                        "length": 0.7, "radius": 0.2, "line": 0}],
        },
        "line": {"k": 1, "n_cells": 12, "C": 1.0, "L": 1.0, "R": 0.2, "G": 0.1},
        "fields": {"grid": [6, 6, 10], "eps": 1.0, "mu": 1.0, "sigma": 0.2, "n_theta": 12},
        "boundary": {"W_B_inp": [[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0]],
                     "W_B_0": [], "W_C_out": "colocated"},
        "sim": {
            "dt": dt, "T": T,
            # m = 2 amplitudes in the schema's [re, im] form
            "input": {"kind": "sine", "freq": 0.3, "amplitude": [[0.3, 0.0], [0.3, 0.0]],
                      "phase": 0.0},
            "initial": {"kind": "smooth", "scale": 1.0},
        },
    }


WORKLOADS = {
    "pair_s1_simulate": {
        "why": "ROADMAP reference case: 13,852 unknowns, 200 steps; time goes to the "
               "sparse LU factorization and the fill-bound solves",
        "command": "simulate",
        "config": _pair_config(1, 0.01, 2.0),
        "steps": 200,
        # ledger residual / peak energy is the second-order quadrature error
        # of the recorded samples: about 1e-3 = 10 dt^2 here; bound 50 dt^2
        "ledger_ratio_max": 5e-3,
        "amplitude_form": "real",
    },
    "single_n1152_longrun": {
        "why": "1,152 unknowns, 15,000 recorded steps: tiny factor, so time goes to "
               "per-step Python overhead, the residual check and record()",
        "command": "simulate",
        "config": _single_config(2e-5, 0.3),
        "steps": 15000,
        # acceptance criterion 5 bound at dt = 2e-5 (measured about 3e-9)
        "ledger_ratio_max": 1e-8,
        "amplitude_form": "re_im",
    },
    "pair_s3_certify": {
        "why": "409,300 unknowns built and certified, never factorized: time goes to "
               "the geometry classification and the surface-trace build",
        "command": "certify",
        "config": _pair_config(3, 0.01, 2.0),
    },
}

AMPLITUDE_RANGE = (0.05, 0.4)
PHASE_RANGE = (0.0, 2.0 * math.pi)


def scenario_for(name: str, seed: int, op: int) -> dict:
    """Scenario of op ``op`` in a run with ``seed``; op 0 is the reference."""
    wl = WORKLOADS[name]
    cfg = copy.deepcopy(wl["config"])
    if op == 0:
        return cfg
    rng = random.Random(f"{name}:{seed}:{op}")
    inp = cfg["sim"]["input"]
    m = len(inp["amplitude"])
    amps = [round(rng.uniform(*AMPLITUDE_RANGE), 6) for _ in range(m)]
    if wl.get("amplitude_form") == "re_im":
        inp["amplitude"] = [[a, 0.0] for a in amps]
    else:
        inp["amplitude"] = amps
    inp["phase"] = round(rng.uniform(*PHASE_RANGE), 6)
    return cfg


def reference_outputs(name: str) -> dict:
    """Outputs of the seed commit that op 0 must reproduce (baseline.json)."""
    with open(os.path.join(HERE, "baseline.json")) as f:
        return json.load(f)["outputs"][name]


def _close(value, ref, rtol=REFERENCE_RTOL):
    return (isinstance(value, (int, float)) and isinstance(ref, (int, float))
            and abs(value - ref) <= rtol * max(abs(ref), 1e-300))


def check_op(name: str, op: int, returncode: int, outdir: str) -> list:
    """Correctness gate of one op; returns the list of failures (empty: ok)."""
    if returncode != 0:
        return [f"exit code {returncode}"]
    wl = WORKLOADS[name]
    reference = reference_outputs(name)
    out_file = "summary.json" if wl["command"] == "simulate" else "certificate.json"
    try:
        with open(os.path.join(outdir, out_file)) as f:
            out = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        return [f"cannot read {out_file}: {exc}"]
    problems = []
    if wl["command"] == "simulate":
        if out.get("wp_bound_satisfied") is not True:
            problems.append("well-posedness bound not satisfied")
        peak = out.get("peak_energy")
        res = out.get("max_ledger_residual")
        if not (isinstance(peak, (int, float)) and isinstance(res, (int, float))
                and peak > 0 and res / peak <= wl["ledger_ratio_max"]):
            problems.append(f"ledger residual {res} / peak energy {peak} "
                            f"exceeds {wl['ledger_ratio_max']}")
        if out.get("records") != reference["records"]:
            problems.append(f"records {out.get('records')} != {reference['records']}")
        csv = os.path.join(outdir, "trajectory.csv")
        if not os.path.isfile(csv) or os.path.getsize(csv) == 0:
            problems.append("trajectory.csv missing")
        if op == 0:
            for key in ("final_energy", "peak_energy"):
                if not _close(out.get(key), reference[key]):
                    problems.append(f"{key} {out.get(key)!r} != reference {reference[key]!r}")
    else:
        if out.get("admissible") is not True or out.get("strict") is not True:
            problems.append("certificate not admissible and strict")
        gr = out.get("green_residual")
        if not (isinstance(gr, (int, float)) and gr <= GREEN_RESIDUAL_MAX):
            problems.append(f"green residual {gr!r} > {GREEN_RESIDUAL_MAX}")
        for key in ("delta", "gamma", "c_t"):
            if not _close(out.get(key), reference[key]):
                problems.append(f"{key} {out.get(key)!r} != reference {reference[key]!r}")
    return problems
