"""
A curved cable end to end
=========================

A circular arc (bend radius 1.0, tube radius 0.2) in a box sized to it,
with the collar shell inside the box: the geometry of the acceptance
test on curved cables.  Builds and certifies the coupled system (exact
discrete Green identity, the resistive port law's well-posedness
constants), drives both cable ends with a sine and closes the energy
ledger, then runs the same arc with open ends and no input, where the
midpoint scheme conserves the energy exactly.
"""

import numpy as np

from cablefield.assembly import build_closed_loop
from cablefield.certify import PortLaw
from cablefield.scenario import build_scenario, check_scenario, read_scenario
from cablefield.sim import InputSignal, SimConfig, run, smooth_state, wp_bound_series

config = {
    "geometry": {
        "box": [[0.0, 0.7], [0.0, 0.7], [0.0, 1.2]],
        "collar_halfwidth": 0.3,
        "cables": [{"type": "arc", "center": [-0.6, 0.35, 0.6], "u": [1, 0, 0],
                    "v": [0, 0, 1], "rho": 1.0, "phi0": -0.33, "phi1": 0.33,
                    "radius": 0.2, "line": 0}],
    },
    "line": {"k": 1, "n_cells": 12, "C": 1.0, "L": 1.0},
    "fields": {"grid": [7, 7, 12], "eps": 1.0, "mu": 1.0, "n_theta": 12},
    "boundary": {
        # resistive terminations at both cable ends, input on both ports
        "W_B_inp": np.hstack([np.eye(2), np.eye(2)]).tolist(),
        "W_B_0": [],
        "W_C_out": "colocated",
    },
    "sim": {
        "dt": 2e-3, "T": 0.4,
        "input": {"kind": "sine", "freq": 1.5, "amplitude": [0.5, 0.5]},
        "initial": {"kind": "smooth"},
    },
}

geo = check_scenario(read_scenario(config))["geometry"]
arc = geo["cables"][0]
print(f"geometry valid: {geo['passed']} (curvature margin {arc['curvature_margin']:.2f}, "
      f"collar shell {arc['containment_margin']:.3f} m inside the box)")
scn = build_scenario(config)
print(f"state dimension: {scn.bundle.n}, discrete Green identity residual: "
      f"{scn.bundle.green_residual:.2e}")

cert = scn.certificate()
print(f"resistive law: admissible={cert.admissible} strict={cert.strict} "
      f"delta={cert.delta:.3f} c_t={cert.c_t:.3f}")

traj = scn.simulate()
led = traj.ledger
bound = wp_bound_series(traj, cert.c_t)
print(f"driven run, {traj.solver['solves']} steps ({traj.solver['method']} step solve): "
      f"ledger residual {led['max_residual']:.3e} of peak energy {led['peak_energy']:.4f}, "
      f"well-posedness bound held: {bound['satisfied']}")

# open ends (I_tot = u = 0): a skew law, under which the lossless arc
# conserves the energy
skew = PortLaw(W_B_inp=np.hstack([np.eye(2), np.zeros((2, 2))]), W_B_0=np.zeros((0, 4)),
               W_C_out=np.hstack([np.zeros((2, 2)), np.eye(2)]), k=1)
free = run(build_closed_loop(scn.bundle, skew),
           SimConfig(dt=5e-3, T=1.0, input=InputSignal(m=skew.m)),
           x0=smooth_state(scn.bundle))
print(f"open-ended run, {free.solver['solves']} steps: energy drift "
      f"{free.ledger['energy_drift']:.2e} (acceptance bound 1e-10)")
