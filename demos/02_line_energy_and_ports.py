"""
Telegrapher subsystem: exact discrete integration by parts
==========================================================

Shows the staggered SBP pair satisfying its boundary identity to machine
precision, and the effect of the port law on the line energy: open ends
conserve, resistive terminations drain.
"""

import numpy as np

from cablefield.assembly import assemble_system, build_closed_loop
from cablefield.certify import PortLaw
from cablefield.maxwell import FieldMaterials, assemble_curls, build_grid
from cablefield.geometry import GeometrySpec
from cablefield.sim import InputSignal, SimConfig, run
from cablefield.tline import LineMaterials, assemble_line, build_line_grid

g = build_line_grid(n=32, k=1)

# matrix identity behind every energy statement
lhs = (g.Mn @ g.Dt + g.D.T @ g.Mc).toarray()
rhs = (g.E1.T @ g.R1 - g.E0.T @ g.R0).toarray()
print(f"SBP boundary identity residual: {np.abs(lhs - rhs).max():.2e}")

rng = np.random.default_rng(0)
I = rng.standard_normal(g.n_cells)
V = rng.standard_normal(g.n_nodes)
green = (np.vdot(I, g.Mc @ (-(g.D @ V))) + np.vdot(-(g.Dt @ I), g.Mn @ V)
         - (np.vdot(g.R0 @ I, g.E0 @ V) - np.vdot(g.R1 @ I, g.E1 @ V)))
print(f"line Green identity residual:   {abs(green):.2e}")
# stacked port (I(0), I(1), V(0), -V(1)) that every port law acts on
z = np.concatenate([g.R0 @ I, g.R1 @ I, g.E0 @ V, -(g.E1 @ V)])
print(f"port vector of the sample:      {np.round(z, 3)}")

# a field-free box provides the trivially decoupled Maxwell block
spec = GeometrySpec(box=np.array([[0, 0.5], [0, 0.5], [0, 0.5]]), cables=[])
curls = assemble_curls(build_grid(spec, (5, 5, 5)), FieldMaterials())

print("\nport law vs energy over 400 steps:")
for name, W_B, mats in (
    ("open ends (skew)", np.hstack([np.eye(2), np.zeros((2, 2))]), LineMaterials(k=1)),
    ("resistive ends", np.hstack([np.eye(2), np.eye(2)]), LineMaterials(k=1)),
    ("resistive ends + R,G", np.hstack([np.eye(2), np.eye(2)]),
     LineMaterials(k=1, R=0.5, G=0.2)),
):
    blocks = assemble_line(mats, g)
    bundle = assemble_system(blocks, curls, coupling=None)
    law = PortLaw(W_B_inp=W_B, W_B_0=np.zeros((0, 4)),
                  W_C_out=np.hstack([np.eye(2), np.zeros((2, 2))]), k=1)
    loop = build_closed_loop(bundle, law)
    x0 = np.zeros(bundle.n, dtype=complex)
    lay = bundle.layout
    x0[lay.sl_V] = np.sin(np.pi * g.nodes) ** 2
    traj = run(loop, SimConfig(dt=5e-3, T=2.0, input=InputSignal(m=law.m)), x0=x0)
    print(f"  {name:24s} E(0)={traj.energy[0]:.6f}  E(T)={traj.energy[-1]:.6f}  "
          f"drift/decay {traj.energy[-1] / traj.energy[0] - 1.0:+.2e}")
