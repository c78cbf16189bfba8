"""
Boundary-condition certification zoo
====================================

Admissibility, skewness, strictness, the kernel-relation oracle, and
co-located output construction for a gallery of port laws on the stacked
port (I_tot(0), I_tot(1), V(0), -V(1)).
"""

import numpy as np

from cablefield.certify import (
    PortLaw,
    build_colocated_output,
    check_admissible,
    colocation_defect,
    kernel_relation_oracle,
    wellposedness_constants,
)

I2 = np.eye(2)
Z2 = np.zeros((2, 2))

laws = {
    "open ends   [I, 0]": np.hstack([I2, Z2]),
    "short ends  [0, I]": np.hstack([Z2, I2]),
    "resistive   [I, I]": np.hstack([I2, I2]),
    "mismatched  [2I, I]": np.hstack([2 * I2, I2]),
    "mixed [I, diag(1, 0)]": np.hstack([I2, np.diag([1.0, 0.0])]),
    "sign-flipped [I, -I]": np.hstack([I2, -I2]),
}

print(f"{'law':22s} admissible strict skew   K eig range")
for name, W in laws.items():
    rep = check_admissible(W)
    print(f"{name:22s} {str(rep['admissible']):10s} {str(rep['strict']):6s} "
          f"{str(rep['skew']):5s}  [{rep['K_eig_min']:+.2f}, {rep['K_eig_max']:+.2f}]")

print("\nkernel-relation oracle on the sign-flipped law:")
print(" ", kernel_relation_oracle(I2, -I2))

print("\nco-located completions:")
for name in ("open ends   [I, 0]", "resistive   [I, I]", "mismatched  [2I, I]",
             "mixed [I, diag(1, 0)]"):
    W_B = laws[name]
    W_C = build_colocated_output(W_B)
    lam = colocation_defect(W_B, W_C)
    print(f"  {name:22s} defect eigs in [{lam.min():+.2e}, {lam.max():+.2e}]"
          f"  cond [W_B;W_C] = {np.linalg.cond(np.vstack([W_B, W_C])):.2f}")

print("\nwell-posedness constants for the resistive law (unit materials):")
law = PortLaw(W_B_inp=laws["resistive   [I, I]"],
              W_B_0=np.zeros((0, 4)),
              W_C_out=build_colocated_output(laws["resistive   [I, I]"]),
              k=1)
cert = wellposedness_constants(law, hodge_min=1.0, hodge_max=1.0)
print(f"  delta={cert.delta}, gamma={cert.gamma}, c={cert.c}, c_t={cert.c_t}")
