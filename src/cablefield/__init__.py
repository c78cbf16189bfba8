"""cablefield: structure-preserving coupled transmission-line / Maxwell simulation.

Submodules
----------
geometry   cable curves, adapted frames, lateral-surface charts
tline      staggered SBP discretization of the telegrapher system
maxwell    staggered (Yee) discretization of the field equations
coupling   surface coupling operators and voltage lifting
assembly   global block operators, boundary ports, closed loop
certify    port law (PortLaw), certification and well-posedness constants
sim        implicit-midpoint time integration and energy accounting
scenario   configuration files -> assembled scenarios
cli        command-line front end (python -m cablefield ...)
"""

from . import errors

__version__ = "0.1.0"

from .assembly import (      # noqa: E402
    ClosedLoop,
    OperatorBundle,
    assemble_system,
    build_closed_loop,
    hodge_extremes,
)
from .certify import (       # noqa: E402
    Certificate,
    PortLaw,
    build_colocated_output,
    check_admissible,
    wellposedness_constants,
)
from .coupling import assemble_P_el, assemble_P_mag, lift_voltage  # noqa: E402
from .geometry import (      # noqa: E402
    CableCurve,
    CircularArc,
    GeometrySpec,
    Helix,
    SplineCurve,
    StraightSegment,
    TubeChart,
    build_chart,
    build_frame,
    classify_point,
    validate_geometry,
)
from .maxwell import FieldMaterials, assemble_curls, build_grid, surface_trace  # noqa: E402
from .scenario import (Scenario, build_scenario, check_scenario, load_config,  # noqa: E402
                       read_scenario)
from .sim import InputSignal, MidpointStepper, SimConfig, Trajectory, run  # noqa: E402
from .tline import LineGrid, LineMaterials, assemble_line, build_line_grid  # noqa: E402

__all__ = [name for name in dir() if not name.startswith("_")]
