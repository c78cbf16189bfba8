import numpy as np
import pytest

from cablefield.errors import ConfigError
from cablefield.scenario import parse_complex, validate_scenario

MUTUAL = [[1.0, 0.1], [0.1, 1.0]]


@pytest.mark.parametrize("key, value, n, expected", [
    ("line.C/L", MUTUAL, 2, MUTUAL),
    ("sim.input.amplitude", [0.5, 0.0], 2, [0.5, 0.0]),
    ("sim.input.amplitude", [[0.3, 0.0], [0.3, 0.0]], 2, [0.3 + 0j, 0.3 + 0j]),
    ("sim.input.amplitude", [0.3, 0.0, 0.1, 0.0], 4, [0.3, 0.0, 0.1, 0.0]),
    ("sim.input.amplitude", [0.3, 0.2], 1, [0.3 + 0.2j]),
    ("sim.input.amplitude", [0.3, 0.0, 0.1], 2, ConfigError),
])
def test_complex_entries_parse_by_shape(key, value, n, expected, scenario_config):
    # an entry of exactly the expected shape is real; one extra trailing
    # axis of length 2 holds [re, im] pairs; a scalar slot takes one pair
    if key == "line.C/L":
        # k = 2 multiconductor line with mutual capacitance and inductance
        scenario_config["line"].update(k=n, C=value, L=value)
        assert validate_scenario(scenario_config)["line_materials"]["passed"]
        shape, scalar = (n, n), True
    else:
        shape, scalar = (n,), n == 1
    if expected is ConfigError:
        with pytest.raises(ConfigError, match=key):
            parse_complex(value, shape, key, scalar=scalar)
        return
    out = parse_complex(value, shape, key, scalar=scalar)
    assert np.allclose(out, expected, rtol=0, atol=0)
    assert np.iscomplexobj(out) == np.iscomplexobj(np.asarray(expected))
