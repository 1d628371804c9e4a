"""classim: agent-based classroom transmission simulator.

Replays per-second indoor movement (position + body orientation) through a
distance/orientation infection kernel inside a seeded SEIR state machine,
then sweeps scenarios (classroom density, teacher vaccination) and reduces
the runs to policy metrics.

The root exports only the names its callers import from it; every other
name is imported from its module (``classim.kernel.mean_pair_rate``,
``classim.epidemic.simulate_session``, ...).
"""

__version__ = "0.1.0"

from .epidemic import DiseaseParams  # noqa: F401
from .kernel import default_kernel_params, pairwise_rates  # noqa: F401
from .scenario import ScenarioConfig, sweep  # noqa: F401
from .synthgen import SynthConfig, generate  # noqa: F401
from .trajectory import TrackFormat, load_observation  # noqa: F401
