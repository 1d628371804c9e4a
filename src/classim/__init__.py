"""classim: agent-based classroom transmission simulator.

Replays per-second indoor movement (position + body orientation) through a
distance/orientation infection kernel inside a seeded SEIR state machine,
then sweeps scenarios (classroom density, teacher vaccination) and reduces
the runs to policy metrics.
"""

__version__ = "0.1.0"

from .epidemic import (  # noqa: F401
    DiseaseParams,
    EpidemicState,
    is_run_complete,
    new_epidemic_state,
    progress_offclass,
    sample_incubation,
    seed_patient_zero,
    simulate_session,
    transmission_step,
)
from .kernel import (  # noqa: F401
    CalibrationInputs,
    KernelParams,
    PairGeometry,
    TransmissionMode,
    calibrate_beta_max,
    default_kernel_params,
    density,
    pair_rate,
    pairwise_rates,
    relative_geometry,
)
from .metrics import (  # noqa: F401
    OutcomeSummary,
    aggregate_hourly,
    emergence_proportion,
    saturation,
    summarize_run,
)
from .scenario import (  # noqa: F401
    DensityVariant,
    RunOutcome,
    ScenarioConfig,
    SchoolCalendar,
    VaccinationVariant,
    apply_half_class,
    apply_vaccination,
    build_calendar,
    derive_seed,
    run_simulation,
    sweep,
)
from .synthgen import SynthConfig, generate  # noqa: F401
from .trajectory import (  # noqa: F401
    Activity,
    Observation,
    Person,
    Role,
    TrackFormat,
    fuse_tags,
    load_observation,
    resample,
    save_observation,
)
