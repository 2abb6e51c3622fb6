"""kinsim: a Classic-DEVS kernel plus a process-object layer for studying
how consanguineous marriage shifts congenital-disorder prevalence.

Layering, bottom up:

* :mod:`kinsim.kernel` runs any Classic-DEVS model (atomic or coupled);
  its couplings carry each ``(port, payload)`` message, renaming its port.
* :mod:`kinsim.randomness` provides seeded streams and the distribution kit.
* :mod:`kinsim.objects` realizes Source, Combiner and Sink objects as DEVS
  atomics that keep counters; a source routes what it emits, for instance
  with weighted picks, and a combiner's trigger gives each couple its
  offspring as it marries them.
* :mod:`kinsim.genetics` holds one table, cousin degree to inbreeding
  coefficient, and the formula for the per-birth disorder probability.
* :mod:`kinsim.model` holds the config, wires the consanguinity model and
  lays out its report, every row read off the objects' counters.
* :mod:`kinsim.experiment` runs seeded replications and writes CSV reports;
  :mod:`kinsim.cli` exposes them as the ``kinsim`` command.

The names imported below are the API that programs call.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigurationError,
    ContractViolationError,
    IllegitimateModelError,
    RoutingError,
    SimulationError,
    StructuralError,
)
from .kernel import (
    INFINITY,
    AtomicSpec,
    Coupling,
    CoupledSpec,
    SimulationHandle,
    initialize,
)
from .entities import Entity, EntityFactory, ObjectStats, individual_count
from .randomness import (
    Constant,
    DiscreteDistribution,
    Exponential,
    RngStream,
    Uniform,
    make_distribution,
    substream,
)
from .objects import (
    WeightedChoice,
    make_combiner,
    make_sink,
    make_source,
)
from .genetics import INBREEDING_COEFFICIENTS, disorder_probability
from .model import (
    ModelConfig,
    RunStats,
    Violation,
    build_consanguinity_model,
    collect_run_stats,
    validate_config,
)
from .experiment import (
    ExperimentResult,
    ReportRow,
    export_csv,
    run_experiment,
)
