"""kinsim: a Classic-DEVS kernel plus a process-object layer for studying
how consanguineous marriage shifts congenital-disorder prevalence.

Layering, bottom up:

* :mod:`kinsim.kernel` runs any Classic-DEVS model (atomic or coupled);
  its couplings join ports and carry each message unchanged.
* :mod:`kinsim.randomness` provides seeded streams and the distribution kit.
* :mod:`kinsim.objects` realizes Source, Combiner, Server and Sink
  objects as DEVS atomics; a source routes what it emits, for instance with
  weighted picks, and the other objects tell how many entities arrived on
  each input port.
* :mod:`kinsim.genetics` maps cousin degree to an inbreeding coefficient and
  draws per-birth disorder flags.
* :mod:`kinsim.model` holds the config, wires the consanguinity model and
  reads each leg's count off the arrivals at its end.
* :mod:`kinsim.experiment` runs seeded replications and writes CSV reports;
  :mod:`kinsim.cli` exposes them as the ``kinsim`` command.
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
    Message,
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
    sample_discrete,
    substream,
)
from .objects import (
    WeightedChoice,
    make_combiner,
    make_server,
    make_sink,
    make_source,
)
from .genetics import (
    ConsanguinityDegree,
    assign_disorder,
    disorder_probability,
    inbreeding_coefficient,
)
from .model import (
    ModelConfig,
    RunStats,
    SourceSettings,
    Violation,
    build_consanguinity_model,
    collect_run_stats,
    validate_config,
)
from .experiment import (
    ExperimentResult,
    ReportRow,
    csv_text,
    export_csv,
    read_csv,
    run_experiment,
)

__all__ = [name for name in dir() if not name.startswith("_")]
