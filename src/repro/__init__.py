"""PPHCR — Proactive Personalized Hybrid Content Radio.

A from-scratch reproduction of *"Context-Aware Proactive Personalization of
Linear Audio Content"* (Casagranda, Sapino, Candan — EDBT 2017): a platform
that enriches linear broadcast radio by proactively replacing parts of the
live audio with context-relevant clips, driven by the listener's location,
trajectory, predicted destination and travel time, and learned content
preferences.

The public API is organised by subsystem (see the "Paper section → package
map" in ``README.md`` for the full inventory); the names re-exported here are
the ones most applications need:

* build a synthetic world and server: :func:`repro.datasets.build_world`,
  :class:`repro.pipeline.PphcrServer`;
* run the paper's scenarios: :mod:`repro.simulation`;
* use the recommender directly: :mod:`repro.recommender`.
"""

from repro.datasets import WorldConfig, build_world
from repro.errors import ReproError
from repro.pipeline import PphcrServer, ServerConfig
from repro.recommender import (
    CompoundScorer,
    ListenerContext,
    ProactiveEngine,
    RecommendationPlan,
    Scheduler,
)
from repro.simulation import (
    PersonalizationStrategy,
    SimulationRunner,
    run_manual_skip_scenario,
    run_proactive_commute_scenario,
)

__version__ = "1.0.0"

__all__ = [
    "CompoundScorer",
    "ListenerContext",
    "PersonalizationStrategy",
    "PphcrServer",
    "ProactiveEngine",
    "RecommendationPlan",
    "ReproError",
    "Scheduler",
    "ServerConfig",
    "SimulationRunner",
    "WorldConfig",
    "build_world",
    "run_manual_skip_scenario",
    "run_proactive_commute_scenario",
    "__version__",
]
