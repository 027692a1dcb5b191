"""Percolation on Poissonian scale-free random graphs in the barely
supercritical window: weight schedules, graph samplers, exploration walks,
component analysis, and the limiting constants they converge to.

The package root exports the experiment runner and the error classes; the
layers are imported from their modules (``sfperc.params``, ``sfperc.theory``,
``sfperc.graphgen``, ``sfperc.components``, ``sfperc.exploration``).
"""

from .errors import ConfigError, DomainError, NumericalFailureError, SfpercError
from .experiments import ExperimentConfig, ExperimentResult, run

__version__ = "0.1.0"
