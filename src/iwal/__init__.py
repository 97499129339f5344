"""Streaming importance-weighted active learning.

Unlabeled points arrive one at a time; a rejection threshold picks a query
probability from the point and the history, a biased coin decides whether to
pay for the label, and queried examples are stored with weight 1/p so the
weighted empirical loss stays unbiased for the true loss. The package ships
the sampling engine, loss-weighting and bootstrap-committee thresholds, the
convex solvers behind the linear-class instantiation, enumerable
synthetic instances, and probes for the theory that governs query counts.
"""

from .bootstrap import CommitteeThreshold, costing_resample, train_committee
from .engine import ArrayOracle, Engine, QueryTrace, weighted_loss_estimate
from .harness import (ExperimentConfig, RunReport, emit_curves,
                      run_experiment, run_replicates)
from .hypotheses import (ConstantPredictor, FiniteClass, LinearBall,
                         LinearPredictor, TablePredictor, ThresholdPredictor,
                         WeightedExample, WeightedSample, erm_weighted)
from .instances import (DiscreteInstance, SphereInstance,
                        lower_bound_instance, point_mass_instance,
                        random_discrete_instance)
from .losses import LossFunction
from .solver import SolverResult, minimize_linear, minimize_weighted_loss
from .theory import (disagreement_coefficient, expected_query_bound,
                     loss_deviation_bound, loss_distance_exact,
                     loss_distance_mc, sphere_coefficient_bound)
from .thresholds import (ConstantThreshold, LossWeightingFinite,
                         LossWeightingLinear, optimistic_slack, slack_width)
from .trees import DecisionTree, TreeParams

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
