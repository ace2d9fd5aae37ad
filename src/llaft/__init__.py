"""Log-logistic accelerated failure time survival models.

Mean-field variational Bayes (coordinate ascent with piecewise softplus
surrogates), maximum likelihood, and random-walk Metropolis inference for
right-censored data, plus a replication-study harness.
"""
from .cavi import FitConfig, VariationalState, fit, fit_batch
from .exceptions import DataError, NumericalError
from .model import (DatasetStack, ModelParams, PriorSpec, SurvivalDataset, log_likelihood,
                    log_posterior)
from .numerics import InverseGammaParams
from .posterior import (ParameterSummary, acceleration_factor,
                        summarize_coefficients, summarize_scale)
from .reference import McmcChain, MleResult, fit_mle, fit_mle_batch, sample_posterior
from .simulate import (STRONG_PRIOR, WEAK_PRIOR, ReplicationReport,
                       SimulationScenario, generate_dataset, run_replication)

__version__ = "0.1.0"

__all__ = [
    "DataError",
    "DatasetStack",
    "FitConfig",
    "InverseGammaParams",
    "McmcChain",
    "MleResult",
    "ModelParams",
    "NumericalError",
    "ParameterSummary",
    "PriorSpec",
    "ReplicationReport",
    "STRONG_PRIOR",
    "SimulationScenario",
    "SurvivalDataset",
    "VariationalState",
    "WEAK_PRIOR",
    "acceleration_factor",
    "fit",
    "fit_batch",
    "fit_mle",
    "fit_mle_batch",
    "generate_dataset",
    "log_likelihood",
    "log_posterior",
    "run_replication",
    "sample_posterior",
    "summarize_coefficients",
    "summarize_scale",
    "__version__",
]
