"""neurosmc: sequential Monte Carlo inference for conductance-based neurons.

Simulates Morris-Lecar membrane dynamics (optionally driven by stochastic
synaptic conductances), estimates the hidden states from noisy voltage
recordings with a particle filter built on the locally optimal importance
density, infers model parameters by particle MCMC with robust adaptive
proposals, and benchmarks estimation error against the posterior Cramer-Rao
bound.
"""

__version__ = "0.1.0"

from .model import (
    MorrisLecarParams,
    NoiseConfig,
    NumericalDivergence,
    SynapticParams,
    clamp_state,
    jacobian2,
    m_inf,
    ml_transition2,
    ml_transition4,
    n_inf,
    ns_to_ms_per_cm2,
    process_noise_cov2,
    process_noise_cov4,
    resting_state,
    tau_n,
)
from .simulate import Trace, observe, simulate_batch, simulate_truth, snr_db
from .filtering import (
    FilterDivergence,
    FilterOutput,
    ParticleCloud,
    effective_sample_size,
    initial_cov_diag,
    make_transition,
    mmse_estimate,
    optimal_proposal_moments,
    pf_step,
    predictive_likelihood,
    resample,
    run_filter,
)
from .pmcmc import (
    Chain,
    McmcConfig,
    ParameterSpace,
    apply_parameters,
    energy,
    point_estimates,
    ram_step,
    run_pmcmc,
)
from .bounds import PcrbSeries, jacobian2_reduced, pcrb_series, pcrb_step
from .bench import (
    ExperimentConfig,
    ExperimentError,
    ExperimentReport,
    efficiency,
    rmse_series,
    run_experiment,
    summary_table,
)
from .config import ConfigError, RunConfig, parse_config
from .seeding import as_seed_sequence, derive_seed

__all__ = [
    "__version__",
    "MorrisLecarParams", "SynapticParams", "NoiseConfig", "NumericalDivergence",
    "m_inf", "n_inf", "tau_n", "ml_transition2", "ml_transition4",
    "jacobian2", "process_noise_cov2", "process_noise_cov4", "clamp_state",
    "resting_state", "ns_to_ms_per_cm2",
    "Trace", "simulate_batch", "simulate_truth", "observe", "snr_db",
    "ParticleCloud", "FilterOutput", "FilterDivergence",
    "optimal_proposal_moments", "predictive_likelihood", "resample",
    "mmse_estimate", "effective_sample_size", "pf_step", "run_filter",
    "make_transition", "initial_cov_diag",
    "ParameterSpace", "McmcConfig", "Chain", "apply_parameters", "energy",
    "ram_step", "run_pmcmc", "point_estimates",
    "PcrbSeries", "jacobian2_reduced", "pcrb_step", "pcrb_series",
    "ExperimentConfig", "ExperimentReport", "ExperimentError", "rmse_series",
    "run_experiment", "efficiency", "summary_table",
    "RunConfig", "ConfigError", "parse_config",
    "as_seed_sequence", "derive_seed",
]
