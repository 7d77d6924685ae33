"""Sectioned key=value run configuration.

Sections: [model], [noise], [synaptic], [filter], [mcmc], [bench], [output].
Every key has a documented default except the [mcmc] box definition, which is
required when a chain is requested.  Unknown sections or keys are hard
errors, as are values that violate the owning object's invariants.
"""

import configparser
from dataclasses import dataclass, fields

import numpy as np

from .bench import ExperimentConfig
from .model import (
    MorrisLecarParams,
    NoiseConfig,
    SynapticParams,
    REFERENCE_AREA_UM2,
    ns_to_ms_per_cm2,
)
from .pmcmc import McmcConfig, ParameterSpace

__all__ = ["ConfigError", "RunConfig", "parse_config"]


class ConfigError(ValueError):
    """A configuration file could not be read or failed validation."""


_MODEL_KEYS = tuple(f.name for f in fields(MorrisLecarParams))
_NOISE_KEYS = tuple(f.name for f in fields(NoiseConfig))
_SYN_FLOAT_KEYS = tuple(f.name for f in fields(SynapticParams))
_SYN_KEYS = _SYN_FLOAT_KEYS + ("units", "area_um2")
_FILTER_KEYS = ("n_particles", "resample_policy", "ess_threshold", "sigma_v",
                "x0_sigma_v", "x0_sigma_n")
_MCMC_KEYS = ("n_iters", "names", "theta0", "sigma0", "lower", "upper",
              "gamma", "accept_target", "burn_in")
_BENCH_KEYS = ("scenario", "n_steps", "n_trials", "particle_counts",
               "algorithm", "compute_pcrb", "pcrb_trajectories",
               "pcrb_sensitivity", "max_failure_fraction")
_OUTPUT_KEYS = ("dir", "seed")
_SECTIONS = {
    "model": _MODEL_KEYS,
    "noise": _NOISE_KEYS,
    "synaptic": _SYN_KEYS,
    "filter": _FILTER_KEYS,
    "mcmc": _MCMC_KEYS,
    "bench": _BENCH_KEYS,
    "output": _OUTPUT_KEYS,
}


@dataclass
class RunConfig:
    """Validated union of all run settings.

    ``n_steps`` (from [bench]) sets the trace length for every subcommand;
    [filter] settings drive both standalone filtering and the filter runs
    inside chains and experiments.
    """

    params: MorrisLecarParams
    noise: NoiseConfig
    syn: SynapticParams = None
    n_particles: int = 500
    resample_policy: str = "always"
    ess_threshold: float = 0.5
    sigma_v: float = None
    x0_sigma_v: float = 1.0
    x0_sigma_n: float = 0.05
    mcmc: McmcConfig = None
    space: ParameterSpace = None
    scenario: str = ""
    n_steps: int = 2000
    n_trials: int = 10
    particle_counts: tuple = (500,)
    algorithm: str = "pf"
    compute_pcrb: bool = None
    pcrb_trajectories: int = 200
    pcrb_sensitivity: str = "reduced"
    max_failure_fraction: float = 0.05
    out_dir: str = "."
    seed: int = 0

    def experiment_config(self, master_seed=None):
        """Assemble the Monte-Carlo harness config for this run."""
        if self.algorithm == "pmcmc" and (self.space is None or self.mcmc is None):
            raise ConfigError("algorithm = pmcmc requires an [mcmc] section")
        return ExperimentConfig(
            params=self.params, noise=self.noise, syn=self.syn,
            scenario=self.scenario, particle_counts=self.particle_counts,
            n_trials=self.n_trials, n_steps=self.n_steps,
            master_seed=self.seed if master_seed is None else master_seed,
            algorithm=self.algorithm, compute_pcrb=self.compute_pcrb,
            pcrb_trajectories=self.pcrb_trajectories,
            pcrb_sensitivity=self.pcrb_sensitivity,
            x0_sigma_v=self.x0_sigma_v, x0_sigma_n=self.x0_sigma_n,
            resample_policy=self.resample_policy,
            ess_threshold=self.ess_threshold, sigma_v=self.sigma_v,
            space=self.space, mcmc=self.mcmc,
            max_failure_fraction=self.max_failure_fraction)


class _Section:
    """Typed accessors over one section with use-tracking for unknown keys."""

    def __init__(self, parser, name):
        self.name = name
        self.raw = dict(parser[name]) if parser.has_section(name) else {}

    def get(self, key, default=None):
        return self.raw.get(key, default)

    def get_float(self, key, default=None):
        if key not in self.raw:
            return default
        try:
            return float(self.raw[key])
        except ValueError as err:
            raise ConfigError(f"[{self.name}] {key}: not a number: {self.raw[key]!r}") from err

    def get_int(self, key, default=None):
        if key not in self.raw:
            return default
        try:
            return int(self.raw[key])
        except ValueError as err:
            raise ConfigError(f"[{self.name}] {key}: not an integer: {self.raw[key]!r}") from err

    def get_bool(self, key, default=None):
        if key not in self.raw:
            return default
        value = self.raw[key].strip().lower()
        if value in ("1", "true", "yes", "on"):
            return True
        if value in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"[{self.name}] {key}: not a boolean: {self.raw[key]!r}")

    def get_float_list(self, key):
        if key not in self.raw:
            return None
        try:
            return np.array([float(v) for v in self.raw[key].split(",")])
        except ValueError as err:
            raise ConfigError(f"[{self.name}] {key}: not a number list: {self.raw[key]!r}") from err

    def get_int_list(self, key, default=None):
        if key not in self.raw:
            return default
        try:
            return tuple(int(v) for v in self.raw[key].split(","))
        except ValueError as err:
            raise ConfigError(f"[{self.name}] {key}: not an integer list: {self.raw[key]!r}") from err

    def float_kwargs(self, keys):
        return {k: self.get_float(k) for k in keys if k in self.raw}


def _check_unknown(parser):
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser[section]:
            if key not in _SECTIONS[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")


def _build_synaptic(sec: _Section):
    if not sec.raw:
        return None
    units = (sec.get("units") or "per_area").strip().lower()
    if units not in ("per_area", "ns"):
        raise ConfigError(f"[synaptic] units must be 'per_area' or 'ns', got {units!r}")
    if "area_um2" in sec.raw and units != "ns":
        raise ConfigError("[synaptic] area_um2 only applies when units = ns")
    kwargs = {}
    for key in _SYN_FLOAT_KEYS:
        value = sec.get_float(key)
        if value is None:
            if key in ("e_e", "e_i"):
                continue
            raise ConfigError(f"[synaptic] missing required key {key!r}")
        kwargs[key] = value
    if units == "ns":
        area = sec.get_float("area_um2", REFERENCE_AREA_UM2)
        for key in ("g_e0", "sigma_e", "g_i0", "sigma_i"):
            kwargs[key] = ns_to_ms_per_cm2(kwargs[key], area)
    try:
        return SynapticParams(**kwargs)
    except ValueError as err:
        raise ConfigError(f"[synaptic] {err}") from err


def _build_mcmc(sec: _Section):
    if not sec.raw:
        return None, None
    names = sec.get("names")
    if names is None:
        raise ConfigError("[mcmc] missing required key 'names'")
    names = tuple(n.strip() for n in names.split(",") if n.strip())
    theta0 = sec.get_float_list("theta0")
    sigma0 = sec.get_float_list("sigma0")
    lower = sec.get_float_list("lower")
    upper = sec.get_float_list("upper")
    for key, val in (("theta0", theta0), ("sigma0", sigma0),
                     ("lower", lower), ("upper", upper)):
        if val is None:
            raise ConfigError(f"[mcmc] missing required key {key!r}")
        if len(val) != len(names) and not (key == "sigma0" and len(val) == 1):
            raise ConfigError(f"[mcmc] {key} must list one value per name")
    try:
        space = ParameterSpace(names=names, lower=lower, upper=upper)
        cfg = McmcConfig(
            n_iters=sec.get_int("n_iters", 200), theta0=theta0,
            sigma0=sigma0 if len(sigma0) > 1 else float(sigma0[0]),
            gamma=sec.get_float("gamma", 0.9),
            accept_target=sec.get_float("accept_target", 0.234),
            burn_in=sec.get_int("burn_in"))
    except ValueError as err:
        raise ConfigError(f"[mcmc] {err}") from err
    return cfg, space


def parse_config(path):
    """Parse and validate a config file into a :class:`RunConfig`."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path) as fh:
            parser.read_file(fh, source=str(path))
    except OSError as err:
        raise ConfigError(f"cannot read config file {path}: {err}") from err
    except configparser.Error as err:
        raise ConfigError(f"config parse error: {err}") from err
    _check_unknown(parser)

    model_sec = _Section(parser, "model")
    noise_sec = _Section(parser, "noise")
    try:
        params = MorrisLecarParams(**model_sec.float_kwargs(_MODEL_KEYS))
    except ValueError as err:
        raise ConfigError(f"[model] {err}") from err
    try:
        noise = NoiseConfig(**noise_sec.float_kwargs(_NOISE_KEYS))
    except ValueError as err:
        raise ConfigError(f"[noise] {err}") from err
    syn = _build_synaptic(_Section(parser, "synaptic"))
    mcmc, space = _build_mcmc(_Section(parser, "mcmc"))

    fsec = _Section(parser, "filter")
    policy = (fsec.get("resample_policy") or "always").strip()
    if policy not in ("always", "ess"):
        raise ConfigError(f"[filter] resample_policy must be 'always' or 'ess', got {policy!r}")
    bsec = _Section(parser, "bench")
    algorithm = (bsec.get("algorithm") or "pf").strip()
    if algorithm not in ("pf", "pmcmc"):
        raise ConfigError(f"[bench] algorithm must be 'pf' or 'pmcmc', got {algorithm!r}")
    sensitivity = (bsec.get("pcrb_sensitivity") or "reduced").strip()
    if sensitivity not in ("reduced", "full"):
        raise ConfigError("[bench] pcrb_sensitivity must be 'reduced' or 'full', "
                          f"got {sensitivity!r}")
    osec = _Section(parser, "output")

    cfg = RunConfig(
        params=params, noise=noise, syn=syn,
        n_particles=fsec.get_int("n_particles", 500),
        resample_policy=policy,
        ess_threshold=fsec.get_float("ess_threshold", 0.5),
        sigma_v=fsec.get_float("sigma_v"),
        x0_sigma_v=fsec.get_float("x0_sigma_v", 1.0),
        x0_sigma_n=fsec.get_float("x0_sigma_n", 0.05),
        mcmc=mcmc, space=space,
        scenario=(bsec.get("scenario") or "").strip(),
        n_steps=bsec.get_int("n_steps", 2000),
        n_trials=bsec.get_int("n_trials", 10),
        particle_counts=bsec.get_int_list("particle_counts", (500,)),
        algorithm=algorithm,
        compute_pcrb=bsec.get_bool("compute_pcrb"),
        pcrb_trajectories=bsec.get_int("pcrb_trajectories", 200),
        pcrb_sensitivity=sensitivity,
        max_failure_fraction=bsec.get_float("max_failure_fraction", 0.05),
        out_dir=(osec.get("dir") or ".").strip(),
        seed=osec.get_int("seed", 0))

    if cfg.n_particles < 2:
        raise ConfigError("[filter] n_particles must be at least 2")
    if cfg.n_steps < 1:
        raise ConfigError("[bench] n_steps must be at least 1")
    if cfg.n_trials < 1:
        raise ConfigError("[bench] n_trials must be at least 1")
    if not cfg.particle_counts:
        raise ConfigError("[bench] particle_counts must be nonempty")
    if cfg.sigma_v is not None and cfg.sigma_v <= 0:
        raise ConfigError("[filter] sigma_v must be positive")
    if cfg.x0_sigma_v <= 0 or cfg.x0_sigma_n <= 0:
        raise ConfigError("[filter] x0_sigma_v and x0_sigma_n must be positive")
    if cfg.compute_pcrb and cfg.syn is not None:
        raise ConfigError("[bench] compute_pcrb requires the two-state model "
                          "(drop the [synaptic] section)")
    return cfg
