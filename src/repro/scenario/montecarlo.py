"""Seeded Monte-Carlo workload sampling for the ``montecarlo`` study kind.

The paper's design-space questions are usually asked at a handful of nominal
operating points; real drives are distributions.  A Monte-Carlo study samples
N (speed, temperature, activity, phase-pattern) conditions around a
scenario's operating point from seeded distributions and pushes them through
the workload-vectorized batch engine
(:meth:`~repro.core.evaluator.EnergyEvaluator.schedule_energy_sweep`), so the
whole sample population evaluates in a handful of array expressions instead
of N scalar schedule reports.

Determinism contract: the random stream is derived from ``(seed, scenario
document)``, never from execution order, so a grid point draws the same
sample population whether the study runs sequentially or on a process pool —
``Study.run(workers=4)`` rows are identical to the sequential ones.

The per-axis samplers ride the fleet distribution registry
(:mod:`repro.fleet.distributions`): the defaults reproduce the historical
clipped normal/uniform draws rng-call-for-rng-call, and the optional
``speed_distribution`` / ``temperature_distribution`` /
``activity_distribution`` fields swap in any registered kind (log-normal
speeds, correlated temperature, user-registered samplers) without touching
the stream derivation.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from repro.blocks.node import SensorNode
from repro.conditions.batch import BatchConditions
from repro.conditions.operating_point import TEMPERATURE_RANGE_C, OperatingPoint
from repro.errors import ConfigError
from repro.fleet.distributions import DistributionSpec

#: Slowest speed worth sampling: below ~5 km/h the node is effectively at
#: standstill and the revolution-schedule model does not apply.
_MIN_SPEED_KMH = 5.0


@dataclass(frozen=True)
class MonteCarloDraws:
    """One sampled workload population, ready for the batch engine.

    Attributes:
        conditions: the per-sample operating conditions (speed, temperature
            and workload activity columns; supply/process come from the
            scenario's operating point).
        patterns: ``(N, 3)`` boolean array of per-sample conditional-phase
            flags ``(transmits, refreshes_slow, writes_nvm)``.
    """

    conditions: BatchConditions
    patterns: np.ndarray

    def __len__(self) -> int:
        return len(self.conditions)


@dataclass(frozen=True)
class MonteCarloConfig:
    """Sampling distributions of one Monte-Carlo workload study.

    Attributes:
        samples: population size per grid point.
        seed: base seed of the deterministic random stream.
        speed_rel_std: relative standard deviation of the default (normal)
            speed distribution around the scenario's cruising speed.
        temperature_std_c: standard deviation of the default (normal)
            temperature distribution around the scenario's temperature.
        activity_range: ``(low, high)`` bounds of the default uniform
            per-sample workload activity factor
            (see ``BatchConditions.activity``).
        speed_distribution: optional registered distribution replacing the
            default speed sampler (a kind name, a ``{kind, params}``
            mapping, or a :class:`~repro.fleet.distributions.DistributionSpec`);
            draws are still clipped into the node's sustainable range.
        temperature_distribution: optional distribution replacing the
            default temperature sampler; draws are clipped to the modelled
            temperature range.
        activity_distribution: optional distribution replacing the default
            activity sampler; draws must stay positive.
    """

    samples: int = 512
    seed: int = 2011
    speed_rel_std: float = 0.15
    temperature_std_c: float = 7.5
    activity_range: tuple[float, float] = (0.6, 1.0)
    speed_distribution: DistributionSpec | None = None
    temperature_distribution: DistributionSpec | None = None
    activity_distribution: DistributionSpec | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.samples, int) or self.samples < 1:
            raise ConfigError("montecarlo samples must be a positive integer")
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ConfigError("montecarlo seed must be a non-negative integer")
        if self.speed_rel_std < 0.0 or self.temperature_std_c < 0.0:
            raise ConfigError("montecarlo standard deviations must be non-negative")
        low, high = self.activity_range
        if not (0.0 < low <= high):
            raise ConfigError("montecarlo activity_range must satisfy 0 < low <= high")
        for field_name in (
            "speed_distribution",
            "temperature_distribution",
            "activity_distribution",
        ):
            value = getattr(self, field_name)
            if value is not None:
                object.__setattr__(
                    self, field_name, DistributionSpec.coerce(value, field_name)
                )

    # -- deterministic stream -------------------------------------------------

    def rng_for(self, scenario_document: str) -> np.random.Generator:
        """The random generator of one grid point.

        Seeded from the config seed plus a digest of the scenario document,
        so the stream is a pure function of (config, scenario) — independent
        of grid position and of whether the study runs in worker processes.
        """
        digest = zlib.crc32(scenario_document.encode("utf-8"))
        return np.random.default_rng((self.seed, digest))

    # -- sampling -------------------------------------------------------------

    def draw(
        self,
        node: SensorNode,
        point: OperatingPoint,
        rng: np.random.Generator,
    ) -> MonteCarloDraws:
        """Sample one workload population around ``point``.

        Speeds are clipped into the node's sustainable range (worst-case
        schedule feasibility), temperatures into the modelled range, so every
        draw is evaluable; the conditional-phase flags are Bernoulli draws
        with the architecture's own per-revolution occurrence probabilities.

        Per-axis samplers come from the distribution registry; the default
        specs reproduce the historical clipped normal/uniform draws
        rng-call-for-rng-call, so a default config's stream is bit-identical
        to the pre-registry implementation.
        """
        count = self.samples
        ceiling = node.max_sustainable_speed_kmh() * 0.999
        low_speed = min(_MIN_SPEED_KMH, ceiling)
        speed_spec = self.speed_distribution or DistributionSpec(
            "normal",
            (("mean", point.speed_kmh), ("std", self.speed_rel_std * point.speed_kmh)),
        )
        speeds = np.clip(
            np.asarray(speed_spec.build().sample(rng, count), dtype=float),
            low_speed,
            ceiling,
        )
        low_t, high_t = TEMPERATURE_RANGE_C
        temperature_spec = self.temperature_distribution or DistributionSpec(
            "normal",
            (("mean", point.temperature_c), ("std", self.temperature_std_c)),
        )
        temperatures = np.clip(
            np.asarray(temperature_spec.build().sample(rng, count), dtype=float),
            low_t,
            high_t,
        )
        activity_low, activity_high = self.activity_range
        activity_spec = self.activity_distribution or DistributionSpec(
            "uniform", (("low", activity_low), ("high", activity_high))
        )
        activities = np.asarray(activity_spec.build().sample(rng, count), dtype=float)
        nvm_probability = (
            1.0 / node.memory.nvm_write_interval_revs if node.memory.use_nvm else 0.0
        )
        patterns = np.column_stack(
            (
                rng.random(count) < 1.0 / node.radio.tx_interval_revs,
                rng.random(count) < 1.0 / node.sensors.slow_refresh_interval_revs,
                rng.random(count) < nvm_probability,
            )
        )
        conditions = BatchConditions.from_arrays(
            speeds,
            temperatures,
            base_point=point,
            activity=activities,
        )
        return MonteCarloDraws(conditions=conditions, patterns=patterns)


def summarize_energies(
    energies: np.ndarray, periods: np.ndarray, samples: int
) -> dict[str, object]:
    """Row figures of one Monte-Carlo population (energies in J, periods in s)."""
    power_uw = energies / periods * 1e6
    return {
        "samples": samples,
        "mean_uj_per_rev": float(np.mean(energies)) * 1e6,
        "std_uj_per_rev": float(np.std(energies)) * 1e6,
        "p05_uj_per_rev": float(np.percentile(energies, 5.0)) * 1e6,
        "p95_uj_per_rev": float(np.percentile(energies, 95.0)) * 1e6,
        "max_uj_per_rev": float(np.max(energies)) * 1e6,
        "mean_power_uw": float(np.mean(power_uw)),
        "p95_power_uw": float(np.percentile(power_uw, 95.0)),
    }
