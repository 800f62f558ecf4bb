"""Monte-Carlo workload sweep over the scenario grid.

A nominal operating point tells you what the node draws at exactly 60 km/h
and 25 degC; a real drive is a distribution.  This example samples seeded
(speed, temperature, activity, phase-pattern) populations around each grid
point and pushes them through the workload-vectorized batch engine
(``EnergyEvaluator.schedule_energy_sweep``), so thousands of revolution
energies evaluate in a handful of array expressions.

Run with::

    PYTHONPATH=src python examples/montecarlo_sweep.py

or, equivalently, through the CLI front door::

    tpms-energy run --scenario examples/scenarios/quickstart.json \\
        --kind montecarlo --mc-samples 2000 --workers 4 --set temperature=-20,25,85
"""

from __future__ import annotations

from repro.scenario import MonteCarloConfig, ScenarioSpec, Study


def main() -> None:
    spec = ScenarioSpec(
        name="montecarlo-sweep",
        architecture="baseline",
        scavenger="piezoelectric",
        temperature_c=25.0,
        speed_kmh=60.0,
    )
    config = MonteCarloConfig(
        samples=2000,
        seed=2011,
        speed_rel_std=0.2,
        temperature_std_c=10.0,
        activity_range=(0.5, 1.0),
    )
    study = Study(
        spec,
        axes={
            "temperature": [-20.0, 25.0, 85.0],
            "architecture": ["baseline", "optimized"],
        },
        montecarlo=config,
    )
    # workers=4 runs grid points on a process pool; rows are identical (order
    # and values) to a sequential run because every random stream is derived
    # from (seed, scenario), never from execution order.
    result = study.run("montecarlo", workers=4)
    print(result.as_table(title="Monte-Carlo workload sweep", float_digits=2))
    print(
        f"\n{result.metadata['grid_points']} grid points x {config.samples} samples "
        f"in {result.metadata['wall_time_s']:.2f} s "
        f"({result.metadata['workers']} workers, "
        f"{result.metadata['evaluator_builds']} evaluator builds)"
    )

    # The p95 column is the sizing figure: a scavenger/storage pairing that
    # covers the 95th percentile revolution keeps the node alive through
    # workload bursts, not just on the average round.
    worst = max(result.rows, key=lambda row: row["p95_uj_per_rev"])
    print(
        f"sizing case: {worst['architecture']} at {worst['temperature']:g} degC "
        f"-> p95 {worst['p95_uj_per_rev']:.1f} uJ/rev "
        f"(mean {worst['mean_uj_per_rev']:.1f} uJ/rev)"
    )


if __name__ == "__main__":
    main()
