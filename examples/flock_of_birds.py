"""Flock-of-birds case study: scalable verification vs. per-input model checking.

The motivating scenario of the population-protocol literature: temperature
sensors on birds should raise an alarm when at least ``c`` birds have a
fever.  Earlier verification tools could only check one initial population
at a time; the WS³ verifier proves well-specification for *all* populations
at once.  This example

1. verifies the two flock-of-birds protocol families used in the paper's
   evaluation (the [6] accumulation variant and the [8] "threshold-n"
   variant),
2. shows the per-input explicit-state baseline getting slower as the flock
   grows, while the WS³ proof covers every flock size,
3. simulates the alarm spreading through a large flock.

Run with::

    python examples/flock_of_birds.py
"""

from __future__ import annotations

import time

from repro.api import Verifier
from repro.protocols.library import (
    flock_of_birds_protocol,
    flock_of_birds_threshold_n_protocol,
)
from repro.protocols.simulation import Simulator
from repro.verification.explicit import verify_single_input


def main() -> None:
    threshold = 5
    protocol = flock_of_birds_protocol(threshold)
    tower_protocol = flock_of_birds_threshold_n_protocol(threshold)

    print(f"--- WS3 verification (all of the infinitely many inputs), c = {threshold}")
    with Verifier() as verifier:
        for candidate in (protocol, tower_protocol):
            result = verifier.check(candidate, properties=["ws3"]).result_for("ws3")
            print(
                f"{candidate.name}: |Q|={candidate.num_states}, |T|={candidate.num_transitions}, "
                f"WS3={result.holds}, time={result.statistics['time']:.2f}s, "
                f"trap/siphon refinements={result.statistics['refinements']}"
            )

    print()
    print("--- the old way: explicit model checking of single inputs")
    for sick in range(4, 9):
        population = {"sick": sick, "healthy": 3}
        start = time.perf_counter()
        verdict = verify_single_input(protocol, population)
        elapsed = time.perf_counter() - start
        print(
            f"input {population}: well specified={verdict.well_specified}, output={verdict.output}, "
            f"{verdict.num_configurations} configurations explored in {elapsed:.2f}s"
        )

    print()
    print("--- simulation of a large flock")
    simulator = Simulator(protocol, seed=2024)
    for sick in (threshold - 1, threshold, threshold + 20):
        run = simulator.run(input_population={"sick": sick, "healthy": 40})
        print(
            f"{sick} sick birds among {sick + 40}: alarm={'raised' if run.output else 'not raised'} "
            f"after {run.steps} interactions"
        )


if __name__ == "__main__":
    main()
