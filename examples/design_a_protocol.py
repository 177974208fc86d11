"""Design a protocol from a Presburger specification and verify it.

The expressiveness result of Section 5 is constructive: any boolean
combination of threshold and remainder predicates can be compiled into a
WS³ protocol (threshold/remainder base protocols + negation + asynchronous
product).  This example compiles the specification

    "strictly more sick than healthy birds"  AND  "the flock has even size"

into a protocol.  The two leaf protocols are proved to be in WS³ with the
constraint-based verifier (membership is preserved by the product
construction, Proposition 33 / Corollary 34 — the product even inherits the
leaves' LayeredTermination certificates); the compiled product is then
checked against the specification on every small input with the
explicit-state engine and exercised by simulation.

Run with::

    python examples/design_a_protocol.py
"""

from __future__ import annotations

from repro.api import Verifier
from repro.presburger.compiler import compile_predicate
from repro.presburger.predicates import RemainderPredicate, ThresholdPredicate
from repro.protocols.simulation import Simulator
from repro.verification.explicit import check_predicate_on_inputs, verify_single_input
from repro.verification.layered_termination import check_partition


def main() -> None:
    # "#healthy - #sick < 0" (strict majority of sick birds) ...
    strict_sick_majority = ThresholdPredicate({"healthy": 1, "sick": -1}, 0)
    # ... and "#healthy + #sick = 0 (mod 2)" (even flock size).
    even_flock = RemainderPredicate({"healthy": 1, "sick": 1}, 2, 0)
    specification = strict_sick_majority & even_flock
    print(f"specification: {specification.describe()}")

    # Compile the two leaves and the full specification.
    majority_leaf = compile_predicate(strict_sick_majority, name="sick-majority")
    parity_leaf = compile_predicate(even_flock, name="even-flock")
    protocol = compile_predicate(specification, name="sick-majority-and-even")
    print(
        f"compiled protocols: leaves {majority_leaf.num_states}/{parity_leaf.num_states} states, "
        f"product {protocol.num_states} states and {protocol.num_transitions} transitions"
    )

    # WS3 membership of the leaves (the product construction preserves it).
    with Verifier() as verifier:
        for leaf in (majority_leaf, parity_leaf):
            report = verifier.check(leaf, properties=["ws3"])
            print(f"  {leaf.name}: WS3 = {report.is_ws3} in {report.statistics['time']:.2f}s")
    lifted = check_partition(protocol, protocol.partition_hint)
    print(f"  product inherits a valid LayeredTermination certificate: {lifted.holds}")

    # Correctness of the product on all small inputs (explicit state space).
    ok, mismatches = check_predicate_on_inputs(protocol, specification, max_size=5)
    print(f"  product agrees with the specification on all inputs of size <= 5: {ok}")

    simulator = Simulator(protocol, seed=1)
    for population in [
        {"sick": 4, "healthy": 2},
        {"sick": 4, "healthy": 1},
        {"sick": 2, "healthy": 5},
    ]:
        run = simulator.run(input_population=population)
        explicit = verify_single_input(protocol, population)
        print(
            f"input {population}: simulation -> {run.output}, "
            f"explicit model checking -> {explicit.output}, "
            f"specification -> {int(specification.evaluate(population))}"
        )


if __name__ == "__main__":
    main()
