"""The job-oriented service API: submit, stream events, prioritise, cancel.

Run with::

    PYTHONPATH=src python examples/service_jobs.py

Demonstrates the asynchronous surface built on top of ``Verifier``: jobs
are submitted without blocking, scheduled priority-first onto dispatcher
threads that run the service's one verifier (one shared engine and cache),
observed through the typed progress-event stream, and cancelled
cooperatively.
"""

from __future__ import annotations

from repro.protocols.library import broadcast_protocol, majority_protocol, remainder_protocol
from repro.service import VerificationService
from repro.service.events import describe_event


def main() -> None:
    with VerificationService() as service:
        # Submit three jobs at different priorities; the highest runs first.
        urgent = service.submit(
            majority_protocol(),
            properties=["ws3"],
            priority=10,
            subscriber=lambda event: print(describe_event(event)),
        )
        background = service.submit(broadcast_protocol(), properties=["ws3"], priority=1)
        doomed = service.submit(remainder_protocol([1], 3, 1), properties=["ws3"], priority=0)

        # Cancel the lowest-priority job before it starts: it finishes as
        # "cancelled" without ever touching a worker.
        doomed.cancel()

        urgent.wait()
        report = urgent.result()
        print(f"\n{report.summary()}\n")

        # The event trail travels inside the report's statistics, so it
        # survives serialisation and the result cache.
        trail = [entry["event"] for entry in report.statistics["events"]]
        print("event trail of the urgent job:", " -> ".join(trail))

        background.wait()
        doomed.wait()
        print(
            f"background job: {background.status().value}, "
            f"cancelled job: {doomed.status().value}"
        )
        print("service statistics:", service.statistics)


if __name__ == "__main__":
    main()
