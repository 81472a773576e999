"""Keep an FD profile fresh while a table grows (DMS-style).

Production tables mostly grow; re-profiling from scratch on every batch
wastes the work already done.  ``IncrementalEulerFD`` keeps the covers
alive across appends: insertions can only *invalidate* dependencies, so
the state specializes monotonically and each batch costs only the
comparisons that involve new tuples.

The example streams a day of orders at a time into the profiler and
watches dependencies fall as real-world mess accumulates.  The whole
session runs under the observability recorder (``repro.obs``), so at
the end the per-phase wall-time tree shows where the maintenance work
went — each day's ``append`` span with its nested steps:
``append_rows`` (encoding the batch), ``append_compare`` (comparing the
new rows with their cluster-mates), ``inversion`` (specializing the
cover) and ``append_snapshot`` (the refreshed result).

Run with:  python examples/incremental_profiling.py
"""

from __future__ import annotations

import random

from repro import obs
from repro.core import IncrementalEulerFD
from repro.fd import FD
from repro.relation import Relation

CITIES = {"Hangzhou": "CN", "Atlanta": "US", "Berlin": "DE"}


def day_of_orders(day: int, rng: random.Random) -> list[tuple]:
    rows = []
    for order in range(40):
        city = rng.choice(list(CITIES))
        country = CITIES[city]
        if day == 3 and order == 7:
            country = "??"  # a bad import lands on day 3
        rows.append((f"d{day}-o{order}", city, country, rng.randint(1, 99)))
    return rows


def main() -> None:
    rng = random.Random(42)
    base = Relation.from_rows(
        day_of_orders(0, rng),
        ["order_id", "city", "country", "amount"],
        name="orders-stream",
    )
    with obs.recording() as recorder:
        session = IncrementalEulerFD(base, exhaustive_base=True)
        rule = FD.of([base.column_index("city")], base.column_index("country"))

        result = session.current_result()
        print(f"day 0: {result.num_rows} rows, {len(result.fds)} FDs, "
              f"city->country holds: {rule in result.fds}")

        for day in range(1, 6):
            result = session.append(day_of_orders(day, rng))
            print(f"day {day}: {result.num_rows} rows, {len(result.fds)} FDs, "
                  f"city->country holds: {rule in result.fds} "
                  f"({result.stats['pairs_compared']} pairs compared so far)")

    print("\nThe bad import on day 3 permanently invalidates the rule —")
    print("insertions only ever specialize the dependency cover.")

    print("\nWhere the maintenance time went:")
    print(obs.summary_tree(recorder))


if __name__ == "__main__":
    main()
