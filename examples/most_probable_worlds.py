"""MAP-style inference: the most probable worlds of an uncertain KB.

Given a noisy, conflicting extraction table, the most probable worlds
(top-k possible worlds) are the canonical "best repairs".  This example
builds a small BID-constrained extraction scenario, ranks its worlds,
and shows how the ranking shifts once the table is completed to an open
world — the mode stays the same, but previously impossible repairs enter
the ranking with small positive probability.

Run:  python examples/most_probable_worlds.py
"""

from repro import Schema, TupleIndependentTable, open_world
from repro.finite.topk import top_k_worlds


def main() -> None:
    schema = Schema.of(BornIn=2)
    born_in = schema["BornIn"]
    # Conflicting extractions with confidences.
    kb = TupleIndependentTable(schema, {
        born_in("turing", "london"): 0.8,
        born_in("turing", "paris"): 0.1,
        born_in("hopper", "nyc"): 0.7,
        born_in("hopper", "boston"): 0.35,
    })

    print("Top 5 worlds of the closed-world table:")
    for world, probability in top_k_worlds(kb, 5):
        facts = ", ".join(str(f) for f in world) or "(empty)"
        print(f"  {probability:.4f}  {facts}")

    # Open-world completion: unseen birthplace facts become possible.
    # Its truncation to the 6 most likely new facts is again a TI table:
    # the original facts followed by those 6.
    completed = open_world(kb, total_open_mass=0.2, decay=0.5)
    open_table = completed.truncate(6)

    print("\nTop 5 worlds after open-world completion "
          "(budget 0.2 of new mass):")
    for world, probability in top_k_worlds(open_table, 5):
        facts = ", ".join(str(f) for f in world) or "(empty)"
        print(f"  {probability:.4f}  {facts}")

    print("\nThe mode (MAP repair) is unchanged; worlds containing "
          "never-extracted facts\nnow appear in the ranking with small "
          "positive probability instead of 0.")


if __name__ == "__main__":
    main()
