"""Entry point of the parachk benchmark.

    python3 perfbench/run.py --workload fold-corpus --seed 1 --seconds 15 --trace 0

Run from the repository root. parachk is pure Python, so it runs from
`src/` as checked out; there is nothing to build.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main() -> int:
    if not os.path.isfile(os.path.join(SRC, "parachk", "cli.py")):
        print(f"error: no parachk sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import harness

    return harness.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
