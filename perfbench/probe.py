"""Set-up probe: a fresh interpreter that prepares one workload and exits.

Prints ``time.monotonic_ns()`` at the moment the first timed query would be
ready.  ``run.py`` subtracts the moment it spawned the interpreter; both
read the same system-wide monotonic clock.

    python3 perfbench/probe.py --workload exact-scan --seed 1
"""

import argparse
import time

from program import prepare


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    prepare(args.workload, args.seed)
    print(time.monotonic_ns())


if __name__ == "__main__":
    main()
