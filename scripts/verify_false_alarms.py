#!/usr/bin/env python3
"""Count how often each check of ``gatefid verify`` fails over a range of seeds.

On correct code every failure is a false alarm, so the counts estimate each
check's false-alarm rate; the ``verify`` module docstring states the bound
each should stay under. Runs at different seeds share no stream and no map
generator, so the counts are over independent runs. Prints one JSON object:

    {"level": ..., "seeds": [first, last], "runs": N,
     "failures": {check: count, ...}, "suite_failures": count}

Example: ``python scripts/verify_false_alarms.py --level full --first 0 --count 200``.
"""

import argparse
import json

from gatefid.verify import run_checks


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--level", choices=("quick", "full"), default="full")
    parser.add_argument("--first", type=int, default=0, help="first seed")
    parser.add_argument("--count", type=int, default=200, help="number of consecutive seeds")
    args = parser.parse_args()
    if args.count < 1:
        parser.error("--count must be at least 1")
    if args.first < 0:
        parser.error("--first must be at least 0")

    failures, suite = {}, 0
    for seed in range(args.first, args.first + args.count):
        report = run_checks(args.level, seed)
        for check in report["checks"]:
            failures[check["name"]] = failures.get(check["name"], 0) + (not check["passed"])
        suite += not report["passed"]
    summary = {
        "level": args.level,
        "seeds": [args.first, args.first + args.count - 1],
        "runs": args.count,
        "failures": failures,
        "suite_failures": suite,
    }
    print(json.dumps(summary, indent=2))


if __name__ == "__main__":
    main()
