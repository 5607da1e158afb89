#!/usr/bin/env python3
"""Seeded random config documents through validation and a short run, with a tally of outcomes.

Usage, from the repository root:

    python3 tools/fuzz_configs.py --src PATH --seed S --docs N

It imports leofl from PATH (the `src/` directory of a checkout) and from
nowhere else, with `golden_trace.import_program`. Document i is drawn from one `random.Random(S)`, in this order:
planes `randint(1, 3)`, satellites per plane `randint(2, 12)`, altitude
`uniform(300, 20000)` km, inclination `uniform(0, 180)` deg, station latitude
`uniform(-90, 90)` and longitude `uniform(-180, 180)` deg, mask
`uniform(0, 89)` deg, then the scheme by `choice` over `Scheme` in enum order;
each has 5 training samples per satellite, 50 test samples and 2 rounds.
Each document is rejected (`config_from_dict` raises `ValidationError`), runs
its 2 iterations, stops with `NoWindowError` at t = 0 or later, or raises
something else. The tool prints the count of each outcome, other exceptions
by type, and each stopped or failed document's index with its t or error, so
two trees are compared by running it on each with the same seed and count:

    diff <(python3 tools/fuzz_configs.py --src ../parent/src --seed 37 --docs 200) \
         <(python3 tools/fuzz_configs.py --src src --seed 37 --docs 200)

200 documents take a few seconds on a 2-core host.
"""

import argparse
import random
import re
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
# its import pins one BLAS thread, as in the benchmark
from golden_trace import import_program  # noqa: E402


def document(rng: random.Random, schemes: list[str]) -> dict:
    planes, k = rng.randint(1, 3), rng.randint(2, 12)
    altitude, inclination = rng.uniform(300.0, 20_000.0), rng.uniform(0.0, 180.0)
    lat, lon, mask = rng.uniform(-90.0, 90.0), rng.uniform(-180.0, 180.0), rng.uniform(0.0, 89.0)
    return {"constellation": {"planes": planes, "sats_per_plane": k, "altitude_km": altitude,
                              "inclination_deg": inclination},
            "ground_station": {"latitude_deg": lat, "longitude_deg": lon,
                               "min_elevation_deg": mask},
            "dataset": {"train_samples": 5 * planes * k, "test_samples": 50},
            "training": {"rounds": 2}, "scheme": rng.choice(schemes)}


def fuzz(config, harness, protocol, seed: int, docs: int, out):
    rng = random.Random(seed)
    schemes = [s.value for s in protocol.Scheme]
    tally, notes = Counter(), []
    for i in range(docs):
        doc = document(rng, schemes)
        try:
            cfg = config.config_from_dict(doc)
        except config.ValidationError:
            tally["rejected"] += 1
            continue
        try:
            harness.run_experiment(cfg)
        except protocol.NoWindowError as exc:
            t = float(re.search(r"after t=(\S+)$", str(exc)).group(1))
            tally["stopped at t = 0" if t == 0 else "stopped later"] += 1
            notes.append(f"document {i}: stopped at t = {t!r}")
        except Exception as exc:  # noqa: BLE001 -- each is counted by its type
            tally[f"other {type(exc).__name__}"] += 1
            notes.append(f"document {i}: {type(exc).__name__}: {exc}")
        else:
            tally["ran"] += 1
    print(f"seed {seed}, {docs} documents", file=out)
    for outcome in ["rejected", "ran", "stopped at t = 0", "stopped later"]:
        print(f"{outcome}: {tally.pop(outcome, 0)}", file=out)
    for outcome, count in sorted(tally.items()):
        print(f"{outcome}: {count}", file=out)
    for note in notes:
        print(note, file=out)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parent.parent / "src",
                        help="the src/ directory to import leofl from (default: this checkout's)")
    parser.add_argument("--seed", type=int, default=37)
    parser.add_argument("--docs", type=int, default=200)
    args = parser.parse_args()
    config, _, protocol, _ = import_program(args.src)
    from leofl import harness  # from the tree import_program put first on the path

    fuzz(config, harness, protocol, args.seed, args.docs, sys.stdout)


if __name__ == "__main__":
    main()
