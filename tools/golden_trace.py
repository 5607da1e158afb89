#!/usr/bin/env python3
"""Canonical digest of simulated outputs, for a byte-for-byte comparison of two source trees.

Usage, from the repository root:

    python3 tools/golden_trace.py --src PATH > digest.txt

It imports leofl from PATH (the `src/` directory of a checkout) and from nowhere
else, runs every config family below under every aggregation scheme, and prints
one line per global iteration and one per plane-round: hop records, simulated
times, bit counts and accuracies as exact values (floats in `float.hex`), the
SHA-256 of the global weights and of every satellite's residual, and every
`plan_round` result. For each family it also prints the SHA-256 of every
shard's rows and labels in plane order and of the test set, and, for the first
plane, the SHA-256 of every satellite's visibility windows over ten days, as
`float.hex` pairs: once from one search over the whole span, and once as a
run's `WindowCache` holds them, so a change to the cache's chunks or to how it
merges windows across a chunk seam shows too. Two trees simulate identically
exactly when their digests are equal, so a refactor is checked with

    diff <(python3 tools/golden_trace.py --src ../parent/src) \
         <(python3 tools/golden_trace.py --src src)

A run takes about 15 s on a 2-core host.
"""

import os

# one BLAS thread, as in the benchmark: the digest must not depend on threading
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# (name, config overrides, global iterations); every family runs every scheme
FAMILIES = [
    ("default-seed0", {"seed": 0}, 6),
    ("default-seed1", {"seed": 1}, 6),
    ("k5", {"constellation": {"sats_per_plane": 5}}, 4),
    ("k9-8000km-compute0",
     {"constellation": {"planes": 2, "sats_per_plane": 9, "altitude_km": 8000.0},
      "compute_time_s": 0.0}, 4),
    ("k6-50deg", {"constellation": {"sats_per_plane": 6, "inclination_deg": 50.0}}, 4),
    ("k28", {"constellation": {"sats_per_plane": 28}}, 4),
    ("k12-550km-53deg-q0.1",
     {"constellation": {"planes": 3, "sats_per_plane": 12, "altitude_km": 550.0,
                        "inclination_deg": 53.0}, "q": 0.1}, 4),
    ("k7-retrograde", {"constellation": {"sats_per_plane": 7, "inclination_deg": 150.0}}, 4),
    # q_count == n_d: Top-Q keeps every non-zero entry
    ("default-q1", {"q": 1.0}, 3),
]


def import_program(src: Path):
    """Import leofl from `src` only, never from an installed copy."""
    src = src.resolve()
    if not (src / "leofl" / "__init__.py").is_file():
        sys.exit(f"golden_trace: no leofl sources under {src}")
    sys.path.insert(0, str(src))
    import leofl
    from leofl import config, orbital, protocol, sparsify

    if Path(leofl.__file__).resolve().parent != src / "leofl":
        sys.exit(f"golden_trace: imported leofl from {leofl.__file__}, not from {src}")
    return config, orbital, protocol, sparsify


def sha(array) -> str:
    return hashlib.sha256(array.tobytes()).hexdigest()


TEN_DAYS_S = 10 * 86400.0


def cached_windows(protocol, plane, gs):
    """Every window of the plane's satellites that starts within ten days, as a run's
    `WindowCache` holds it: walked with `next_window`, so each end is complete."""
    cache = protocol.WindowCache(plane, gs)
    for sat in range(plane.num_sats):
        w = cache.next_window(sat, 0.0)
        while w.start_s < TEN_DAYS_S:
            yield sat, w
            w = cache.next_window(sat, w.end_s)


def window_digest(config, orbital, protocol, out):
    """Two lines per family: the first plane's visibility windows over ten days, from one
    whole-span search and from the chunk by chunk search of a run's window cache."""
    for family, raw, _ in FAMILIES:
        cfg = config.config_from_dict(raw)
        plane = config.build_planes_geometry(cfg)[0]
        gs = config.build_ground_station(cfg)
        searches = {
            "windows": [(sat, w) for sat in range(plane.num_sats)
                        for w in orbital.visibility_windows(plane, sat, gs, 0.0, TEN_DAYS_S)],
            "cached windows": list(cached_windows(protocol, plane, gs)),
        }
        for name, windows in searches.items():
            text = "\n".join(f"{sat} {w.start_s.hex()} {w.end_s.hex()}"
                             for sat, w in windows).encode()
            print(f"{family} {name} n={len(windows)} sha={hashlib.sha256(text).hexdigest()}",
                  file=out)


def dataset_digest(config, out):
    """One line per family: every shard's rows and labels in plane order, and the test set."""
    for family, raw, _ in FAMILIES:
        planes, _, _, test, _ = config.build_simulation(config.config_from_dict(raw))
        shards = [node.dataset for state in planes for node in state.nodes]
        text = ",".join(f"{sha(ds.rows)}:{sha(ds.labels)}" for ds in shards).encode()
        print(f"{family} data shards={len(shards)} sha={hashlib.sha256(text).hexdigest()} "
              f"test={sha(test.rows)}:{sha(test.labels)}", file=out)


def digest(config, orbital, protocol, sparsify, out):
    plans = []  # the plan_round results of the current iteration, in call order
    plan_round = protocol.plan_round

    def recorded_plan_round(*args, **kwargs):
        result = plan_round(*args, **kwargs)
        plans.append(result)
        return result

    # run_round looks plan_round up at call time
    protocol.plan_round = recorded_plan_round
    for family, raw, iterations in FAMILIES:
        for scheme in protocol.Scheme:
            cfg = config.config_from_dict(dict(raw, scheme=scheme.value))
            planes, hp, w, test, size_model = config.build_simulation(cfg)
            q_count = sparsify.q_to_count(cfg.q, size_model.dim)
            t = 0.0
            for n in range(1, iterations + 1):
                plans.clear()
                t_start = t
                w, metrics, t = protocol.run_global_iteration(
                    planes, scheme, w, hp, t, n, q_count, test)
                print(f"{family} {scheme.value} iter {n} t={t.hex()} "
                      f"t_end={t.hex()} acc={metrics.accuracy.hex()} "
                      f"bits={metrics.total_bits} w={sha(w)}", file=out)
                if len(plans) not in (0, len(planes)):
                    sys.exit(f"golden_trace: {family} {scheme.value} iter {n}: "
                             f"{len(plans)} plans for {len(planes)} planes")
                for p, (state, pm) in enumerate(zip(planes, metrics.plane_metrics)):
                    plan = ""
                    if plans:  # ring rounds: one plan per plane
                        rp, t_source_rx, dist_bits = plans[p]
                        plan = (f" plan=({rp.source_id},{rp.sink_id},{rp.arcs},"
                                f"{t_source_rx.hex()},{dist_bits})")
                    residuals = ",".join(sha(node.error.residual)[:16] for node in state.nodes)
                    gs_bits = sum(bits for src, dst, bits in pm.hop_records
                                  if protocol.GS_ID in (src, dst))
                    print(f"  plane {p} wall={(pm.t_done - t_start).hex()} bits={pm.total_plane_bits} "
                          f"gs={gs_bits}{plan} hops={pm.hop_records} residuals={residuals}",
                          file=out)
    protocol.plan_round = plan_round
    dataset_digest(config, out)
    window_digest(config, orbital, protocol, out)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parent.parent / "src",
                        help="the src/ directory to import leofl from (default: this checkout's)")
    args = parser.parse_args()
    digest(*import_program(args.src), sys.stdout)


if __name__ == "__main__":
    main()
