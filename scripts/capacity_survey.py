#!/usr/bin/env python3
"""How rare is nonzero faithful capacity, and does planting recover it?

Two sweeps:

* Haar-random channels for every split up to --max-side qubits per party.
  Their spectra are almost surely simple, so the capacity histogram should
  pile up at d = 0; any other column is the degeneracy tolerance talking.
* Planted channels across every admissible (m, n, d), checking that
  analysis recovers the planted capacity exactly.
"""

import argparse

import numpy as np

from telecap import analyze, generate_planted, random_channel
from telecap.linalg import DEFAULT_EPS


def random_sweep(cfg: argparse.Namespace) -> None:
    print(f"haar channels, {cfg.trials} per split, eps={cfg.eps:g}")
    width = cfg.max_side + 1
    header = "  ".join(f"d={d}" for d in range(width))
    print(f" m n | {header}  mean_entropy")
    base = np.random.SeedSequence(cfg.seed)
    for m in range(1, cfg.max_side + 1):
        for n in range(m, cfg.max_side + 1):
            histogram = [0] * width
            entropy = 0.0
            for child in base.spawn(cfg.trials):
                report = analyze(random_channel(m, n, child), cfg.eps)
                histogram[report.capacity] += 1
                entropy += report.entropy_bits
            cells = "  ".join(f"{c:3d}" for c in histogram)
            print(f" {m} {n} | {cells}  {entropy / cfg.trials:12.4f}")


def planted_sweep(cfg: argparse.Namespace) -> None:
    total = exact = 0
    for m in range(1, cfg.max_side + 1):
        for n in range(1, cfg.max_side + 1):
            for d in range(min(m, n) + 1):
                for k in range(cfg.planted_trials):
                    seed = cfg.seed + 1000 * total + k
                    planted = generate_planted(m, n, d, seed, cfg.eps)
                    report = analyze(planted.channel, cfg.eps)
                    total += 1
                    exact += report.capacity == d
    print(f"planted recovery: {exact}/{total} exact")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=200,
                        help="random channels per split")
    parser.add_argument("--planted-trials", type=int, default=5,
                        help="planted channels per (m, n, d)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--eps", type=float, default=DEFAULT_EPS)
    parser.add_argument("--max-side", type=int, default=3,
                        help="largest qubit count per party")
    args = parser.parse_args()
    random_sweep(args)
    planted_sweep(args)


if __name__ == "__main__":
    main()
