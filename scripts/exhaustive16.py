"""Time one exhaustive search at the paper's 16-entry size.

One neuron of 16 entries (k = 4, QuantumFlow's 4x4 input) is scored over
all 2^16 weight codes on `linear_chain(6)` under flip and phase noise of
0.05, on the density backend, with `make_synthetic_dataset(5, 50, k=4)`
and the all-ones neuron as the baseline. It prints the wall time of
`train`, its `phase_seconds` and `work`, the best accuracy and the
process's peak resident memory, one `key value` line each:

    PYTHONPATH=src python3 scripts/exhaustive16.py

Run it on two trees in fresh processes, alternating, to compare them; the
figures are seeded, so `work` and the best accuracy repeat exactly.
"""
import resource
import time

from qnz.noise import parse_noise_shorthand
from qnz.qnn import Model, make_synthetic_dataset
from qnz.topology import linear_chain
from qnz.trainer import TrainConfig, train


def main() -> None:
    cfg = TrainConfig(
        strategy="exhaustive", max_iters=2**16 + 1, seed=7, backend="density",
        noise=parse_noise_shorthand("flip:0.05,phase:0.05"), initial=Model(((1,) * 16,)),
        dataset=make_synthetic_dataset(5, 50, k=4), graph=linear_chain(6),
    )
    t0 = time.perf_counter()
    result = train(cfg)
    wall = time.perf_counter() - t0
    print(f"wall_s {wall:.3f}")
    print("phase_seconds " + " ".join(f"{k}={v:.3f}" for k, v in result.phase_seconds.items()))
    print("work " + " ".join(f"{k}={v}" for k, v in result.work.items()))
    print(f"best_accuracy {result.best_accuracy} baseline_accuracy {result.baseline_accuracy}")
    print(f"peak_rss_mb {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.1f}")


if __name__ == "__main__":
    main()
