"""Run the criterion-6 config end to end and print a SHA-256 of every output.

Usage::

    python tools/claim_digests.py OUT_DIR > digests.json

It simulates the flights of ``tests/test_acceptance.py``'s criterion-6
config (``runs=3``, ``seed=17``) into ``OUT_DIR``, trains the ``single``,
``multi`` and ``baseline`` models, evaluates them, and prints one JSON
object that maps each file under ``OUT_DIR`` to its SHA-256; the commands'
progress lines go to stderr. The outputs do not depend on
``OPENBLAS_NUM_THREADS``; they are equal on one OpenBLAS kernel, not across
kernels. Two checkouts produced the same outputs when their JSON files are
equal (``diff a.json b.json``). The package is imported from the ``src/`` next
to this script, so each checkout runs its own code.
"""
import contextlib
import hashlib
import json
import sys
from pathlib import Path

# the overrides of test_criterion_6_qualitative_claim, out_dir aside
CLAIM_OVERRIDES = [
    "sample_rate=25.0", "window_size=25", "stride=12",
    "num_trajectories=6", "test_fraction=0.34",
    "accel_noise_std=0.05", "gyro_noise_std=0.002",
    "accel_bias=0.08,-0.05,0.06", "gyro_bias=0.004,-0.003,0.03",
    "epochs=10", "runs=3", "dropout=0.1", "seed=17",
]


def main(argv) -> int:
    if len(argv) != 1:
        print("usage: python tools/claim_digests.py OUT_DIR", file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from quadndr.cli import cmd_eval, cmd_simulate, cmd_train
    from quadndr.config import load_config

    out = Path(argv[0])
    cfg = load_config(overrides=CLAIM_OVERRIDES + [f"out_dir={out}"])
    with contextlib.redirect_stdout(sys.stderr):  # the commands' progress lines
        cmd_simulate(cfg)
        models = cmd_train(cfg, "single") + cmd_train(cfg, "multi")
        cmd_eval(cfg, models, cmd_train(cfg, "baseline"))
    digests = {str(path.relative_to(out)): hashlib.sha256(path.read_bytes()).hexdigest()
               for path in sorted(out.rglob("*")) if path.is_file()}
    print(json.dumps(digests, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
