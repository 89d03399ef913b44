"""Run the criterion-6 config end to end and print a SHA-256 of every output.

Usage::

    python tools/claim_digests.py OUT_DIR > digests.json

It simulates the flights of ``configs/criterion6.cfg`` (``runs=3``,
``seed=17``) into ``OUT_DIR``, trains the ``single``, ``multi`` and
``baseline`` models, evaluates them, and prints one JSON object that maps
each file under ``OUT_DIR`` to its SHA-256; the commands' progress lines go
to stderr. The outputs do not depend on ``OPENBLAS_NUM_THREADS``; they are
equal on one OpenBLAS kernel, not across kernels. Two checkouts produced the
same outputs when their JSON files are equal (``diff a.json b.json``). The
package is imported from the ``src/`` next to this script, so each checkout
runs its own code.

The tests import ``run_claim`` and ``tree_digests`` from here: criterion 6
runs the claim through ``run_claim``, and every test that compares output
trees hashes them with ``tree_digests``.
"""
import contextlib
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CONFIG = ROOT / "configs" / "criterion6.cfg"
sys.path.insert(0, str(ROOT / "src"))

from quadndr.cli import cmd_eval, cmd_simulate, cmd_train  # noqa: E402
from quadndr.config import load_config  # noqa: E402


def run_claim(out_dir, overrides=()):
    """Simulate, train ``single``, ``multi`` and ``baseline``, and evaluate
    ``configs/criterion6.cfg`` with ``overrides`` into ``out_dir``. Returns
    ``cmd_eval``'s result; the commands' progress lines go to stderr."""
    cfg = load_config(CONFIG, [*overrides, f"out_dir={out_dir}"])
    with contextlib.redirect_stdout(sys.stderr):
        cmd_simulate(cfg)
        models = cmd_train(cfg, "single") + cmd_train(cfg, "multi")
        return cmd_eval(cfg, models, cmd_train(cfg, "baseline"))


def tree_digests(root) -> dict:
    """The SHA-256 of each file under ``root``, by its path relative to it."""
    root = Path(root)
    return {str(path.relative_to(root)): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(root.rglob("*")) if path.is_file()}


def main(argv) -> int:
    if len(argv) != 1:
        print("usage: python tools/claim_digests.py OUT_DIR", file=sys.stderr)
        return 2
    run_claim(argv[0])
    print(json.dumps(tree_digests(argv[0]), indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
