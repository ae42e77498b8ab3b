"""Bit-identity probe: the figures a change that claims no arithmetic change
must leave as they are.

Run from the repository root, on the tree under test and on a copy of its
parent, and compare the two outputs byte for byte::

    python3 tools/identity_probe.py

It pins BLAS to one thread, then runs the seed-7 protocol: a 2-epoch
desk-scale ``train()`` on 16 training and 8 validation videos (CMRC 0.5,
batch 4, ``min_count`` 1) with the default ``ModelConfig`` and AMF modes
full, private and off. For each it prints the epoch losses and the sha256 of
the checkpoint. Last it prints the sha256 of the default ``scan-check`` and
``grad-check`` output. It is not part of the test suite; it takes under
ten seconds on one core of a 2-core desk machine.
"""

import hashlib
import os
import subprocess
import sys
import tempfile

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"  # before numpy loads BLAS
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)

from avparse.data import SynthConfig, make_synthetic  # noqa: E402
from avparse.model import ModelConfig  # noqa: E402
from avparse.trainer import TrainConfig, train  # noqa: E402


def sha256(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def main() -> None:
    ds = make_synthetic(SynthConfig(seed=7, n_videos=16, n_val=8))
    config = TrainConfig(epochs=2, batch_size=4, seed=7, cmrc_multiplier=0.5, min_count=1)
    with tempfile.TemporaryDirectory() as tmp:
        for mode in ("full", "private", "off"):
            path = os.path.join(tmp, f"{mode}.mugc")
            _, log = train(ModelConfig(amf_mode=mode), ds.train, ds.classes,
                           ds.val, ds.gt_val, config, checkpoint_path=path)
            losses = " ".join(repr(e.loss) for e in log.entries)
            with open(path, "rb") as fh:
                print(f"{mode}: losses {losses} sha256 {sha256(fh.read())}")
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    for command in ("scan-check", "grad-check"):
        out = subprocess.run([sys.executable, "-m", "avparse", command], env=env,
                             capture_output=True, check=False).stdout
        print(f"{command}: {len(out.splitlines())} lines sha256 {sha256(out)}")


if __name__ == "__main__":
    main()
