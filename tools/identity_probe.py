"""Bit-identity probe: the figures a change that claims no arithmetic change
must leave as they are.

Run from the repository root, on the tree under test and on a copy of its
parent, and compare the two outputs byte for byte::

    python3 tools/identity_probe.py

It pins BLAS to one thread, then runs the seed-7 protocol: a 2-epoch
desk-scale ``train()`` on 16 training and 8 validation videos (CMRC 0.5,
batch 4, ``min_count`` 1) with the default ``ModelConfig`` and AMF modes
full, private and off. For each it prints the epoch losses and the sha256 of
the checkpoint. Then, per mode, it prints the forward line: the sha256 of a
seed-7 desk net's forward outputs (the three probabilities, every ``stages``
entry and ``diagnostics``) on one fixed batch of 8 training videos, then on
each of them alone, and the op and node counts of one batch-2 training
graph. A change that moves only the backward leaves the forward hashes as
they are. Then, per mode, it prints the backward line: the sha256 of the
gradient store (every parameter's gradient, in ``parameters()`` order)
after that graph's backward, then one sha256 (16 hex digits) per top-level
module's slice of it, so a change shows which modules' gradients moved. Last
it prints the sha256 of the default ``scan-check`` and
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

import numpy as np  # noqa: E402

from avparse import tensor as tt  # noqa: E402
from avparse.data import SynthConfig, make_synthetic  # noqa: E402
from avparse.model import AVMambaNet, ModelConfig, compute_loss  # noqa: E402
from avparse.trainer import (TextCache, TrainConfig, forward_record, forward_records,  # noqa: E402
                             train)


def sha256(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def hash_outputs(digest, outputs) -> None:
    """Add each forward output's name, shape and bytes to ``digest``."""
    arrays = {"seg_prob_a": outputs.seg_prob_a.data, "seg_prob_v": outputs.seg_prob_v.data,
              "video_prob": outputs.video_prob.data,
              **{f"stages.{k}": v.data for k, v in outputs.stages.items()},
              **{f"diagnostics.{k}": v for k, v in outputs.diagnostics.items()}}
    for name, values in arrays.items():
        digest.update(f"{name} {values.shape}".encode())
        digest.update(np.ascontiguousarray(values).tobytes())


def probe_lines(mode: str, ds) -> tuple[str, str]:
    """The forward line and the backward line of a seeded desk net."""
    net = AVMambaNet(ModelConfig(amf_mode=mode), seed=7)
    texts = TextCache(ds.classes, net.config.text_dim)
    records = ds.train[:8]
    batch, alone = hashlib.sha256(), hashlib.sha256()
    with tt.no_grad():
        hash_outputs(batch, forward_records(net, records, texts))
        for record in records:
            hash_outputs(alone, forward_record(net, record, texts))
    pair = ds.train[:2]
    loss = compute_loss(forward_records(net, pair, texts),
                        *(np.stack([getattr(r, name) for r in pair]) for name in
                          ("video_label", "pseudo_a", "pseudo_v", "null_a", "null_v")))
    nodes = tt.graph_tensors(loss)
    ops = sum(node._backward is not None for node in nodes)
    forward = (f"{mode}: forward batch sha256 {batch.hexdigest()} records sha256 "
               f"{alone.hexdigest()} train graph {ops} ops {len(nodes)} nodes")
    params = net.parameters()
    loss.backward(params=params.values())
    slices: dict[str, list[bytes]] = {}
    for name, p in params.items():
        slices.setdefault(name.split(".")[0], []).append(p.grad.tobytes())
    store = sha256(b"".join(b"".join(parts) for parts in slices.values()))
    modules = " ".join(f"{module} {sha256(b''.join(parts))[:16]}"
                       for module, parts in slices.items())
    return forward, f"{mode}: backward store sha256 {store} {modules}"


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
    lines = [probe_lines(mode, ds) for mode in ("full", "private", "off")]
    for kind in (0, 1):
        for pair in lines:
            print(pair[kind])
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    for command in ("scan-check", "grad-check"):
        out = subprocess.run([sys.executable, "-m", "avparse", command], env=env,
                             capture_output=True, check=False).stdout
        print(f"{command}: {len(out.splitlines())} lines sha256 {sha256(out)}")


if __name__ == "__main__":
    main()
