"""Prepare step: train the benchmark's own EMF once per checkout.

Run by ``run.py`` in a child process when ``$REPRO_RESULTS_DIR/READY.json``
is missing. It trains ``repro.nn.pretrained.default_model`` into the
benchmark's cache directory (never the committed ``results/models``),
checks that the blob loads back, and only then writes ``READY.json``
with the training seconds. A run killed mid-training leaves no
``READY.json``, so the next run starts over from an empty directory.
"""
from __future__ import annotations

import json
import os
import shutil
import sys
import time


def main() -> int:
    results = os.environ["REPRO_RESULTS_DIR"]
    ready = os.path.join(results, "READY.json")
    shutil.rmtree(os.path.join(results, "models"), ignore_errors=True)

    from repro.nn.pretrained import default_model

    t0 = time.perf_counter()
    default_model()
    train_s = time.perf_counter() - t0
    default_model()  # a second call loads the blob: it must be readable
    tmp = ready + ".tmp"
    with open(tmp, "w") as f:
        json.dump({"train_s": train_s}, f)
    os.replace(tmp, ready)
    print(f"perfbench prepare: trained the EMF in {train_s:.1f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
