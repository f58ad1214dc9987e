#!/usr/bin/env python3
"""Steal an image through the integrity tree (Figure 15).

A libjpeg-style encoder compresses an image inside a cache-cleansed
process.  The attacker never reads the image — it only watches, through
shared integrity-tree nodes, whether each loop iteration of
``encode_one_block`` touched the ``r`` page (zero coefficient) or the
``nbits`` page (non-zero), then rebuilds the image from that entropy mask.

Writes PGM files you can open with any image viewer, in the temporary
directory (``tempfile.gettempdir()``, usually /tmp; ``TMPDIR`` moves it):
  metaleak_original.pgm  metaleak_stolen.pgm
  metaleak_oracle.pgm    metaleak_activity.pgm

Run:  python examples/jpeg_image_leak.py [image] [size]
"""

import os
import sys
import tempfile

import numpy as np

from repro.analysis import run_jpeg_metaleak_t
from repro.victims.jpeg import sample_image_names
from repro.victims.jpeg.reconstruct import save_pgm


def main() -> None:
    image_name = sys.argv[1] if len(sys.argv) > 1 else "text"
    size = int(sys.argv[2]) if len(sys.argv) > 2 else 32
    if image_name not in sample_image_names():
        raise SystemExit(f"unknown image; options: {sample_image_names()}")

    print(f"Encoding {image_name!r} ({size}x{size}) under attack ...")
    outcome = run_jpeg_metaleak_t(image_name, size=size, noise_reads=2)

    print(f"  victim steps monitored  : {outcome.steps}")
    print(f"  stealing accuracy       : {outcome.stealing_accuracy:.1%}  (paper: 94.3%)")
    print(f"  zero-element recovery   : {outcome.zero_accuracy:.1%}")
    print(f"  detail-map correlation  : {outcome.reconstruction_correlation:.3f}")

    out_dir = tempfile.gettempdir()
    save_pgm(outcome.original, os.path.join(out_dir, "metaleak_original.pgm"))
    save_pgm(outcome.reconstructed, os.path.join(out_dir, "metaleak_stolen.pgm"))
    save_pgm(outcome.oracle, os.path.join(out_dir, "metaleak_oracle.pgm"))
    # Leaked detail map, normalised for viewing.
    diff = np.abs(outcome.reconstructed.astype(float) - 128.0)
    if diff.max() > 0:
        diff = diff * (255.0 / diff.max())
    save_pgm(diff, os.path.join(out_dir, "metaleak_activity.pgm"))
    print(f"  wrote {out_dir}/metaleak_{{original,stolen,oracle,activity}}.pgm")


if __name__ == "__main__":
    main()
