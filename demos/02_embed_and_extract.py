"""Embed a small image into a clip and get it back.

Walks the whole pipeline once: synthesize a host clip, draw a 25x25
watermark, embed it, check the damage (PSNR), write everything to disk,
read it back and extract. The extraction is non-blind: it needs the key
file produced at embed time.
"""

import tempfile
from pathlib import Path

import numpy as np

from gbtmark import (
    EmbedParams,
    WatermarkImage,
    ber,
    embed,
    extract,
    payload,
    read_key,
    read_wav,
    write_key,
    write_pbm,
    write_wav,
)
from gbtmark.synth import speech_like

workdir = Path(tempfile.mkdtemp(prefix="gbtmark_demo_"))
print(f"artifacts land in {workdir}\n")

# ------------------------------------------------------------------
# 1. A host clip and a payload image. The glyph is a hollow square
#    with a diagonal, easy to recognize in ASCII.
host = speech_like(duration_s=3.0, sample_rate=8000, seed=42)
print(f"host: {len(host) / host.sample_rate:.1f} s at {host.sample_rate} Hz, "
      f"{payload(host.sample_rate, 10):g} bits/s of capacity")

grid = np.zeros((25, 25), dtype=int)
grid[0, :] = grid[-1, :] = grid[:, 0] = grid[:, -1] = 1
np.fill_diagonal(grid, 1)
watermark = WatermarkImage(25, 25, grid.reshape(-1))

# ------------------------------------------------------------------
# 2. Embed with the default strength (0.05) into the 625 loudest
#    eligible frames.
result = embed(host, watermark, EmbedParams())
print(f"embedding quality: {result.quality}")
print(f"key holds {result.key.frame_indices.size} (frame, singular value) records")

# ------------------------------------------------------------------
# 3. Everything to disk: watermarked WAV, original PBM, key file.
write_wav(workdir / "marked.wav", result.signal)
write_pbm(workdir / "watermark.pbm", watermark)
write_key(workdir / "marked.key", result.key)

# ------------------------------------------------------------------
# 4. Fresh start from the files, as a verifier would.
signal = read_wav(workdir / "marked.wav")
key = read_key(workdir / "marked.key")
recovered = extract(signal, key)
print(f"\nBER after WAV round trip: {ber(watermark, recovered):.4f}")

print("\nrecovered image:")
for row in recovered.grid():
    print("".join("#" if bit else "." for bit in row))
