"""How much abuse can the watermark take?

Embeds once, then runs every attack of the evaluation grid against the
watermarked clip and prints the resulting bit error rates. Zero means
the image came back perfectly; 0.5 means the channel is destroyed.
"""

import numpy as np

from gbtmark import DEFAULT_GRID, EmbedParams, WatermarkImage, ber, embed, extract
from gbtmark.attacks import ATTACKS
from gbtmark.synth import speech_like

host = speech_like(duration_s=3.0, sample_rate=8000, seed=7)
rng = np.random.default_rng(1)
watermark = WatermarkImage(25, 25, rng.integers(0, 2, 625))
result = embed(host, watermark, EmbedParams())

print(f"{'attack':<28} {'BER':>8}")
print("-" * 37)
for kind, spec in DEFAULT_GRID:
    if spec is None:
        label, attacked = "no attack", result.signal
    elif "codec" in ATTACKS[kind].extras:
        continue  # mp3 needs an external codec; see the benchmark demo
    else:
        label = f"{kind} {ATTACKS[kind].flag}={spec.parameter:g}"
        attacked = spec.apply(result.signal)
    error = ber(watermark, extract(attacked, result.key))
    print(f"{label:<28} {error:8.4f}")

print("""
Notes: amplitude scaling rescales every singular value, so the stored
references no longer split ones from zeros -- the known weak spot of
this scheme. Cropping shifts the frame grid, which the non-blind key
cannot re-align. MP3 needs an external codec; see the benchmark demo.
""")
