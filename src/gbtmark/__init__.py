"""Audio watermarking via a graph-based frame transform and SVD.

A binary image is embedded one bit per frame into the largest singular
value of the leading transform coefficients of a host signal's
high-energy frames, and recovered with the key saved at embed time.
"""

from .audio import AudioSignal
from .attacks import AttackSpec, CodecCommand
from .benchmark import (
    DEFAULT_GRID,
    BenchmarkReport,
    BenchmarkRow,
    report_to_csv,
    report_to_markdown,
    run_benchmark,
)
from .errors import (
    AudioFormatError,
    CapacityError,
    CodecError,
    ConfigError,
    GbtmarkError,
    KeyFormatError,
    NumericError,
    ValidationError,
)
from .fileio import (
    read_key,
    read_pbm,
    read_wav,
    write_key,
    write_pbm,
    write_wav,
)
from .metrics import QualityReport, ber, payload, psnr
from .transform import (
    GraphConfig,
    build_adjacency,
    build_laplacian,
    make_plan,
)
from .watermark import (
    EmbeddingKey,
    EmbedParams,
    WatermarkImage,
    WatermarkedResult,
    embed,
    extract,
)

__version__ = "0.1.0"
