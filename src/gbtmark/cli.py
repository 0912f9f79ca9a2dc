"""Command-line interface: embed, extract, attack and benchmark."""

import argparse
import functools
import os
import sys
from pathlib import Path

from .attacks import ATTACKS, AttackSpec, CodecCommand
from .benchmark import run_benchmark, report_to_csv, report_to_markdown
from .errors import (AudioFormatError, CodecError, GbtmarkError, KeyFormatError,
                     ValidationError)
from .audio import _frames, _store
from .fileio import (_read_pcm, _staged, _write_pcm, read_key, read_pbm, read_wav,
                     write_key, write_pbm, write_wav)
from .metrics import _embed_psnr, ber, payload
from .transform import GraphConfig
from .watermark import EmbedParams, _mark, _read_bits

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_TOOL = 3

# Exit status per exception type. An error takes the entry of the nearest
# listed class in its MRO, so config, validation and capacity errors, like
# any other GbtmarkError, are usage errors.
_EXIT_CODES = {
    AudioFormatError: EXIT_IO,
    KeyFormatError: EXIT_IO,
    OSError: EXIT_IO,
    CodecError: EXIT_TOOL,
    GbtmarkError: EXIT_USAGE,
}

CODEC_ENCODE_ENV = "GBTMARK_CODEC_ENCODE"
CODEC_DECODE_ENV = "GBTMARK_CODEC_DECODE"


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; the CLI contract
    # reserves 2 for I/O problems and uses 1 for usage
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")

    # a sub-command hands the arguments it does not know up to its parent;
    # refusing them here instead names the sub-command and shows its usage
    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def _add_embed_flags(parser):
    defaults = EmbedParams()
    parser.add_argument("--frame-size", type=int, default=defaults.graph.frame_size,
                        help="samples per frame (default %(default)s)")
    parser.add_argument("--ws", type=float, default=defaults.ws,
                        help="watermark strength (default %(default)s)")
    parser.add_argument("--coeff-fraction", type=float, default=defaults.coeff_fraction,
                        help="fraction of leading coefficients used (default %(default)s)")
    parser.add_argument("--w1", type=float, default=defaults.graph.w1,
                        help="first-neighbour edge weight (default %(default)s)")
    parser.add_argument("--w2", type=float, default=defaults.graph.w2,
                        help="second-neighbour edge weight (default %(default)s)")


def _add_codec_flags(parser):
    parser.add_argument("--codec-encode", default=None,
                        help=f"MP3 encode command template with {{input}} {{output}} "
                             f"{{bitrate}} placeholders (or ${CODEC_ENCODE_ENV})")
    parser.add_argument("--codec-decode", default=None,
                        help=f"MP3 decode command template with {{input}} {{output}} "
                             f"placeholders (or ${CODEC_DECODE_ENV})")


def _params_from(args) -> EmbedParams:
    graph = GraphConfig(frame_size=args.frame_size, w1=args.w1, w2=args.w2)
    return EmbedParams(ws=args.ws, coeff_fraction=args.coeff_fraction, graph=graph)


def _codec_from(args) -> CodecCommand:
    # a given flag wins even when empty; an empty environment variable is unset
    encode = os.environ.get(CODEC_ENCODE_ENV) or CodecCommand.encode_template
    decode = os.environ.get(CODEC_DECODE_ENV) or CodecCommand.decode_template
    return CodecCommand(encode if args.codec_encode is None else args.codec_encode,
                        decode if args.codec_decode is None else args.codec_decode)


def _same_file(path, other) -> bool:
    # existing files by device and inode, which hard links share; two files
    # not made yet by their resolved paths; an existing and a missing never
    try:
        return os.path.samefile(path, other)
    except OSError:
        return not (os.path.exists(path) or os.path.exists(other)) and (
            os.path.realpath(path) == os.path.realpath(other))


def _refuse_overlap(args, output, *others):
    # an output on the path of an input or of another output would destroy
    # that file or lose this one, so it is refused before anything is written
    path = getattr(args, output)
    for name in others:
        other = getattr(args, name)
        if other is not None and _same_file(path, other):
            raise ValidationError(f"{output} {path} is the same file as {name} {other}")


def _cmd_embed(args) -> int:
    _refuse_overlap(args, "out_key", "out_wav", "host", "watermark")
    _refuse_overlap(args, "out_wav", "watermark")
    # no copy of the host: _mark reads a read-only map of its PCM codes (see
    # watermark._leading), the staged WAV is written from that map, and only
    # its keyed frames are then stored, through a map of the staged file
    rate, pcm = _read_pcm(args.host)
    watermark = read_pbm(args.watermark)
    key, host, marked = _mark(pcm, rate, watermark, _params_from(args))
    quality = _embed_psnr(host, marked, len(pcm))
    # the key replaces its target first, and no map is left when out_wav,
    # which may be the host, is replaced
    with _staged(args.out_key, args.out_wav) as (key_path, wav_path):
        write_key(key_path, key)
        _write_pcm(wav_path, rate, pcm)
        _, staged = _read_pcm(wav_path, "r+")
        _store(_frames(staged, args.frame_size), key.frame_indices, marked)
        del pcm, staged
    print(f"psnr: {quality.psnr_db:.2f} dB")
    print(f"payload: {payload(rate, args.frame_size):g} bits/s")
    return EXIT_OK


def _cmd_extract(args) -> int:
    _refuse_overlap(args, "out_pbm", "wav", "key", "reference")
    # the key first: it names the only frames of the WAV that are read
    key = read_key(args.key)
    reference = None if args.reference is None else read_pbm(args.reference)
    recovered = _read_bits(*_read_pcm(args.wav), key)
    # the BER before the write, so a reference of other dimensions writes no file
    report = "" if reference is None else f"ber: {ber(reference, recovered):.6f}\n"
    with _staged(args.out_pbm) as (pbm_path,):
        write_pbm(pbm_path, recovered)
    print(report, end="")
    return EXIT_OK


def _cmd_attack(args) -> int:
    spec = AttackSpec(args.kind, args.parameter, seed=args.seed)
    signal = read_wav(args.wav_in)
    codec = _codec_from(args) if "codec" in ATTACKS[args.kind].extras else None
    # staged first, so a target that cannot be made fails before the attack
    with _staged(args.wav_out) as (wav_path,):
        write_wav(wav_path, spec.apply(signal, codec=codec))
    return EXIT_OK


def _cmd_benchmark(args) -> int:
    _refuse_overlap(args, "out_csv", "watermark")
    for clip in Path(args.corpus_dir).glob("*.wav"):
        if _same_file(args.out_csv, clip):
            raise ValidationError(f"out_csv {args.out_csv} is the same file as {clip}")
    watermark = read_pbm(args.watermark)
    # staged before the grid runs, as in _cmd_attack
    with _staged(args.out_csv) as (csv_path,):
        report = run_benchmark(args.corpus_dir, watermark,
                               params=_params_from(args), seed=args.seed,
                               codec=_codec_from(args))
        Path(csv_path).write_bytes(report_to_csv(report).encode("utf-8"))
    if args.markdown:
        print(report_to_markdown(report), end="")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on first use and then shared: it reads no
    per-call state, so the codec environment is read when a command runs."""
    parser = _Parser(prog="gbtmark",
                     description="Audio watermarking in the singular values of "
                                 "graph-transform coefficients")
    commands = parser.add_subparsers(dest="command", required=True)

    cmd = commands.add_parser("embed", help="embed a PBM image into a WAV")
    cmd.add_argument("host", help="host WAV file (mono PCM16)")
    cmd.add_argument("watermark", help="watermark PBM file (P1)")
    cmd.add_argument("out_wav", help="output watermarked WAV")
    cmd.add_argument("out_key", help="output key file")
    _add_embed_flags(cmd)
    cmd.set_defaults(func=_cmd_embed)

    cmd = commands.add_parser("extract", help="extract a watermark using a key")
    cmd.add_argument("wav", help="watermarked (possibly attacked) WAV file")
    cmd.add_argument("key", help="key file from embedding")
    cmd.add_argument("out_pbm", help="output PBM file")
    cmd.add_argument("--reference", default=None,
                     help="original watermark PBM; prints the BER against it")
    cmd.set_defaults(func=_cmd_extract)

    cmd = commands.add_parser("attack", help="apply one attack to a WAV")
    kinds = cmd.add_subparsers(dest="kind", required=True)
    # one sub-command per kind, taking only its row's option and extras;
    # the seed is 0 wherever no --seed is given
    for kind, attack in ATTACKS.items():
        sub = kinds.add_parser(kind, help=f"--{attack.flag}: {attack.meaning}")
        sub.add_argument("wav_in")
        sub.add_argument("wav_out")
        sub.add_argument(f"--{attack.flag}", dest="parameter", type=attack.type,
                         required=True, metavar=attack.flag.upper(),
                         help=f"{attack.meaning}, {attack.rule}")
        if "seed" in attack.extras:
            sub.add_argument("--seed", type=int, help="noise seed (default 0)")
        if "codec" in attack.extras:
            _add_codec_flags(sub)
        sub.set_defaults(func=_cmd_attack, seed=0)

    cmd = commands.add_parser("benchmark",
                              help="run the full attack grid over a corpus")
    cmd.add_argument("corpus_dir", help="directory of mono PCM16 WAV files")
    cmd.add_argument("watermark", help="watermark PBM file")
    cmd.add_argument("out_csv", help="output CSV path")
    cmd.add_argument("--seed", type=int, default=0, help="awgn noise seed")
    cmd.add_argument("--markdown", action="store_true",
                     help="also print the per-attack means as a markdown table")
    _add_embed_flags(cmd)
    _add_codec_flags(cmd)
    cmd.set_defaults(func=_cmd_benchmark)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (GbtmarkError, OSError) as exc:
        print(f"gbtmark: error: {exc}", file=sys.stderr)
        return next(_EXIT_CODES[cls] for cls in type(exc).__mro__
                    if cls in _EXIT_CODES)


def entry() -> None:
    raise SystemExit(main())
