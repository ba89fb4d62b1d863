"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 I/O error, 3 numeric/solver failure.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import fileio
from .benchmark import VariantDisagreement, _check_reps, format_table, run_benchmark
from .evaluation import field_difference_stats, landmark_error
from .geometry import Grid3, GridError, Image3, identity_field_array, precision_dtype
from .lbfgs import LbfgsConfig
from .multilevel import MultilevelConfig, RegistrationReport, register
from .ngf import NgfParams
from .parallel import run_planes, workspace
from .transfer import PT_VARIANTS
from .warp import _trilinear_into, warp_image

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_NUMERIC = 3


class _UsageExit(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageExit(message)


def _checked(convert, check):
    """argparse type: the text converted, then passed to check, which raises
    ValueError for a value the program cannot honour. Either failure is a
    usage error that names the flag, raised before any file is read or any
    work is done."""
    def parse(text):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid value {text!r}") from None
        try:
            check(value)
        except ValueError as e:
            raise argparse.ArgumentTypeError(str(e)) from None
        return value
    return parse


def _option(convert, config_cls, field: str, many: bool = False):
    """argparse type of an option that config_cls holds in `field`, checked by
    that class; with many, a comma-separated list of such values."""
    if many:
        return _checked(lambda text: [convert(v.strip()) for v in text.split(",")],
                        lambda values: [config_cls(**{field: v}) for v in values])
    return _checked(convert, lambda value: config_cls(**{field: value}))


def _dims(text: str) -> tuple[int, int, int]:
    nx, ny, nz = (int(v) for v in text.replace("x", ",").split(","))  # ValueError unless 3
    return nx, ny, nz


def _levels(text: str):
    return None if text == "auto" else int(text)


def _build_parser() -> _Parser:
    p = _Parser(prog="ngfreg", description="Matrix-free variational deformable 3D registration")
    sub = p.add_subparsers(dest="command", required=True)

    reg = sub.add_parser("register", help="register a template volume to a reference volume")
    reg.add_argument("--reference", required=True)
    reg.add_argument("--template", required=True)
    reg.add_argument("--out-deformation", required=True)
    reg.add_argument("--out-warped")
    reg.add_argument("--alpha", type=_option(float, MultilevelConfig, "alpha"), default=1.0)
    reg.add_argument("--tau", type=_option(float, NgfParams, "tau"), default=10.0)
    reg.add_argument("--rho", type=_option(float, NgfParams, "rho"), default=10.0)
    reg.add_argument("--levels", type=_option(_levels, MultilevelConfig, "num_levels"),
                     default=None, help="number of levels or 'auto' (the default)")
    reg.add_argument("--grid-ratio", type=_option(int, MultilevelConfig, "grid_ratio"), default=4)
    reg.add_argument("--precision", choices=("f32", "f64"), default="f64")
    reg.add_argument("--threads", type=_option(int, MultilevelConfig, "workers"), default=1)
    reg.add_argument("--pt-variant", choices=PT_VARIANTS, default="gather")
    reg.add_argument("--max-iter", type=_option(int, LbfgsConfig, "max_iterations"), default=100)
    reg.add_argument("--report", help="write a structured text report of traces/timings")

    warp = sub.add_parser("warp", help="apply a stored deformation to a volume")
    warp.add_argument("--template", required=True)
    warp.add_argument("--deformation", required=True)
    warp.add_argument("--out", required=True)
    warp.add_argument("--reference", help="reference volume for an optional difference image")
    warp.add_argument("--out-difference", help="write warped-minus-reference volume")

    ev = sub.add_parser("evaluate", help="landmark error of a stored deformation")
    ev.add_argument("--deformation", required=True)
    ev.add_argument("--landmarks-ref", required=True)
    ev.add_argument("--landmarks-template", required=True)
    ev.add_argument("--image-grid-from", required=True, help="volume donating the image grid")
    ev.add_argument("--frame", choices=("index1", "index0", "world"), required=True)
    ev.add_argument("--out-per-landmark", help="write per-landmark errors to a file")
    ev.add_argument("--compare-deformation",
                    help="second deformation: report field difference statistics")

    bm = sub.add_parser("benchmark", help="time grid-transfer variants and the pipeline")
    bm.add_argument("--dims", type=_checked(_dims, lambda d: Grid3(d, (1.0,) * 3, (0.0,) * 3)),
                    default="64,64,64")
    bm.add_argument("--threads", type=_option(int, MultilevelConfig, "workers", many=True),
                    default=None,
                    help="comma-separated worker counts (default: 1 and the number of cores)")
    bm.add_argument("--precision", type=_option(str, MultilevelConfig, "precision", many=True),
                    default="f64", help="comma-separated: f32,f64")
    bm.add_argument("--pt-variant", type=_option(str, MultilevelConfig, "pt_variant", many=True),
                    default="gather,scatter,redblack")
    bm.add_argument("--reps", type=_checked(int, _check_reps), default=3)
    bm.add_argument("--out", help="write the table to a file instead of stdout")

    rs = sub.add_parser("resample", help="resample a volume onto another volume's grid")
    rs.add_argument("--input", required=True)
    rs.add_argument("--like", required=True)
    rs.add_argument("--out", required=True)
    return p


def _write_report(path: str, report: RegistrationReport) -> None:
    lines = [
        f"seconds_total = {report.seconds_total:.6f}",
        f"seconds_pyramid = {report.seconds_pyramid:.6f}",
        f"final_grad_inf = {report.final_grad_inf:.6e}",
        f"levels = {len(report.levels)}",
    ]
    for lv in report.levels:
        lines += [
            "",
            f"[level {lv.level_index}]",
            f"image_dims = {lv.image_dims[0]} {lv.image_dims[1]} {lv.image_dims[2]}",
            f"def_dims = {lv.def_dims[0]} {lv.def_dims[1]} {lv.def_dims[2]}",
            f"iterations = {lv.iterations}",
            f"evaluations = {lv.evaluations}",
            f"stop_reason = {lv.stop_reason}",
            f"line_search_failed = {lv.line_search_failed}",
            f"min_det = {lv.min_det:.6f}",
            f"seconds_setup = {lv.seconds_setup:.6f}",
            f"seconds_optimize = {lv.seconds_optimize:.6f}",
            f"seconds_distance = {lv.seconds_distance:.6f}",
            f"seconds_curvature = {lv.seconds_curvature:.6f}",
            "iter\tJ\tD\tS\tgrad_inf\tstep\tls_evals",
        ]
        for rec, (J, D, S) in zip(lv.records, lv.J_trace):
            lines.append(
                f"{rec.iteration}\t{J:.10e}\t{D:.10e}\t{S:.10e}\t"
                f"{rec.grad_inf:.6e}\t{rec.step:.3e}\t{rec.ls_evals}"
            )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _cmd_register(args) -> int:
    try:
        cfg = MultilevelConfig(
            num_levels=args.levels,
            grid_ratio=args.grid_ratio,
            alpha=args.alpha,
            ngf=NgfParams(tau=args.tau, rho=args.rho),
            lbfgs=LbfgsConfig(max_iterations=args.max_iter),
            precision=args.precision,
            workers=args.threads,
            pt_variant=args.pt_variant,
        )
    except ValueError as e:
        raise _UsageExit(str(e)) from None
    dtype = precision_dtype(cfg.precision)
    R = fileio.read_volume(args.reference, promote_dtype=dtype)
    T = fileio.read_volume(args.template, promote_dtype=dtype)
    y, report = register(R, T, cfg)
    fileio.write_deformation(y, args.out_deformation)
    if args.out_warped:
        fileio.write_volume(warp_image(T, y, cfg.workers), args.out_warped)
    if args.report:
        _write_report(args.report, report)
    print(f"registered {args.template} -> {args.reference}: "
          f"{len(report.levels)} levels, {report.seconds_total:.2f} s, "
          f"final |grad|_inf = {report.final_grad_inf:.3e}")
    return EXIT_OK


def _cmd_warp(args) -> int:
    if args.out_difference and not args.reference:
        raise _UsageExit("--out-difference requires --reference")
    T = fileio.read_volume(args.template)
    y = fileio.read_deformation(args.deformation)
    if args.out_difference:  # read and check it before any output is written
        ref = fileio.read_volume(args.reference)
        if ref.grid != T.grid:
            raise GridError("reference grid does not match the warped output grid")
    # the deformation may live on a coarser grid; P is the identity when grids match
    warped = warp_image(T, y)
    fileio.write_volume(warped, args.out)
    if args.out_difference:
        fileio.write_volume(Image3(warped.grid, warped.values - ref.values),
                            args.out_difference)
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    y = fileio.read_deformation(args.deformation)
    donor = fileio.read_volume(args.image_grid_from)
    lm_ref = fileio.read_landmarks(args.landmarks_ref, args.frame, donor.grid)
    lm_tmpl = fileio.read_landmarks(args.landmarks_template, args.frame, donor.grid)
    res = landmark_error(y, lm_ref, lm_tmpl, donor.grid)
    print(f"landmark error: {res.mean_mm:.4f} +/- {res.stddev_mm:.4f} mm "
          f"over {lm_ref.count} landmarks")
    if int(res.outside_domain.sum()):
        print(f"warning: {int(res.outside_domain.sum())} reference landmarks "
              "outside the image domain (evaluated with clamping)")
    per_lines = [f"{v:.6f}" for v in res.per_landmark_mm]
    if args.out_per_landmark:
        with open(args.out_per_landmark, "w") as fh:
            fh.write("\n".join(per_lines) + "\n")
    else:
        for line in per_lines:
            print(line)
    if args.compare_deformation:
        other = fileio.read_deformation(args.compare_deformation)
        dmax, dmean, _ = field_difference_stats(y, other)
        print(f"field difference vs {args.compare_deformation}: "
              f"max {dmax:.6e} mm, mean {dmean:.6e} mm")
    return EXIT_OK


def _cmd_benchmark(args) -> int:
    records = run_benchmark(dims=args.dims, workers_list=args.threads, precisions=args.precision,
                            variants=args.pt_variant, reps=args.reps)
    table = format_table(records)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(table + "\n")
    else:
        print(table)
    return EXIT_OK


def _cmd_resample(args) -> int:
    src = fileio.read_volume(args.input)
    like = fileio.read_volume(args.like)
    # clamp-to-edge resampling at the cell centres of like, per chunk of z-planes
    pos = identity_field_array(like.grid, src.values.dtype)
    flat = src.values.ravel()
    out = np.empty(like.grid.shape, dtype=pos.dtype)

    def do_chunk(k0, k1):
        with workspace().frame() as ws:
            _trilinear_into(flat, src.grid, pos[:, k0:k1], out[k0:k1], None, ws)

    run_planes(do_chunk, like.grid.shape[0], pos[0, 0].size, 1)
    fileio.write_volume(Image3(like.grid, out), args.out)
    return EXIT_OK


_COMMANDS = {
    "register": _cmd_register,
    "warp": _cmd_warp,
    "evaluate": _cmd_evaluate,
    "benchmark": _cmd_benchmark,
    "resample": _cmd_resample,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageExit as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except _UsageExit as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (fileio.MetaImageError, fileio.LandmarkFileError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO
    except (VariantDisagreement, FloatingPointError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
