"""Command-line entry points.

    lplab run <config.json> --out DIR        run a verification scenario
    lplab kernels list                       list the builtin kernel catalog
    lplab calderon build --kernel NAME --b B emit the partition report
    lplab constants report --phi .. --psi .. emit condition verdicts + C(j) CSV
    lplab maximal --op {peetre,hl,grand}     apply a maximal operator to a field
    lplab transform g --kernel NAME --q Q    apply a square function to a field

Exit status: 0 on pass, 1 when a scenario's acceptance bound fails, 2 on
bad input (invalid configs or options, missing or malformed field files,
an input or output path that cannot be read or written).  Each command
raises ``ConfigError`` for bad input; ``main`` alone turns it, or an
``OSError``, into ``config error: ...`` and exit 2.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import io as lpio
from .calderon import build_partition, find_intervals, reproduction_residual
from .constants import c_const
from .experiments import (
    CONSTANTS_GRID,
    ConfigError,
    ExperimentConfig,
    constants_audit,
    emit_report,
    resolve_kernel,
    run_experiment,
)
from .fields import ScaleGrid
from .kernels import CATALOG
from .maximal import (
    GrandMaxConfig,
    PeetreParams,
    default_grand_scales,
    grand_max,
    hl_max,
    peetre_max,
)
from .transforms import g_function


def _cmd_run(args) -> int:
    report = run_experiment(ExperimentConfig.from_json(args.config))
    emit_report(report, args.out)
    status = "PASS" if report.passed else "FAIL"
    print(f"{status} {report.scenario}: {report.criterion}")
    for r in report.rows:
        print(f"  {r['fname']}: lhs={r['lhs']:.6g} rhs={r['rhs']:.6g} ratio={r['ratio']:.6g}")
    return 0 if report.passed else 1


def _cmd_kernels_list(args) -> int:
    for name, entry in CATALOG.items():
        print(f"{name:14s} {entry.description}")
    return 0


def _cmd_calderon_build(args) -> int:
    phi = resolve_kernel(args.kernel, args.params)
    try:
        cover = find_intervals(phi)
        b = args.b if args.b is not None else max(0.5, cover.b0)
        P = build_partition(phi, b, cover)
    except ValueError as exc:  # a kernel without a cover, or b outside [b0, 1)
        raise ConfigError(str(exc)) from exc
    residual = reproduction_residual(P)
    out = lpio.ensure_dir(args.out)
    report = {
        "kernel": args.kernel,
        "b": b,
        "b0": P.b0,
        "intervals": [list(iv) for iv in P.intervals],
        "r1": P.r1,
        "r2": P.r2,
        "reproducing_residual": residual,
    }
    lpio.write_json(out / "partition.json", report)
    radii = np.exp(np.linspace(math.log(P.r1 / 2.0), math.log(2.0 * P.r2), 512))
    eta = P.eta_symbol(radii[np.newaxis, :])
    with open(out / "eta_ray.csv", "w") as fh:
        fh.write("radius,re,im\n")
        for r, v in zip(radii, eta):
            fh.write(f"{float(r)!r},{float(v.real)!r},{float(v.imag)!r}\n")
    print(f"partition: b0={P.b0:.6g} r1={P.r1:.6g} r2={P.r2:.6g} residual={residual:.3e}")
    return 0


def _cmd_constants_report(args) -> int:
    if not 0 <= args.L < math.inf:
        raise ConfigError(f"L must be nonnegative and finite, got {args.L}")
    cfg = ExperimentConfig.from_dict({"scenario": "constants_audit", "N": args.N,
                                      "phi": {"name": args.phi}, "psi": {"name": args.psi}})
    _, psi, P, A, _, report = constants_audit(cfg)
    out = lpio.ensure_dir(args.out)
    verdicts = report.condition_verdicts
    payload = {
        "phi": args.phi,
        "psi": args.psi,
        "N": args.N,
        "L": args.L,
        "A": A,
        "tau_fit": verdicts["psi_scale_sum"].measured,
        "d_value": verdicts["psi_multiplier_tail"].measured,
        "verdicts": {
            k: {"passed": v.passed, "measured": v.measured, "description": v.description}
            for k, v in verdicts.items()
        },
    }
    lpio.write_json(out / "conditions.json", payload)
    with open(out / "c_values.csv", "w") as fh:
        fh.write("j,c\n")
        for j in sorted(report.c_values):  # the box's estimate, reliable or not
            fh.write(f"{j},{c_const(P, psi, j, args.L, CONSTANTS_GRID).value!r}\n")
    for k, v in verdicts.items():
        print(f"{'PASS' if v.passed else 'FAIL'} {k}: {v.measured:.6g}")
    return 0 if report.all_passed else 1


def _write_result(args, result, label: str) -> int:
    """Write ``result`` to ``--out`` (and ``--csv``) and print the summary line."""
    lpio.write_field(args.outfile, result)
    if args.csv:
        lpio.field_to_csv(args.csv, result)
    print(f"{label}: wrote {args.outfile}")
    return 0


def _cmd_maximal(args) -> int:
    try:  # every option is checked, whichever op it serves
        f = lpio.read_field(args.infile)
        params = PeetreParams(args.N, args.R)
        scales = default_grand_scales(f.grid, args.scale_count)
        gm_cfg = GrandMaxConfig(scales)
    except ValueError as exc:  # a malformed field file, or a bad option
        raise ConfigError(str(exc)) from exc
    if args.op == "peetre":
        result = peetre_max(f, params)
    elif args.op == "hl":
        result = hl_max(f)
    else:
        result = grand_max(f, gm_cfg)
    return _write_result(args, result, args.op)


def _cmd_transform_g(args) -> int:
    psi = resolve_kernel(args.kernel, args.params)
    if not 0 < args.q < math.inf:
        raise ConfigError(f"q must be positive and finite, got {args.q}")
    if not (math.isfinite(args.t_min) and math.isfinite(args.t_max)):
        raise ConfigError(f"t-min and t-max must be finite, got {args.t_min}, {args.t_max}")
    try:
        f = lpio.read_field(args.infile)
        scales = ScaleGrid.log_spaced(args.t_min, args.t_max, args.scale_count)
    except ValueError as exc:  # a malformed field file, or a bad scale option
        raise ConfigError(str(exc)) from exc
    return _write_result(args, g_function(f, psi, scales, args.q), f"g[{args.kernel}, q={args.q}]")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # an unknown or malformed option is bad input
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="lplab", description=__doc__,
                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a verification scenario from a JSON config")
    p_run.add_argument("config", type=Path)
    p_run.add_argument("--out", type=Path, default=Path("lplab-out"))
    p_run.set_defaults(func=_cmd_run)

    p_k = sub.add_parser("kernels", help="kernel catalog")
    sub_k = p_k.add_subparsers(dest="kernels_command", required=True)
    p_kl = sub_k.add_parser("list", help="list builtin kernels")
    p_kl.set_defaults(func=_cmd_kernels_list)

    p_c = sub.add_parser("calderon", help="reproducing partition tools")
    sub_c = p_c.add_subparsers(dest="calderon_command", required=True)
    p_cb = sub_c.add_parser("build", help="build a partition and report residuals")
    p_cb.add_argument("--kernel", default="poissonQ")
    p_cb.add_argument("--params", type=float, nargs="*", default=None)
    p_cb.add_argument("--b", type=float, default=None)
    p_cb.add_argument("--out", type=Path, default=Path("lplab-out"))
    p_cb.set_defaults(func=_cmd_calderon_build)

    p_n = sub.add_parser("constants", help="scale-calculus constants")
    sub_n = p_n.add_subparsers(dest="constants_command", required=True)
    p_nr = sub_n.add_parser("report", help="condition verdicts and C(psi, j, L) profile")
    p_nr.add_argument("--phi", default="poissonQ")
    p_nr.add_argument("--psi", default="annulus_bump")
    p_nr.add_argument("--N", type=float, default=2.0)
    p_nr.add_argument("--L", type=float, default=2.0)
    p_nr.add_argument("--out", type=Path, default=Path("lplab-out"))
    p_nr.set_defaults(func=_cmd_constants_report)

    p_m = sub.add_parser("maximal", help="apply a maximal operator to a stored field")
    p_m.add_argument("--op", choices=("peetre", "hl", "grand"), required=True)
    p_m.add_argument("--in", dest="infile", type=Path, required=True)
    p_m.add_argument("--out", dest="outfile", type=Path, required=True)
    p_m.add_argument("--csv", type=Path, default=None)
    p_m.add_argument("--N", type=float, default=2.0)
    p_m.add_argument("--R", type=float, default=1.0)
    p_m.add_argument("--scale-count", type=int, default=64)
    p_m.set_defaults(func=_cmd_maximal)

    p_t = sub.add_parser("transform", help="square functions on stored fields")
    sub_t = p_t.add_subparsers(dest="transform_command", required=True)
    p_tg = sub_t.add_parser("g", help="apply the q-square function")
    p_tg.add_argument("--kernel", default="poissonQ")
    p_tg.add_argument("--params", type=float, nargs="*", default=None)
    p_tg.add_argument("--q", type=float, default=2.0)
    p_tg.add_argument("--in", dest="infile", type=Path, required=True)
    p_tg.add_argument("--out", dest="outfile", type=Path, required=True)
    p_tg.add_argument("--csv", type=Path, default=None)
    p_tg.add_argument("--t-min", type=float, default=1e-4)
    p_tg.add_argument("--t-max", type=float, default=1e2)
    p_tg.add_argument("--scale-count", type=int, default=128)
    p_tg.set_defaults(func=_cmd_transform_g)

    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ConfigError, OSError) as exc:  # bad input, or a path that cannot be read or written
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
