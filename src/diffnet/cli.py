"""Command-line front end.

Subcommands: run | grad | fdcheck | trace | optimize-toll | spsa-toll.
All file outputs are written atomically (temp file + rename) as CSV with a
single version header line; every subcommand prints a one-line summary
with the objective value and wall time.

Exit codes: 0 success; 1 scenario/validation error, including malformed
parameter tokens and objective or trip specs; 2 runtime error in the
simulation (numeric failure, unreachable or unfinished trip); 3 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import os
import sys
import tempfile
import time

from . import __version__
from .adcore import value
from .engine import EngineError, Simulator, build_objective, parse_trip
from .ltm import fd_speed
from .optimize import (
    AdamConfig,
    SPSAConfig,
    adam_optimize,
    fd_check,
    grad,
    spsa_optimize,
)
from .scenario import Scenario, ScenarioError, register_parameters

HEADER = f"# diffnet {__version__}"


# ----------------------------------------------------------------------
# atomic CSV output


def write_csv(path: str, rows, fieldnames) -> None:
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as f:
            f.write(HEADER + "\n")
            w = csv.DictWriter(f, fieldnames=fieldnames)
            w.writeheader()
            for r in rows:
                w.writerow(r)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ----------------------------------------------------------------------
# helpers


def load_scenario(path: str, args) -> Scenario:
    scn = Scenario.load(path)
    cfg = scn.config
    updates = {}
    if getattr(args, "mu", None) is not None:
        updates["mu"] = args.mu
    if getattr(args, "segments", None) is not None:
        updates["M"] = args.segments
        updates["tt_method"] = "segments"
    if updates:
        scn = dataclasses.replace(scn, config=dataclasses.replace(cfg, **updates))
        scn.validate()
    return scn


def link_series_rows(result):
    dt = result.config.dt
    for lid, lk in result.links.items():
        d = value(lk.d)
        for t in range(result.config.n_steps + 1):
            nu, nd = value(lk.NU[t]), value(lk.ND[t])
            k = max(nu - nd, 0.0) / d
            v = value(
                fd_speed(result.tape, value(lk.u), value(lk.w),
                         value(lk.kappa), k)
            )
            yield {
                "t": t * dt,
                "link": lid,
                "N_up": f"{nu:.6f}",
                "N_down": f"{nd:.6f}",
                "density_avg": f"{k:.8f}",
                "speed_avg": f"{v:.6f}",
            }


def gradient_rows(report):
    eps_list = sorted(report.fd, reverse=True)
    for name, ad, fd in report.rows():
        row = {"parameter": name}
        if ad is not None:
            row["ad"] = f"{ad:.6f}"
        for e in eps_list:
            row[f"fd_{e:g}"] = f"{fd[e]:.6f}"
        yield row


# ----------------------------------------------------------------------
# subcommands


def cmd_run(args) -> int:
    scn = load_scenario(args.scenario, args)
    objective = build_objective(args.objective, lam=args.lam)
    t0 = time.perf_counter()
    sim = Simulator(scn, grad=False)
    res = sim.run()
    J = value(objective(res))
    write_csv(os.path.join(args.out, "links.csv"), link_series_rows(res),
              ["t", "link", "N_up", "N_down", "density_avg", "speed_avg"])
    write_csv(os.path.join(args.out, "summary.csv"),
              [{"objective": args.objective, "value": f"{J:.6f}"}],
              ["objective", "value"])
    print(f"run: {args.objective}={J:.3f} wall={time.perf_counter()-t0:.2f}s")
    return 0


def cmd_grad(args) -> int:
    scn = load_scenario(args.scenario, args)
    ps = register_parameters(scn, args.params)
    t0 = time.perf_counter()
    rep = grad(build_objective(args.objective, lam=args.lam), scn, ps)
    write_csv(os.path.join(args.out, "gradient.csv"), gradient_rows(rep),
              ["parameter", "ad"])
    print(f"grad: {args.objective}={rep.objective:.3f} "
          f"wall={time.perf_counter()-t0:.2f}s")
    return 0


def cmd_fdcheck(args) -> int:
    scn = load_scenario(args.scenario, args)
    ps = register_parameters(scn, args.params)
    try:
        eps_list = [float(e) for e in args.eps.split(",")]
    except ValueError:
        raise ScenarioError(f"malformed --eps {args.eps!r}: expected numbers") from None
    t0 = time.perf_counter()
    rep = fd_check(build_objective(args.objective, lam=args.lam), scn, ps,
                   eps_list=eps_list)
    fields = ["parameter", "ad"] + [f"fd_{e:g}" for e in
                                    sorted(eps_list, reverse=True)]
    write_csv(os.path.join(args.out, "fdcheck.csv"), gradient_rows(rep), fields)
    print(f"fdcheck: {args.objective}={rep.objective:.3f} "
          f"wall={time.perf_counter()-t0:.2f}s")
    return 0


def cmd_trace(args) -> int:
    scn = load_scenario(args.scenario, args)
    trips = [parse_trip(spec) for spec in args.trip]
    t0 = time.perf_counter()
    sim = Simulator(scn, grad=False)
    res = sim.run()
    rows = []
    for i, (dep, orig, dest) in enumerate(trips):
        tr = res.trace_trip(dep, orig, dest)
        for lid, ex in zip(tr.links, tr.exit_times):
            rows.append({
                "trip": i, "t0": tr.t0, "origin": tr.origin,
                "destination": tr.destination, "link": lid,
                "t_exit": f"{value(ex):.3f}",
            })
    write_csv(os.path.join(args.out, "trajectories.csv"), rows,
              ["trip", "t0", "origin", "destination", "link", "t_exit"])
    print(f"trace: {len(args.trip)} trip(s) "
          f"wall={time.perf_counter()-t0:.2f}s")
    return 0


def _write_opt_outputs(args, trace, label, t0):
    write_csv(
        os.path.join(args.out, "trace.csv"),
        ({"iteration": r["iteration"], "J": f"{r['J']:.6f}",
          "grad_norm": f"{r['grad_norm']:.6f}", "wall": f"{r['wall']:.4f}"}
         for r in trace.records),
        ["iteration", "J", "grad_norm", "wall"],
    )
    write_csv(
        os.path.join(args.out, "tolls.csv"),
        ({"parameter": n, "value": f"{v:.6f}"}
         for n, v in zip(trace.names, trace.theta)),
        ["parameter", "value"],
    )
    print(f"{label}: J={trace.records[-1]['J']:.3f} "
          f"wall={time.perf_counter()-t0:.2f}s")


def _optimizer_config(cls, **settings):
    """Optimizer settings from the command line; a bad value is a usage
    error (exit 1), like a malformed trip spec or objective."""
    try:
        return cls(**settings)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from None


def cmd_optimize_toll(args) -> int:
    cfg = _optimizer_config(AdamConfig, iters=args.iters)
    scn = load_scenario(args.scenario, args)
    ps = register_parameters(scn, args.params or "toll:*")
    t0 = time.perf_counter()
    trace = adam_optimize(build_objective("toll-J", lam=args.lam), scn, ps,
                          config=cfg)
    _write_opt_outputs(args, trace, "optimize-toll", t0)
    return 0


def cmd_spsa_toll(args) -> int:
    cfg = _optimizer_config(SPSAConfig, iters=args.iters, seed=args.seed)
    scn = load_scenario(args.scenario, args)
    ps = register_parameters(scn, args.params or "toll:*")
    t0 = time.perf_counter()
    trace = spsa_optimize(build_objective("toll-J", lam=args.lam), scn, ps,
                          config=cfg)
    _write_opt_outputs(args, trace, "spsa-toll", t0)
    return 0


# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="diffnet",
        description="differentiable macroscopic traffic simulation",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, params=True):
        sp.add_argument("scenario")
        sp.add_argument("--out", default="out")
        sp.add_argument("--objective", default="ttt")
        sp.add_argument("--mu", type=float, default=None)
        sp.add_argument("--segments", type=int, default=None)
        sp.add_argument("--lambda", dest="lam", type=float, default=0.0)
        if params:
            sp.add_argument("--params", default=None)

    sp = sub.add_parser("run", help="forward run, link time series + summary")
    common(sp, params=False)
    sp.set_defaults(func=cmd_run)

    sp = sub.add_parser("grad", help="AD gradient report")
    common(sp)
    sp.set_defaults(func=cmd_grad)

    sp = sub.add_parser("fdcheck", help="central finite-difference table")
    common(sp)
    sp.add_argument("--eps", default="1e-1,1e-2,1e-3,1e-4,1e-5")
    sp.set_defaults(func=cmd_fdcheck)

    sp = sub.add_parser("trace", help="virtual-vehicle trajectories")
    common(sp, params=False)
    sp.add_argument("--trip", action="append", required=True,
                    metavar="T0:ORIGIN:DEST")
    sp.set_defaults(func=cmd_trace)

    sp = sub.add_parser("optimize-toll", help="Adam toll optimization")
    common(sp)
    sp.add_argument("--iters", type=int, default=300)
    sp.set_defaults(func=cmd_optimize_toll)

    sp = sub.add_parser("spsa-toll", help="SPSA toll optimization")
    common(sp)
    sp.add_argument("--iters", type=int, default=300)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=cmd_spsa_toll)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except (EngineError, ArithmeticError, ValueError, RuntimeError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
