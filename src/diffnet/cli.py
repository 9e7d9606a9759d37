"""Command-line front end.

Subcommands: run | grad | fdcheck | trace | optimize-toll | spsa-toll.
All file outputs are written atomically (temp file + rename) as CSV with a
single version header line; every subcommand prints a one-line summary
with the objective value and wall time.

Exit codes: 0 success; 1 usage or scenario error (including an empty
parameter set and malformed parameter tokens, objective or trip specs); 2
runtime error (numeric failure, unreachable or unfinished trip); 3 I/O error.
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


class UsageError(Exception):
    """A command line the parser rejects (exit 1, like a scenario error)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


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


def cli_parameters(scn: Scenario, spec: str | None):
    """The parameters `--params` selects; an empty set is a scenario error."""
    ps = register_parameters(scn, spec or "")
    if not len(ps):
        given = "no --params given" if spec is None else f"--params {spec!r}"
        raise ScenarioError(f"empty parameter set: {given} selects nothing")
    return ps


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
    ps = cli_parameters(scn, args.params)
    t0 = time.perf_counter()
    rep = grad(build_objective(args.objective, lam=args.lam), scn, ps)
    write_csv(os.path.join(args.out, "gradient.csv"), gradient_rows(rep),
              ["parameter", "ad"])
    print(f"grad: {args.objective}={rep.objective:.3f} "
          f"wall={time.perf_counter()-t0:.2f}s")
    return 0


def cmd_fdcheck(args) -> int:
    scn = load_scenario(args.scenario, args)
    ps = cli_parameters(scn, args.params)
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


def _optimize(args, label, optimizer, config_cls, **settings) -> int:
    """Toll design on toll-J into trace.csv and tolls.csv.  Bad optimizer
    settings are scenario errors (exit 1), like a malformed objective."""
    try:
        cfg = config_cls(**settings)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from None
    scn = load_scenario(args.scenario, args)
    ps = cli_parameters(scn, args.params)
    t0 = time.perf_counter()
    trace = optimizer(build_objective("toll-J", lam=args.lam), scn, ps,
                      config=cfg)
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
    return 0


def cmd_optimize_toll(args) -> int:
    return _optimize(args, "optimize-toll", adam_optimize, AdamConfig,
                     iters=args.iters)


def cmd_spsa_toll(args) -> int:
    return _optimize(args, "spsa-toll", spsa_optimize, SPSAConfig,
                     iters=args.iters, seed=args.seed)


# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="diffnet",
        description="differentiable macroscopic traffic simulation",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, func, summary, objective=True, lam=True):
        """A subcommand; --objective and --lambda only where it reads them."""
        sp = sub.add_parser(name, help=summary)
        sp.add_argument("scenario")
        sp.add_argument("--out", default="out")
        sp.add_argument("--mu", type=float, default=None)
        sp.add_argument("--segments", type=int, default=None)
        if objective:
            sp.add_argument("--objective", default="ttt")
        if lam:
            sp.add_argument("--lambda", dest="lam", type=float, default=0.0)
        sp.set_defaults(func=func)
        return sp

    command("run", cmd_run, "forward run, link time series + summary")
    sp = command("grad", cmd_grad, "AD gradient report")
    sp.add_argument("--params")
    sp = command("fdcheck", cmd_fdcheck, "central finite-difference table")
    sp.add_argument("--params")
    sp.add_argument("--eps", default="1e-1,1e-2,1e-3,1e-4,1e-5")
    sp = command("trace", cmd_trace, "virtual-vehicle trajectories",
                 objective=False, lam=False)
    sp.add_argument("--trip", action="append", required=True,
                    metavar="T0:ORIGIN:DEST")
    sp = command("optimize-toll", cmd_optimize_toll, "Adam toll optimization",
                 objective=False)
    sp.add_argument("--params", default="toll:*")
    sp.add_argument("--iters", type=int, default=300)
    sp = command("spsa-toll", cmd_spsa_toll, "SPSA toll optimization",
                 objective=False)
    sp.add_argument("--params", default="toll:*")
    sp.add_argument("--iters", type=int, default=300)
    sp.add_argument("--seed", type=int, default=0)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
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
