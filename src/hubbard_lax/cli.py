"""Command-line front end.

Subcommands: verify, ness, oracle, observe, commute, sweep. Every command
writes machine-readable JSON (and CSV where appropriate) into an output
directory and echoes the main JSON document to stdout. Outputs embed the full
parameter set, seed, cutoff, tolerance, and a schema_version field; identical
inputs produce bit-identical outputs.

Config precedence: command-line flags override entries of a JSON config file
(--config), which may set only its subcommand's options;
built-in defaults fill the rest (tol 1e-10, seed 42, rates 1, potentials 0).
A flag's text and a config value are parsed alike, and a bad one is refused
with exit status 2. The steady-state cutoff is not an input: the chain length
fixes it.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import itertools
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .algebra_verifier import check_xk_structure, sample_params, verify_family, verify_suite
from .lindblad_oracle import fixed_point_oracle, fixed_point_residual
from .ness_engine import (
    DrivingConfig,
    build_double_lax,
    build_ness,
    check_boundary_conditions,
    check_telescoping,
    dump_rho,
    map_driving_to_params,
    ness_family,
    require_dense,
    state_passed,
)
from .observables import (
    UNIFORMITY_TOL,
    cosine_profile_fit,
    current_series,
    current_uniformity,
    profile_and_currents_mpo,
    scaling_fit,
)
from .transfer_commutativity import check_commutativity, sample_pairs

SCHEMA_VERSION = 3
DEFAULTS = {"tol": 1e-10, "seed": 42, "gammaL": 1.0, "gammaR": 1.0, "muL": 0.0, "muR": 0.0}
RATES = ("gammaL", "gammaR", "muL", "muR")


def _json_default(obj):
    """json.dumps hook: numpy scalars as Python ones, complex numbers as [re, im]."""
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _emit(args, doc: dict, passed: bool) -> int:
    """Stamp doc with the schema version and the command, write it to
    <command>.json under --out, echo it, and return the exit status: 0 when
    passed, 1 when not."""
    doc = {"schema_version": SCHEMA_VERSION, "command": args.command, **doc}
    text = json.dumps(doc, sort_keys=True, indent=2, default=_json_default)
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, f"{args.command}.json"), "w") as fh:
        fh.write(text + "\n")
    print(text)
    return 0 if passed else 1


def _merged(args, key, default=None):
    """flag > config file (main merges it into args) > default."""
    val = getattr(args, key, None)
    return DEFAULTS.get(key, default) if val is None else val


# Every option value, a flag's text and a config file's JSON value alike, is
# parsed by _real, _whole or _switch (directly, or through _values and _tol)
# and refused there as "<key> must be ...": the flags carry no argparse type.

def _real(raw, what: str) -> float:
    """A real option value; text that is not a number or holds a digit-group
    underscore (1_0), and a config list, object or boolean, are refused."""
    if not isinstance(raw, bool) and isinstance(raw, (int, float, str)) and "_" not in str(raw):
        try:
            return float(raw)
        except ValueError:
            pass
    raise ValueError(f"{what} must be a number, got {raw!r}")


def _values(args, key, default, parse=_real):
    """A comma-separated flag, or a config list or scalar, as values parsed
    by parse(value, key)."""
    raw = _merged(args, key, default)
    if isinstance(raw, str):
        raw = raw.split(",")
    return [parse(x, key) for x in (raw if isinstance(raw, (list, tuple)) else [raw])]


def _tol(args) -> float:
    """The gate tolerance; inf or nan would pass every gate, and 0 or less none."""
    tol = _real(_merged(args, "tol"), "tol")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    return tol


def _whole(raw, what: str) -> int:
    """The integer option `what`, exactly as given: 2.9 is refused, never
    rounded, and 1_2 is refused, never read as 12."""
    try:
        if "_" not in str(raw):
            return int(str(raw))
    except ValueError:
        pass
    raise ValueError(f"{what} must be a whole number, got {raw!r}")


def _switch(args, key) -> bool:
    """An on/off option: a given flag or a config true is on, an absent one
    or a config false off; any other config value, such as "false", is
    refused."""
    raw = _merged(args, key, False)
    if not isinstance(raw, bool):
        raise ValueError(f"{key} must be true or false, got {raw!r}")
    return raw


def _driving_from_args(args) -> DrivingConfig:
    for key in ("u", "n"):
        if _merged(args, key) is None:
            raise ValueError(f"missing required parameter --{key}")
    return DrivingConfig(*(_real(_merged(args, key), key) for key in RATES),
                         u=_real(args.u, "u"), n_sites=_whole(args.n, "n"))


# ---------------------------------------------------------------------------
# subcommands

def cmd_verify(args) -> int:
    tol = _tol(args)
    seed = _whole(_merged(args, "seed"), "seed")
    samples = _whole(_merged(args, "samples", 5), "samples")
    cutoffs = _values(args, "K", (3, 4, 5), _whole)
    if not cutoffs or samples < 1:
        raise ValueError(f"verify needs at least one cutoff and one sample, got "
                         f"cutoffs {cutoffs} and {samples} samples")
    pts = sample_params(samples, seed=seed)
    if args.u is None:
        reports = verify_suite(num_samples=samples, cutoffs=cutoffs, tol=tol, seed=seed)
    else:
        pts = [dataclasses.replace(p, u=_real(args.u, "u")) for p in pts]
        reports = [r for K in cutoffs for p in pts for r in verify_family(p, K, tol=tol)]
    xk = [check_xk_structure(p) for p in pts]
    ok = all(r.passed for r in reports) and all(x["passed"] for x in xk)
    return _emit(args, {
        "seed": seed,
        "tolerance": tol,
        "cutoffs": cutoffs,
        "reports": [r.as_dict() for r in reports],
        "interaction_blocks": xk,
        "all_passed": ok,
    }, ok)


def cmd_ness(args) -> int:
    cfg = _driving_from_args(args)
    tol = _tol(args)
    if args.dump_rho is not None and not isinstance(args.dump_rho, str):
        raise ValueError(f"dump_rho must be a file path, got {args.dump_rho!r}")
    lindblad = _switch(args, "lindblad_residual")
    # the dense rho that these two read is refused here, before any work
    dense = bool(args.dump_rho or lindblad)
    if dense:
        require_dense(cfg.n_sites)
    fam = ness_family(cfg)
    # the local certificate contracts no chain; a chain too long for the
    # sector blocks is refused by build_ness's guard, before allocating
    dlax = build_double_lax(cfg, fam)
    bc = check_boundary_conditions(dlax, tol=tol)
    tele_res, tele_scale = check_telescoping(dlax)
    res = build_ness(cfg, fam)
    rho = res.rho if dense else None
    lam, om, eta = map_driving_to_params(cfg)
    diag = dict(res.diagnostics)
    diag["boundary_left_residual"] = bc["left_residual"] / bc["scale"]
    diag["boundary_right_residual"] = bc["right_residual"] / bc["scale"]
    diag["telescoping_residual"] = tele_res / tele_scale
    if lindblad:
        diag["lindblad_residual"] = fixed_point_residual(cfg, rho)
    ok = bool(state_passed(diag) and bc["left_passed"] and bc["right_passed"]
              and diag["telescoping_residual"] <= tol)
    doc = {
        "driving": dataclasses.asdict(cfg),
        "cutoff_K": fam.space.cutoff_K,
        "tolerance": tol,
        "map": {"lambda": lam, "omega": om, "eta": eta},
        "diagnostics": diag,
        "passed": ok,
    }
    if args.dump_rho:
        dump_rho(args.dump_rho, rho)
        doc["rho_dump"] = args.dump_rho
    return _emit(args, doc, ok)


def cmd_oracle(args) -> int:
    cfg = _driving_from_args(args)
    tol = _tol(args)
    rho_oracle = fixed_point_oracle(cfg)
    rho = build_ness(cfg).rho
    dist = float(np.linalg.norm(rho - rho_oracle))
    return _emit(args, {
        "driving": dataclasses.asdict(cfg),
        "frobenius_distance": dist,
        "lindblad_residual": fixed_point_residual(cfg, rho),
        "tolerance": tol,
        "passed": dist <= tol,
    }, dist <= tol)


def cmd_observe(args) -> int:
    cfg = _driving_from_args(args)
    gnuplot = _switch(args, "gnuplot")
    ns = _values(args, "scaling", None, _whole) if args.scaling else None
    out = args.out
    os.makedirs(out, exist_ok=True)
    obs = profile_and_currents_mpo(cfg)
    uni = current_uniformity(obs)

    for name, header, xs, ys in (
            ("densities.csv", ["site", "sz", "tz"], obs.densities_sigma, obs.densities_tau),
            ("currents.csv", ["bond", "J_sigma", "J_tau"], obs.currents_sigma, obs.currents_tau)):
        with open(os.path.join(out, name), "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            w.writerows([j, repr(x), repr(y)] for j, (x, y) in enumerate(zip(xs, ys), 1))

    doc = {
        "driving": dataclasses.asdict(cfg),
        "densities_sigma": obs.densities_sigma,
        "densities_tau": obs.densities_tau,
        "currents_sigma": obs.currents_sigma,
        "currents_tau": obs.currents_tau,
        "current_uniformity": uni,
        "cosine_fit": cosine_profile_fit(obs.densities_sigma),
    }
    if ns:
        series = current_series(cfg, ns)
        doc["scaling"] = {
            "series": [[n, J] for n, J in series],
            "fit": scaling_fit(series),
        }
    if gnuplot:
        with open(os.path.join(out, "profile.dat"), "w") as fh:
            fh.write("# site sz tz\n")
            for j in range(cfg.n_sites):
                fh.write(f"{j + 1} {obs.densities_sigma[j]:.16e} {obs.densities_tau[j]:.16e}\n")
        if "scaling" in doc:
            with open(os.path.join(out, "scaling.dat"), "w") as fh:
                fh.write("# n J\n")
                for n, J in doc["scaling"]["series"]:
                    fh.write(f"{n} {J:.16e}\n")
    doc["passed"] = uni <= UNIFORMITY_TOL
    return _emit(args, doc, doc["passed"])


def cmd_commute(args) -> int:
    seed = _whole(_merged(args, "seed"), "seed")
    u = _real(_merged(args, "u", 1.0), "u")
    npairs = _whole(_merged(args, "pairs", 20), "pairs")
    ns = _values(args, "n", "2,3,4", _whole)
    pairs = sample_pairs(npairs, seed=seed)
    all_reports = {str(n): [r.as_dict() for r in check_commutativity(n, u, pairs)]
                   for n in ns}
    # conjecture tier never gates
    return _emit(args, {
        "tier": "conjecture",
        "seed": seed,
        "u": u,
        "reports": all_reports,
        "all_within_tolerance": all(
            r["passed"] for reps in all_reports.values() for r in reps
        ),
    }, True)


def _sweep_one(kwargs):
    cfg = DrivingConfig(**kwargs)
    obs = profile_and_currents_mpo(cfg)
    return cfg.key(), {
        "driving": kwargs,
        "currents_sigma": obs.currents_sigma,
        "densities_sigma": obs.densities_sigma,
        "current_uniformity": current_uniformity(obs),
    }


def cmd_sweep(args) -> int:
    grid = itertools.product(_values(args, "n", "2,3", _whole),
                             *(_values(args, key, None) for key in RATES),
                             _values(args, "u", "1.0"))
    jobs = [dict(gamma_L=gL, gamma_R=gR, mu_L=mL, mu_R=mR, u=u, n_sites=n)
            for n, gL, gR, mL, mR, u in grid]
    workers = _whole(_merged(args, "workers", 1), "workers")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    # a fork pool starts all its processes at once: no more than it can use
    workers = min(workers, len(jobs), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as ex:
            results = list(ex.map(_sweep_one, jobs))
    else:
        results = [_sweep_one(j) for j in jobs]
    results.sort(key=lambda kv: kv[0])
    ok = all(v["current_uniformity"] <= UNIFORMITY_TOL for _, v in results)
    return _emit(args, {
        "configurations": [{"key": k, **v} for k, v in results],
        "passed": ok,
    }, ok)


# ---------------------------------------------------------------------------

def _add_driving_flags(p):
    p.add_argument("--n", help="chain length")
    for key in (*RATES, "u"):
        p.add_argument("--" + key)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hubbard-lax",
        description="Lax-family identity checks and exact steady states of "
                    "the boundary-driven Hubbard ladder",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the operator-identity residual suite")
    p.add_argument("--u", help="fix the interaction")
    p.add_argument("--K", help="comma-separated cutoffs (default 3,4,5)")
    p.add_argument("--seed")
    p.add_argument("--samples")
    p.add_argument("--tol")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("ness", help="build the steady state and its diagnostics")
    _add_driving_flags(p)
    p.add_argument("--tol")
    p.add_argument("--dump-rho", help="binary dump path for rho")
    p.add_argument("--lindblad-residual", action="store_true", default=None,
                   help="also evaluate the Lindblad fixed-point residual")
    p.set_defaults(func=cmd_ness)

    p = sub.add_parser("oracle", help="cross-check against the Lindblad fixed point (n <= 3)")
    _add_driving_flags(p)
    p.add_argument("--tol")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("observe", help="densities, currents, scaling")
    _add_driving_flags(p)
    p.add_argument("--scaling",
                   help="comma-separated chain lengths for the current scaling fit")
    p.add_argument("--gnuplot", action="store_true", default=None, help="emit plain .dat files")
    p.set_defaults(func=cmd_observe)

    p = sub.add_parser("commute", help="transfer-family commutation probe (conjecture tier)")
    p.add_argument("--n", help="comma-separated chain lengths (default 2,3,4)")
    p.add_argument("--u")
    p.add_argument("--pairs")
    p.add_argument("--seed")
    p.set_defaults(func=cmd_commute)

    p = sub.add_parser("sweep", help="grid of driving configurations, each flag a "
                                     "comma-separated list")
    _add_driving_flags(p)
    p.add_argument("--workers")
    p.set_defaults(func=cmd_sweep)

    for sp in sub.choices.values():
        sp.set_defaults(config_keys={a.dest for a in sp._actions} - {"help"})
        sp.add_argument("--out", default="hlx_out",
                        help="output directory for JSON/CSV artifacts")
        sp.add_argument("--config", default=None,
                        help="JSON config file; flags take precedence")
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    config = {}
    try:
        if args.config:
            with open(args.config) as fh:
                config = dict(json.load(fh))
        if unknown := sorted(set(config) - args.config_keys):
            raise ValueError(f"keys that {args.command} does not read: {', '.join(unknown)}")
    except (OSError, ValueError, TypeError) as e:
        print(f"error: cannot read config: {e}", file=sys.stderr)
        return 2
    vars(args).update({k: v for k, v in config.items() if getattr(args, k, None) is None})
    try:
        return args.func(args)
    except (ValueError, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MemoryError as e:
        print(f"error: problem size exceeds the memory limits: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: cannot write output: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
