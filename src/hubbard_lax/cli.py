"""Command-line front end.

Subcommands: verify, ness, oracle, observe, commute, sweep. Every command
writes machine-readable JSON (and CSV where appropriate) into an output
directory and echoes the main JSON document to stdout. Outputs embed the full
parameter set, seed, cutoff, tolerance, and a schema_version field; identical
inputs produce bit-identical outputs.

Config precedence: command-line flags override entries of a JSON config file
(--config), which may set only its subcommand's options;
the defaults of OPTIONS fill the rest. A flag's text and a config value are
parsed alike, by the option's parser in OPTIONS, and a bad one is refused
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
import re
import sys

import numpy as np

from . import __version__
from .algebra_verifier import check_xk_structure, sample_params, verify_family, verify_suite
from .lindblad_oracle import fixed_point_oracle, fixed_point_residual
from .ness_engine import (
    DrivingConfig,
    build_ness,
    dump_rho,
    map_driving_to_params,
    ness_family,
    require_state,
    state_passed,
    stationarity_certificate,
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


# parse(raw, key) reads a flag's text or a config value, or refuses it: "key must be ..."

def _real(raw, what: str) -> float:
    """A real option value; text that is not a number or holds a digit-group
    underscore (1_0), and a config list, object or boolean, are refused."""
    if not isinstance(raw, bool) and isinstance(raw, (int, float, str)) and "_" not in str(raw):
        try:
            return float(raw)
        except ValueError:
            pass
    raise ValueError(f"{what} must be a number, got {raw!r}")


def _finite(raw, what: str) -> float:
    """A finite real; NaN times a tensor's zeros would be refused by a wrong reason."""
    value = _real(raw, what)
    if not math.isfinite(value):
        raise ValueError(f"{what} must be finite, got {value}")
    return value


def _tol(raw, what: str) -> float:
    """The gate tolerance; inf or nan would pass every gate, and 0 or less none."""
    tol = _real(raw, what)
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"{what} must be finite and positive, got {tol}")
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


def _switch(raw, what: str) -> bool:
    """An on/off option: a given flag or a config true is on, an absent one
    or a config false off; any other config value, such as "false", is
    refused."""
    if not isinstance(raw, bool):
        raise ValueError(f"{what} must be true or false, got {raw!r}")
    return raw


def _path(raw, what: str) -> str:
    """A file path: a config number such as 3 would be opened as a file descriptor."""
    if not isinstance(raw, str):
        raise ValueError(f"{what} must be a file path, got {raw!r}")
    return raw


def _values(parse):
    """A comma-separated flag, or a config list or scalar, as a list parsed by parse."""
    def values(raw, what: str) -> list:
        raw = raw.split(",") if isinstance(raw, str) else raw
        return [parse(x, what) for x in (raw if isinstance(raw, (list, tuple)) else [raw])]
    return values


# ---------------------------------------------------------------------------
# subcommands

def cmd_verify(args) -> int:
    if not args.K or args.samples < 1:
        raise ValueError(f"verify needs at least one cutoff and one sample, got "
                         f"cutoffs {args.K} and {args.samples} samples")
    pts = sample_params(args.samples, seed=args.seed)
    if args.u is None:
        reports = verify_suite(args.samples, args.K, args.tol, args.seed)
    else:
        pts = [dataclasses.replace(p, u=args.u) for p in pts]
        reports = [r for K in args.K for p in pts for r in verify_family(p, K, tol=args.tol)]
    xk = [check_xk_structure(p) for p in pts]
    ok = all(r.passed for r in reports) and all(x["passed"] for x in xk)
    return _emit(args, {
        "seed": args.seed,
        "tolerance": args.tol,
        "cutoffs": args.K,
        "reports": [r.as_dict() for r in reports],
        "interaction_blocks": xk,
        "all_passed": ok,
    }, ok)


def cmd_ness(args) -> int:
    cfg = DrivingConfig(args.gammaL, args.gammaR, args.muL, args.muR, args.u, args.n)
    # the sector blocks, and the dense rho that these two read, are refused
    # here, before any work
    dense = bool(args.dump_rho or args.lindblad_residual)
    require_state(cfg.n_sites, dense)
    fam = ness_family(cfg)
    res = build_ness(cfg)
    rho = res.rho if dense else None
    lam, om, eta = map_driving_to_params(cfg)
    cert = stationarity_certificate(cfg, fam)
    diag = {**res.diagnostics, **cert}
    if args.lindblad_residual:
        diag["lindblad_residual"] = fixed_point_residual(cfg, rho)
    ok = bool(state_passed(diag) and max(cert.values()) <= args.tol)
    doc = {
        "driving": dataclasses.asdict(cfg),
        "cutoff_K": fam.space.cutoff_K,
        "tolerance": args.tol,
        "map": {"lambda": lam, "omega": om, "eta": eta},
        "diagnostics": diag,
        "passed": ok,
    }
    if args.dump_rho:
        dump_rho(args.dump_rho, rho)
        doc["rho_dump"] = args.dump_rho
    return _emit(args, doc, ok)


def cmd_oracle(args) -> int:
    cfg = DrivingConfig(args.gammaL, args.gammaR, args.muL, args.muR, args.u, args.n)
    rho_oracle = fixed_point_oracle(cfg)
    rho = build_ness(cfg).rho
    dist = float(np.linalg.norm(rho - rho_oracle))
    return _emit(args, {
        "driving": dataclasses.asdict(cfg),
        "frobenius_distance": dist,
        "lindblad_residual": fixed_point_residual(cfg, rho),
        "tolerance": args.tol,
        "passed": dist <= args.tol,
    }, dist <= args.tol)


def cmd_observe(args) -> int:
    cfg = DrivingConfig(args.gammaL, args.gammaR, args.muL, args.muR, args.u, args.n)
    if args.scaling and len(set(args.scaling)) < 3:
        raise ValueError(f"scaling needs at least 3 distinct chain lengths, got {args.scaling}")
    obs = profile_and_currents_mpo(cfg)
    uni = current_uniformity(obs)
    doc = {
        "driving": dataclasses.asdict(cfg),
        "densities_sigma": obs.densities_sigma,
        "densities_tau": obs.densities_tau,
        "currents_sigma": obs.currents_sigma,
        "currents_tau": obs.currents_tau,
        "current_uniformity": uni,
        "cosine_fit": cosine_profile_fit(obs.densities_sigma),
    }
    if args.scaling:
        series = current_series(cfg, args.scaling)
        doc["scaling"] = {
            "series": [[n, J] for n, J in series],
            "fit": scaling_fit(series),
        }
    # every value is computed, and so every refusal made, before any file is written
    os.makedirs(args.out, exist_ok=True)
    for name, header, xs, ys in (
            ("densities.csv", ["site", "sz", "tz"], obs.densities_sigma, obs.densities_tau),
            ("currents.csv", ["bond", "J_sigma", "J_tau"], obs.currents_sigma, obs.currents_tau)):
        with open(os.path.join(args.out, name), "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            w.writerows([j, repr(x), repr(y)] for j, (x, y) in enumerate(zip(xs, ys), 1))
    if args.gnuplot:
        with open(os.path.join(args.out, "profile.dat"), "w") as fh:
            fh.write("# site sz tz\n")
            for j in range(cfg.n_sites):
                fh.write(f"{j + 1} {obs.densities_sigma[j]:.16e} {obs.densities_tau[j]:.16e}\n")
        if "scaling" in doc:
            with open(os.path.join(args.out, "scaling.dat"), "w") as fh:
                fh.write("# n J\n")
                for n, J in doc["scaling"]["series"]:
                    fh.write(f"{n} {J:.16e}\n")
    doc["passed"] = uni <= UNIFORMITY_TOL
    return _emit(args, doc, doc["passed"])


def cmd_commute(args) -> int:
    if args.pairs < 1:
        raise ValueError(f"commute needs at least one pair, got {args.pairs}")
    pairs = sample_pairs(args.pairs, seed=args.seed)
    all_reports = {str(n): [r.as_dict() for r in reps]
                   for n, reps in check_commutativity(args.n, args.u, pairs).items()}
    # conjecture tier never gates
    return _emit(args, {
        "tier": "conjecture",
        "seed": args.seed,
        "u": args.u,
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
    if args.workers < 1:
        raise ValueError(f"workers must be at least 1, got {args.workers}")
    jobs = [dict(gamma_L=gL, gamma_R=gR, mu_L=mL, mu_R=mR, u=u, n_sites=n)
            for n, gL, gR, mL, mR, u in itertools.product(
                args.n, args.gammaL, args.gammaR, args.muL, args.muR, args.u)]
    # a fork pool starts all its processes at once: no more than it can use
    workers = min(args.workers, len(jobs), os.cpu_count() or 1)
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
# Every option of every command, once: {command: (help, {key: (parser, default[,
# help])})}, the flag --key with "_" written "-". A default of None leaves the
# option unset, and ... makes it required; a _switch option is a flag alone.
DRIVING = {"n": (_whole, ..., "chain length"), "gammaL": (_real, 1.0), "gammaR": (_real, 1.0),
           "muL": (_real, 0.0), "muR": (_real, 0.0), "u": (_finite, ...)}
OPTIONS = {
    "verify": ("run the operator-identity residual suite", {
        "u": (_finite, None, "fix the interaction"),
        "K": (_values(_whole), "3,4,5", "comma-separated cutoffs (default 3,4,5)"),
        "seed": (_whole, 42), "samples": (_whole, 5), "tol": (_tol, 1e-10)}),
    "ness": ("build the steady state and its diagnostics", {
        **DRIVING, "tol": (_tol, 1e-10), "dump_rho": (_path, None, "binary dump path for rho"),
        "lindblad_residual": (_switch, False, "also evaluate the Lindblad fixed-point residual")}),
    "oracle": ("cross-check against the Lindblad fixed point (n <= 3)",
               {**DRIVING, "tol": (_tol, 1e-10)}),
    "observe": ("densities, currents, scaling", {
        **DRIVING, "scaling": (_values(_whole), None,
                               "comma-separated chain lengths for the current scaling fit"),
        "gnuplot": (_switch, False, "emit plain .dat files")}),
    "commute": ("transfer-family commutation probe (conjecture tier)", {
        "n": (_values(_whole), "2,3,4", "comma-separated chain lengths (default 2,3,4)"),
        "u": (_finite, 1.0), "pairs": (_whole, 20), "seed": (_whole, 42)}),
    "sweep": ("grid of driving configurations, each flag a comma-separated list", {
        "n": (_values(_whole), "2,3", "chain length"), "gammaL": (_values(_real), 1.0),
        "gammaR": (_values(_real), 1.0), "muL": (_values(_real), 0.0),
        "muR": (_values(_real), 0.0), "u": (_values(_finite), 1.0), "workers": (_whole, 1)}),
}
VALUED = {"--" + key.replace("_", "-") for _, options in OPTIONS.values()
          for key, (parse, *_) in options.items() if parse is not _switch}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hubbard-lax",
        description="Lax-family identity checks and exact steady states of "
                    "the boundary-driven Hubbard ladder",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)
    for command, (text, options) in OPTIONS.items():
        p = sub.add_parser(command, help=text)
        for key, (parse, _, *hint) in options.items():
            p.add_argument("--" + key.replace("_", "-"), default=None, help=(hint or [None])[0],
                           **({"action": "store_true"} if parse is _switch else {}))
        p.add_argument("--out", default="hlx_out", help="output directory for JSON/CSV artifacts")
        p.add_argument("--config", help="JSON config file; flags take precedence")
    return ap


def _joined(argv: list) -> list:
    """argv with a negative number after a flag that takes a value joined to it
    (--muR -1e-3 as --muR=-1e-3): argparse reads -1e-3 as an unknown option."""
    out = []
    for token in argv:
        if out and out[-1] in VALUED and re.match(r"-[0-9.]", token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    args = build_parser().parse_args(_joined(sys.argv[1:] if argv is None else argv))
    config = {}
    try:
        if args.config:
            with open(args.config) as fh:
                config = dict(json.load(fh))
        if unknown := sorted(set(config) - set(OPTIONS[args.command][1])):
            raise ValueError(f"keys that {args.command} does not read: {', '.join(unknown)}")
    except (OSError, ValueError, TypeError) as e:
        print(f"error: cannot read config: {e}", file=sys.stderr)
        return 2
    try:
        for key, (parse, default, *_) in OPTIONS[args.command][1].items():
            raw = next((v for v in (getattr(args, key), config.get(key), default)
                        if v is not None), None)
            if raw is ...:
                raise ValueError(f"missing required parameter --{key}")
            setattr(args, key, None if raw is None else parse(raw, key))
        # looked up here, not kept in OPTIONS, so that a traced cmd_<command> is run
        return globals()["cmd_" + args.command](args)
    except (ValueError, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MemoryError as e:
        print(f"error: problem size exceeds the memory limits: {e}", file=sys.stderr)
        return 2
    except ArithmeticError as e:
        print(f"error: the computation failed numerically: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: cannot write output: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
