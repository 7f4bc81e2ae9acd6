"""Command-line surface.  Every acceptance computation is a subcommand with
deterministic JSON or CSV output.

Exit codes: 0 on pass, 2 on a check failure, 1 on a usage error."""

from __future__ import annotations

import argparse
import io
import json
import math
import re
import sys
from fractions import Fraction

import numpy as np
from mpmath import mpf, mpc

from .rings import build_ring, CohClass
from .charclasses import (gamma_class, zeta_reg_reciprocal_product,
                          zeta_reg_closed_form)
from .connection import spectrum, j_coefficients, quantum_period
from .asympt import (limit_ratio, apery_ratios, mellin_psi, psi_residue_sum,
                     psi_gamma_pi)
from . import mrs as mrsmod
from .mrs import SOB, gram, stokes_matrix, mutate_phase_rotation
from .wedgecheck import (check_wedge_spectrum, check_kapranov_wedge_identity,
                         check_mrs_wedge)
from . import verify


class UsageError(Exception):
    pass


class Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _round12(x: float) -> float:
    return float(f"{x:.12e}")


def clean(obj):
    """Normalize a result tree for serialization: 12-significant-digit
    floats, complex as [re, im], exact rationals as strings."""
    if isinstance(obj, dict):
        return {str(k): clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [clean(v) for v in obj]
    if isinstance(obj, CohClass):
        return clean(obj.serialize())
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, (complex, np.complexfloating, mpc)):
        z = complex(obj)
        if z.imag == 0:
            return _round12(z.real)
        return [_round12(z.real), _round12(z.imag)]
    if isinstance(obj, (float, np.floating, mpf)):
        return _round12(float(obj))
    if isinstance(obj, np.ndarray):
        return clean(obj.tolist())
    return obj


def emit(payload, args) -> None:
    payload = clean(payload)
    if getattr(args, "format", "json") == "csv":
        text = to_csv(payload)
    else:
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def to_csv(payload) -> str:
    buf = io.StringIO()
    if isinstance(payload, list) and payload and isinstance(payload[0], dict):
        keys = sorted({k for row in payload for k in row})
        buf.write(",".join(keys) + "\n")
        for row in payload:
            buf.write(",".join(_csv_cell(row.get(k, "")) for k in keys) + "\n")
    else:
        buf.write("key,value\n")
        for k, v in sorted(_flatten(payload)):
            buf.write(f"{k},{_csv_cell(v)}\n")
    return buf.getvalue()


def _csv_cell(v) -> str:
    if isinstance(v, (list, dict)):
        return '"' + json.dumps(v, sort_keys=True).replace('"', '""') + '"'
    return str(v)


def _flatten(payload, prefix=""):
    if isinstance(payload, dict):
        for k, v in payload.items():
            yield from _flatten(v, f"{prefix}{k}.")
    else:
        yield prefix.rstrip("."), payload


def parse_target(text: str):
    m = re.fullmatch(r"P\((\d+)\)", text)
    if m:
        return build_ring("P", int(m.group(1)) + 1)
    m = re.fullmatch(r"G\((\d+),(\d+)\)", text)
    if m:
        return build_ring("G", int(m.group(2)), int(m.group(1)))
    raise UsageError(f"bad --target {text!r}: expected P(n) or G(r,N)")


def _nmax(args) -> int:
    if args.nmax < 0:
        raise UsageError(f"--nmax must be >= 0, got {args.nmax}")
    return args.nmax


def _grid(text: str):
    return [float(x) for x in text.split(",")]


def build_parser() -> Parser:
    p = Parser(prog="qgamma", description=__doc__)
    sub = p.add_subparsers(dest="cmd", required=True)

    def add(name, **kw):
        sp = sub.add_parser(name, **kw)
        sp.add_argument("--out", help="write output to this path instead of stdout")
        sp.add_argument("--format", choices=["json", "csv"], default="json")
        return sp

    sp = add("spectrum", help="c1 spectrum and Property O")
    sp.add_argument("--target", required=True)

    sp = add("gamma", help="Gamma class in the Schubert basis")
    sp.add_argument("--target", required=True)

    sp = add("jfun", help="J-function Taylor coefficients (exact)")
    sp.add_argument("--target", required=True)
    sp.add_argument("--nmax", type=int, default=12)

    sp = add("period", help="quantum period G_n")
    sp.add_argument("--target", required=True)
    sp.add_argument("--nmax", type=int, default=20)

    sp = add("limit", help="Gamma Conjecture I limit ratio")
    sp.add_argument("--target", required=True)
    sp.add_argument("--t", required=True, help="comma-separated t grid")
    sp.add_argument("--tol", type=float, default=1e-6)

    sp = add("apery", help="Apery-style ratio limit")
    sp.add_argument("--target", required=True)
    sp.add_argument("--n-grid", default="20,30,40")
    sp.add_argument("--g-coeffs",
                    help="comma-separated coefficients of the Poincare dual "
                         "class in basis order (default: the G(2,5) class "
                         "dual to sigma_2 - sigma_{1,1})")
    sp.add_argument("--tol", type=float, default=1e-6)

    sp = add("psi", help="Mellin-Barnes solution Psi(t), all three routes")
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--t", type=float, required=True)
    sp.add_argument("--tol", type=float, default=1e-8)

    sp = add("stokes", help="Stokes matrix of the Gamma-basis MRS")
    sp.add_argument("--target", required=True)
    sp.add_argument("--phase", type=float, default=-0.05)

    sp = add("mutate", help="phase rotation with mutation log")
    sp.add_argument("--target", required=True)
    sp.add_argument("--phase", type=float, default=-0.05)
    sp.add_argument("--to", type=float, required=True)

    sp = add("satake", help="wedge spectrum, Kapranov identity, MRS wedge")
    sp.add_argument("--target", required=True, help="G(r,N)")
    sp.add_argument("--phase", type=float, default=-0.05)

    sp = add("zetareg", help="zeta-regularized product, both routes")
    sp.add_argument("--delta", type=float, required=True)
    sp.add_argument("--z", type=float, required=True)
    sp.add_argument("--tol", type=float, default=1e-8)

    add("verify-all", help="run the full acceptance suite")
    return p


def _mrs_for(ring, phase):
    if ring.kind == "P":
        return mrsmod.beilinson_gamma_mrs(ring.N, phase=phase)
    return mrsmod.kapranov_gamma_mrs(ring.r, ring.N, phase=phase)


def cmd_spectrum(args):
    ring = parse_target(args.target)
    rep = spectrum(ring)
    emit({"target": args.target,
          "eigenvalues": [{"value": v, "multiplicity": m} for v, m in rep.eigenvalues],
          "T": rep.T, "T_prime": rep.T_prime,
          "T_multiplicity": rep.T_multiplicity,
          "property_o": rep.property_o_holds,
          "violated_clause": rep.violated_clause,
          "closed_form_match": rep.closed_form_match}, args)
    return 0 if rep.property_o_holds else 2


def cmd_gamma(args):
    ring = parse_target(args.target)
    emit({"target": args.target, "gamma_class": gamma_class(ring)}, args)
    return 0


def cmd_jfun(args):
    ring = parse_target(args.target)
    rows = j_coefficients(ring, _nmax(args))
    emit({"target": args.target,
          "coefficients": [{"n": n,
                            "J_n": {ring.label(lam): Fraction(c)
                                    for lam, c in zip(ring.basis, row.coeffs)
                                    if c != 0}}
                           for n, row in enumerate(rows)]}, args)
    return 0


def cmd_period(args):
    ring = parse_target(args.target)
    gs = quantum_period(ring, _nmax(args), exact=True)
    emit({"target": args.target,
          "G_n": [{"n": n, "value": Fraction(g)} for n, g in enumerate(gs)]}, args)
    return 0


def cmd_limit(args):
    ring = parse_target(args.target)
    rep = limit_ratio(ring, _grid(args.t), tol=args.tol)
    emit({"target": args.target, "grid": rep.grid,
          "ratio_at_last_t": rep.extrapolated, "gamma_class": rep.target,
          "gap_to_gamma": rep.notes["gap_to_gamma"],
          "converged": rep.converged}, args)
    return 0 if rep.converged else 2


def cmd_apery(args):
    ring = parse_target(args.target)
    if args.g_coeffs:
        coeffs = [int(x) for x in args.g_coeffs.split(",")]
        if len(coeffs) != ring.rank:
            raise UsageError(f"--g-coeffs needs {ring.rank} entries")
        g = CohClass(ring, coeffs)
    elif (ring.kind, ring.r, ring.N) == ("G", 2, 5):
        g = ring.basis_class((3, 1)) - ring.basis_class((2, 2))
    else:
        raise UsageError("no default class for this target; pass --g-coeffs")
    n_grid = [int(x) for x in args.n_grid.split(",")]
    rep = apery_ratios(ring, g, n_grid, tol=args.tol)
    emit({"target": args.target, "n_grid": rep.grid, "ratios": rep.values,
          "target_value": rep.target, "gap": rep.notes["gap"],
          "converged": rep.converged}, args)
    return 0 if rep.converged else 2


def cmd_psi(args):
    a = mellin_psi(args.N, args.t)
    b = psi_residue_sum(args.N, args.t)
    c = psi_gamma_pi(args.N, args.t)
    spread = max(abs(a - b), abs(b - c), abs(a - c))
    emit({"N": args.N, "t": args.t, "quadrature": a, "residue_sum": b,
          "gamma_pi_integral": c, "max_spread": spread,
          "agree": spread < args.tol}, args)
    return 0 if spread < args.tol else 2


def cmd_stokes(args):
    ring = parse_target(args.target)
    m = _mrs_for(ring, args.phase)
    try:
        S = stokes_matrix(m)
    except (ArithmeticError, ValueError) as exc:
        emit({"target": args.target, "phase": args.phase, "error": str(exc)}, args)
        return 2
    emit({"target": args.target, "phase": args.phase,
          "stokes_matrix": np.round(S.real).astype(int),
          "rounding_error": float(np.max(np.abs(S - np.round(S.real))))}, args)
    return 0


def cmd_mutate(args):
    ring = parse_target(args.target)
    m = _mrs_for(ring, args.phase)
    m2, log = mutate_phase_rotation(m, args.to)
    g = gram(SOB(m2.vectors, m2.pairing))
    emit({"target": args.target, "phase_from": args.phase, "phase_to": args.to,
          "mutations": log, "final_gram": np.round(g.real).astype(int),
          "gram_rounding_error": float(np.max(np.abs(g - np.round(g.real))))},
         args)
    return 0


def cmd_satake(args):
    ring = parse_target(args.target)
    if ring.kind != "G":
        raise UsageError("satake needs a G(r,N) target")
    r, N = ring.r, ring.N
    reports = [check_wedge_spectrum(r, N).serialize()]
    reports += [check_kapranov_wedge_identity(r, N, nu).serialize()
                for nu in ring.basis]
    reports.append(check_mrs_wedge(r, N, args.phase).serialize())
    emit({"target": args.target,
          "checks": [{"case": rep["case"], "max_residual": rep["max_residual"],
                      "pass": rep["pass"]} for rep in reports]}, args)
    return 0 if all(rep["pass"] for rep in reports) else 2


def cmd_zetareg(args):
    num = zeta_reg_reciprocal_product(mpf(args.delta), mpf(args.z))
    cf = zeta_reg_closed_form(mpf(args.delta), mpf(args.z))
    rel = float(abs(num - cf) / abs(cf))
    emit({"delta": args.delta, "z": args.z, "numeric": float(num),
          "closed_form": float(cf), "rel_err": rel,
          "agree": rel < args.tol}, args)
    return 0 if rel < args.tol else 2


def cmd_verify_all(args):
    results = verify.run_all()
    for r in results:
        print(f'criterion {r["id"]:2d}  {r["name"]:32s} '
              f'{"PASS" if r["passed"] else "FAIL"}', file=sys.stderr)
    emit([{"id": r["id"], "name": r["name"],
           "pass": r["passed"], "details": r["details"]} for r in results], args)
    return 0 if all(r["passed"] for r in results) else 2


COMMANDS = {"spectrum": cmd_spectrum, "gamma": cmd_gamma, "jfun": cmd_jfun,
            "period": cmd_period, "limit": cmd_limit, "apery": cmd_apery,
            "psi": cmd_psi, "stokes": cmd_stokes, "mutate": cmd_mutate,
            "satake": cmd_satake, "zetareg": cmd_zetareg,
            "verify-all": cmd_verify_all}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return COMMANDS[args.cmd](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        print(f"valid subcommands: {', '.join(sorted(COMMANDS))}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
