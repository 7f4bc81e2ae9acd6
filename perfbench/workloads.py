"""Workload inputs, bodies and correctness gates of the qgamma benchmark.

A workload body is a list of operations run one after the other by a single
caller (a closed loop).  Each operation is a thunk that calls the public API
of the qgamma modules through their module attributes, so that the traced
run can wrap those calls.  Gates run after the timed body and compare every
output with ``reference.json``, which ``record_reference.py`` wrote from the
code itself.  Exact outputs (integers, flags, Fractions, monodromies) must
match exactly; residual-type floats are gated by the tolerance of the
acceptance criterion they come from, so a precision fix that shrinks a
residual still passes.

Workloads:

- ``acceptance``: ``qgamma verify-all`` with its 11 criteria, as shipped.
- ``rank_sweep``: ring, Gamma class and exact J to order 3N on G(3,6),
  G(3,7), G(3,8), and P^3..P^5 to order 60.  The seed picks the visiting
  order of the targets.
- ``limits_rotation``: float64 and mpmath paths: the G(2,5) quantum period,
  limit and Apery ratios, the three Psi routes and the Psi asymptotic
  constant, zeta-regularised products, and many full phase-rotation turns of
  the P^2 Beilinson integer-Gram system.  The seed picks the Psi t-points,
  the (delta, z) pairs, the turn counts and the start phase.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import math
import random
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
from mpmath import mp, mpf, mpc

from qgamma import (asympt, charclasses, cli, connection, mrs, rings, symfunc,
                    verify, wedgecheck)

WORKLOADS = ("acceptance", "rank_sweep", "limits_rotation")
REFERENCE = Path(__file__).with_name("reference.json")

RANK_TARGETS = [("G", 6, 3), ("G", 7, 3), ("G", 8, 3),
                ("P", 4, 1), ("P", 5, 1), ("P", 6, 1)]
P_ORDER = 60
PSI_N = (2, 3, 4)
PSI_POINTS = 3                 # t-points per N, drawn from [0.5, 2]
ZETA_PAIRS = 6                 # (delta, z) pairs, each drawn from [0.5, 2]^2
ROTATIONS = 4                  # multi-turn rotations per body
TURNS = (9000, 9180)           # turn count range of one rotation
BASE_PHASE = -(math.pi / 2 + 0.3)
P2_GRAM = [[1, 3, 6], [0, 1, 3], [0, 0, 1]]   # Beilinson Gram of P^2, as in criterion 9

# Criterion tolerances, copied from qgamma.verify, for the residual fields of
# the verify-all JSON.  Fields not listed here must equal the reference.
_RES = {
    1: {"P_multiset_residual": 1e-8, "G24_T_err": 1e-8, "G25_T_err": 1e-8},
    3: {"P(1,3)": 1e-6, "P(1,4)": 1e-6, "G(2,4)": 1e-4},
    4: {"max_rounding_error": 1e-9},
    5: {"max_residual": 1e-10},
    6: {"N1_vs_exp_err": 1e-10, "three_way_err": 1e-8,
        "asym_const_err.2": 1e-3, "asym_const_err.3": 1e-3},
    7: {"gap_at_40": 1e-6},
    8: {"P(1,2).rel_err": 0.02, "P(1,3).rel_err": 0.02, "G(2,5).rel_err": 0.05},
    10: {"max_rel_err": 1e-8},
    11: {"G24_residual": 1e-8, "G25_residual": 1e-8},
}
# Closed-form values: equal to the reference up to float rounding.
_VAL = {7: {"target": 1e-9},
        8: {"P(1,2).T": 1e-9, "P(1,3).T": 1e-9, "G(2,5).T": 1e-9}}
# Radius estimates: within the criterion tolerance of the reference T.
_EST = {8: {"P(1,2).estimate": ("P(1,2).T", 0.02),
            "P(1,3).estimate": ("P(1,3).T", 0.02),
            "G(2,5).estimate": ("G(2,5).T", 0.05)}}


# --- inputs ---------------------------------------------------------------

def make_inputs(workload: str, seed: int) -> dict:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "acceptance":
        return {}
    if workload == "rank_sweep":
        order = list(RANK_TARGETS)
        rng.shuffle(order)
        return {"targets": order}
    if workload == "limits_rotation":
        phase = BASE_PHASE + rng.uniform(-0.1, 0.1)
        if not phase_admissible(phase):
            raise ValueError(f"start phase {phase} is not admissible")
        return {"psi": [(N, rng.uniform(0.5, 2.0))
                        for N in PSI_N for _ in range(PSI_POINTS)],
                "zeta": [(rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0))
                         for _ in range(ZETA_PAIRS)],
                "turns": [rng.randint(*TURNS) for _ in range(ROTATIONS)],
                "phase": phase}
    raise ValueError(f"unknown workload {workload!r}")


def p2_markings():
    return [3 * complex(math.cos(2 * math.pi * j / 3), -math.sin(2 * math.pi * j / 3))
            for j in range(3)]


def phase_admissible(phase: float, margin: float = 1e-3) -> bool:
    """e^{i phase} is not parallel to any difference of P^2 markings."""
    u = p2_markings()
    for i in range(3):
        for j in range(i + 1, 3):
            d = u[j] - u[i]
            gap = (math.atan2(d.imag, d.real) - phase) % math.pi
            if min(gap, math.pi - gap) < margin:
                return False
    return True


# --- bodies ---------------------------------------------------------------

def operations(workload: str, inputs: dict, tmpdir: Path) -> list:
    """[(name, thunk)] for one body."""
    if workload == "acceptance":
        out = tmpdir / "verify_all.json"
        return [("verify-all", lambda: (cli.main(["verify-all", "--out", str(out)]), out))]
    if workload == "rank_sweep":
        return [(tag(*t), lambda t=t: rank_target(*t)) for t in inputs["targets"]]
    ops = [("G25.period_radius", _period_radius),
           ("G25.limit_ratio", lambda: asympt.limit_ratio(g25(), [4, 5, 6], tol=1e-4)),
           ("G25.apery_ratios", lambda: asympt.apery_ratios(
               g25(), apery_class(), [20, 30, 40], tol=1e-6))]
    ops += [(f"psi.N{N}.t{t:.6f}", lambda N=N, t=t: psi_routes(N, t))
            for N, t in inputs["psi"]]
    ops += [(f"psi_constant.N{N}", lambda N=N: asympt.psi_asymptotic_constant(N, [6, 7, 8]))
            for N in PSI_N]
    ops += [(f"zeta_reg.d{d:.6f}.z{z:.6f}", lambda d=d, z=z: _zeta_reg(d, z))
            for d, z in inputs["zeta"]]
    phase = inputs["phase"]
    ops.append(("rotation.gram", lambda: p2_gram(phase)))
    ops += [(f"rotation.turns{k}", lambda k=k: rotate(phase, k))
            for k in [1] + inputs["turns"]]
    return ops


def tag(kind, N, r):
    return f"G{r}_{N}" if kind == "G" else f"P{N - 1}"


def rank_target(kind, N, r):
    ring = rings.build_ring(kind, N, r)
    gam = charclasses.gamma_class(ring)
    J = connection.j_coefficients(ring, 3 * N if kind == "G" else P_ORDER)
    return ring, gam, J


def g25():
    return rings.build_ring("G", 5, 2)


def apery_class():
    ring = g25()
    return ring.basis_class((3, 1)) - ring.basis_class((2, 2))


def _period_radius():
    ring = g25()
    scaled = connection.quantum_period(ring, 300, exact=False)
    return asympt.radius_estimate(scaled)["ratio_refined"], connection.spectrum(ring).T


def psi_routes(N, t):
    return (asympt.mellin_psi(N, t), asympt.psi_residue_sum(N, t),
            asympt.psi_gamma_pi(N, t))


def _zeta_reg(delta, z):
    d, zz = mpf(delta), mpf(z)
    return (charclasses.zeta_reg_reciprocal_product(d, zz),
            charclasses.zeta_reg_closed_form(d, zz))


def p2_gram(phase):
    base = mrs.beilinson_gamma_mrs(3, phase=phase)
    return mrs.gram(mrs.SOB(base.vectors, base.pairing))


def rotate(phase, turns):
    """Rotate the P^2 integer-Gram system by `turns` full turns, as
    scripts/rotate_mrs.py does for one turn; returns (monodromy, events)."""
    G = np.array(P2_GRAM)
    m = mrs.MRS(vectors=[np.eye(3, dtype=int)[i] for i in range(3)],
                markings=p2_markings(), phase=phase,
                pairing=lambda a, b: a @ G @ b)
    m2, log = mrs.mutate_phase_rotation(m, phase - 2 * math.pi * turns)
    return np.array(m2.vectors).T, len(log)


# --- gates ----------------------------------------------------------------

def load_reference(path=REFERENCE) -> dict:
    return json.loads(Path(path).read_text())


def check(workload: str, inputs: dict, records: list, ref: dict) -> list:
    """Gate one body's records [(name, value, error, warnings)].
    Returns [(op name, failure message or None)], one entry per operation."""
    out = []
    for name, value, error, warns in records:
        if error is not None or warns:
            # verify-all is one call but 11 operations (criteria)
            n = len(ref["acceptance"]) if workload == "acceptance" else 1
            msg = f"exception: {error}" if error else f"warnings: {sorted(set(warns))}"
            out += [(name, msg)] * n
        elif workload == "acceptance":
            out += check_acceptance(value, ref["acceptance"])
        elif workload == "rank_sweep":
            out.append((name, check_rank_target(name, value, ref["rank_sweep"])))
        else:
            out.append((name, check_limits(name, value, inputs, ref["limits_rotation"])))
    return out


def _finite(x) -> bool:
    if isinstance(x, dict):
        return all(_finite(v) for v in x.values())
    if isinstance(x, (list, tuple)):
        return all(_finite(v) for v in x)
    if isinstance(x, np.ndarray):
        return bool(np.all(np.isfinite(x)))
    if isinstance(x, (float, complex, np.floating, np.complexfloating)):
        return cmath.isfinite(complex(x))
    if isinstance(x, (mpf, mpc)):
        return bool(mp.isfinite(x))
    return True


def _leaves(obj, prefix=""):
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _leaves(v, f"{prefix}{k}.")
    else:
        yield prefix[:-1], obj


def check_acceptance(value, ref: list) -> list:
    """One entry per reference criterion: exit code, pass flag, exact fields,
    residuals within the criterion tolerance."""
    code, path = value
    try:
        rows = {row["id"]: row for row in json.loads(Path(path).read_text())}
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [(f"criterion_{r['id']}", f"unreadable verify-all output: {exc}")
                for r in ref]
    out = []
    for want in ref:
        cid = want["id"]
        got = rows.get(cid)
        name = f"criterion_{cid}"
        if got is None:
            out.append((name, "missing from output"))
            continue
        fail = None
        if code != 0:
            fail = f"verify-all exit code {code}"
        elif got.get("name") != want["name"] or got.get("pass") is not True:
            fail = f"name/pass {got.get('name')!r}/{got.get('pass')!r}"
        else:
            got_leaves = dict(_leaves(got["details"]))
            for key, wv in _leaves(want["details"]):
                fail = _gate_field(cid, key, got_leaves.get(key), wv, want["details"])
                if fail:
                    break
            if not fail and set(got_leaves) != set(dict(_leaves(want["details"]))):
                fail = f"detail keys differ: {sorted(got_leaves)}"
        out.append((name, fail))
    return out


def _gate_field(cid, key, got, want, want_details):
    if got is None:
        return f"{key} missing"
    if not _finite(got):
        return f"{key} not finite: {got}"
    if key in _RES.get(cid, {}):
        tol = _RES[cid][key]
        return None if abs(got) < tol else f"{key} = {got} >= {tol}"
    if key in _VAL.get(cid, {}):
        rel = _VAL[cid][key]
        return None if abs(got - want) <= rel * abs(want) else f"{key} = {got} != {want}"
    if key in _EST.get(cid, {}):
        tkey, tol = _EST[cid][key]
        T = dict(_leaves(want_details))[tkey]
        return None if abs(got - T) < tol * T else f"{key} = {got} too far from T = {T}"
    return None if got == want and type(got) is type(want) else f"{key} = {got!r} != {want!r}"


def j_digest(J) -> str:
    text = ";".join(",".join(str(Fraction(c)) for c in row.coeffs) for row in J)
    return hashlib.sha256(text.encode()).hexdigest()


def cup_products(ring) -> list:
    """Every product of two basis classes, through the public cup product."""
    classes = [ring.basis_class(lam) for lam in ring.basis]
    return [[int(c) for c in rings.cup(a, b).coeffs] for a in classes for b in classes]


def cup_digest(ring) -> str:
    return hashlib.sha256(repr(cup_products(ring)).encode()).hexdigest()


def gamma_coeffs(gam) -> list:
    return [[mp.nstr(mpc(c).real, 35), mp.nstr(mpc(c).imag, 35)] for c in gam.coeffs]


def rank_target_record(ring, gam, J) -> dict:
    return {"rank": ring.rank, "cup_sha256": cup_digest(ring),
            "gamma": gamma_coeffs(gam), "J_sha256": j_digest(J)}


def check_rank_target(name, value, ref: dict):
    ring, gam, J = value
    want = ref[name]
    if ring.rank != want["rank"]:
        return f"rank {ring.rank} != {want['rank']}"
    if cup_digest(ring) != want["cup_sha256"]:
        return "cup table differs from reference"
    for c, (re_, im_) in zip(gam.coeffs, want["gamma"]):
        w = mpc(mpf(re_), mpf(im_))
        if not _finite(c) or abs(mpc(c) - w) > mpf("1e-25") * (1 + abs(w)):
            return f"Gamma class coefficient {c} != {w}"
    if j_digest(J) != want["J_sha256"]:
        return "J Fractions differ from reference"
    if ring.kind == "P":
        closed = connection.j_closed_form_P(ring.N, P_ORDER)
        if any(list(map(Fraction, a.coeffs)) != list(map(Fraction, b.coeffs))
               for a, b in zip(J, closed)) or len(J) != len(closed):
            return "J differs from j_closed_form_P"
    return None


def _int_matrix(M) -> list:
    return [[int(x) for x in row] for row in M]


def _mat_mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def _mat_pow(M, k):
    out = [[int(i == j) for j in range(len(M))] for i in range(len(M))]
    base = M
    while k:
        if k & 1:
            out = _mat_mul(out, base)
        base = _mat_mul(base, base)
        k >>= 1
    return out


def _transpose(M):
    return [list(col) for col in zip(*M)]


def check_limits(name: str, value, inputs: dict, ref: dict):
    if not _finite(value):
        return f"non-finite output {value}"
    if name == "G25.period_radius":
        est, T = value
        if abs(T - ref["G25_T"]) > 1e-9 * ref["G25_T"]:
            return f"T = {T} != {ref['G25_T']}"
        return None if abs(est - T) < 0.05 * T else f"radius {est} vs T {T}"
    if name == "G25.limit_ratio":
        gap = value.notes["gap_to_gamma"]
        return None if value.converged and gap < 1e-4 else f"limit gap {gap}"
    if name == "G25.apery_ratios":
        gap, target = value.notes["gap"], value.target
        if abs(target - ref["G25_apery_target"]) > 1e-9 * abs(ref["G25_apery_target"]):
            return f"Apery target {target} != {ref['G25_apery_target']}"
        return None if value.converged and gap < 1e-6 else f"Apery gap {gap}"
    if name.startswith("psi."):
        N, t = _psi_input(name, inputs)
        a, b, c = value
        spread = max(abs(a - b), abs(b - c), abs(a - c))
        with mp.workdps(30):
            oracle = float(mp.meijerg([[], []], [[0] * N, []], mpf(t) ** N))
        if spread >= 1e-8:
            return f"Psi routes spread {spread}"
        return None if abs(a - oracle) < 1e-8 else f"Psi {a} vs Meijer-G {oracle}"
    if name.startswith("psi_constant."):
        err = value["abs_error"]
        return None if err < 1e-3 else f"Psi asymptotic constant error {err}"
    if name.startswith("zeta_reg."):
        num, cf = value
        delta, z = _zeta_input(name, inputs)
        with mp.workdps(30):
            d, zz = mpf(delta), mpf(z)
            oracle = mp.sqrt(zz / (2 * mp.pi)) * zz ** (d / zz) * mp.gamma(1 + d / zz)
        rel = float(abs(num - oracle) / oracle)
        rel_cf = float(abs(cf - oracle) / oracle)
        return None if rel < 1e-8 and rel_cf < 1e-20 else f"zeta-reg rel error {rel}/{rel_cf}"
    if name == "rotation.gram":
        gi = np.round(value.real).astype(int)
        if gi.tolist() != ref["gram"]:
            return f"Gram {gi.tolist()} != {ref['gram']}"
        err = float(np.max(np.abs(value - gi)))
        return None if err < 1e-9 else f"Gram rounding error {err}"
    if name.startswith("rotation.turns"):
        k = int(name[len("rotation.turns"):])
        M, _ = value
        if not mrs.is_admissible(p2_markings(), inputs["phase"]):
            return f"start phase {inputs['phase']} not admissible"
        want = _mat_pow(ref["monodromy_1"], k)
        G = ref["gram"]
        Mk = _int_matrix(M)
        if Mk != want:
            return f"M_{k} != M_1^{k}"
        if _mat_mul(_mat_mul(_transpose(Mk), G), Mk) != G:
            return f"M_{k} does not preserve the Gram"
        return None
    return f"no gate for {name}"


def _psi_input(name, inputs):
    for N, t in inputs["psi"]:
        if name == f"psi.N{N}.t{t:.6f}":
            return N, t
    raise KeyError(name)


def _zeta_input(name, inputs):
    for d, z in inputs["zeta"]:
        if name == f"zeta_reg.d{d:.6f}.z{z:.6f}":
            return d, z
    raise KeyError(name)


# --- traced layers --------------------------------------------------------

def _ring_tag(args):
    ring = args[0]
    return "connection.j_coefficients." + tag(ring.kind, ring.N, ring.r)


def _j_terms(args, J):
    return {"connection.j_terms": sum(1 for row in J for c in row.coeffs if c != 0)}


def _mutation_events(args, result):
    return {"mrs.mutation_events": len(result[1])}


def _cup_entries():
    seen = set()

    def count(args, ring):
        if id(ring) in seen:
            return {}
        seen.add(id(ring))
        table = getattr(ring, "cup_table", None) or {}
        return {"rings.cup_table_entries": sum(len(v) for v in table.values())}
    return count


def layers() -> list:
    """(module, function, span name, counter) for every traced call."""
    out = [(rings, "build_ring", "rings.build_ring", _cup_entries()),
           (charclasses, "gamma_class", "charclasses.gamma_class", None),
           (charclasses, "gamma_G_closed_form", "charclasses.gamma_G_closed_form", None),
           (charclasses, "kapranov_ch", "charclasses.kapranov_ch", None),
           (charclasses, "bracket_pairing", "charclasses.bracket_pairing", None),
           (charclasses, "zeta_reg_reciprocal_product", "charclasses.zeta_reg", None),
           (charclasses, "zeta_reg_closed_form", "charclasses.zeta_reg", None),
           (connection, "j_coefficients", _ring_tag, _j_terms),
           (connection, "spectrum", "connection.spectrum", None),
           (connection, "j_scaled", "connection.j_scaled", None),
           (asympt, "limit_ratio", "asympt.limit_ratio", None),
           (asympt, "apery_ratios", "asympt.apery_ratios", None),
           (asympt, "radius_estimate", "asympt.radius", None),
           (asympt, "mellin_psi", "asympt.psi_routes", None),
           (asympt, "psi_residue_sum", "asympt.psi_routes", None),
           (asympt, "psi_gamma_pi", "asympt.psi_routes", None),
           (asympt, "psi_asymptotic_constant", "asympt.psi_asymptotic_constant", None),
           (mrs, "beilinson_gamma_mrs", "mrs.gamma_mrs", None),
           (mrs, "kapranov_gamma_mrs", "mrs.gamma_mrs", None),
           (mrs, "mutate_phase_rotation", "mrs.mutate_phase_rotation", _mutation_events),
           (wedgecheck, "check_kapranov_wedge_identity",
            "wedgecheck.check_kapranov_wedge_identity", None),
           (wedgecheck, "check_mrs_wedge", "wedgecheck.check_mrs_wedge", None),
           (wedgecheck, "check_wedge_spectrum", "wedgecheck.check_wedge_spectrum", None),
           (cli, "main", "cli.main", None),
           (cli, "emit", "cli.emit", None)]
    out += [(verify, f"criterion_{k}", f"verify.criterion_{k}", None) for k in range(1, 12)]
    return out


SPAN_METRICS = sorted({f"{name}_s" for _, _, name, _ in layers() if isinstance(name, str)}
                      - {"cli.main_s"}
                      | {f"connection.j_coefficients.{tag(*t)}_s"
                         for t in RANK_TARGETS if t[0] == "G"})
COUNT_METRICS = ["rings.cup_table_entries", "charclasses.bracket_pairing_calls",
                 "connection.j_terms", "mrs.mutation_events"]


def symfunc_probe() -> dict:
    """Replay the cup-table Schur products of the rank_sweep Grassmannians
    and check them against the ring's cup product; times only the symfunc
    calls."""
    seconds, products, terms = 0.0, 0, 0
    for kind, N, r in RANK_TARGETS:
        if kind != "G":
            continue
        ring = rings.build_ring(kind, N, r)
        t0 = time.perf_counter()
        schur = {lam: symfunc.schur_poly(lam, r) for lam in ring.basis}
        expansions = {}
        for i, lam in enumerate(ring.basis):
            for j in range(i, ring.rank):
                mu = ring.basis[j]
                if sum(lam) + sum(mu) > ring.dim:
                    continue
                prod = symfunc.poly_mul(schur[lam], schur[mu], ring.dim)
                expansions[(i, j)] = symfunc.schur_expand(prod, r, ring.cols, ring.dim)
                products += 1
                terms += len(prod)
        seconds += time.perf_counter() - t0
        table = cup_products(ring)
        for (i, j), exp in expansions.items():
            got = [0] * ring.rank
            for nu, c in exp.items():
                got[ring.index[nu]] = c
            if got != table[i * ring.rank + j]:
                raise ArithmeticError(f"probe product ({i},{j}) differs on {tag(kind, N, r)}")
    return {"symfunc.schur_products_s": seconds, "symfunc.schur_products": products,
            "symfunc.poly_terms": terms}
