"""Output checks for the benchmark workloads.

Every expectation here is computed apart from the program or taken from
the paper: the closed-form bond-only equilibrium, the critical set built
from the eigenvalue ratio 4 : 2 : 1, and the degree and invariant tables
and the seven families of ``tests/_golden.py`` (imported read-only).  No
check compares against a stored copy of an earlier output.

Each ``check_*`` function takes the text one invocation wrote to stdout and
raises ``CheckFailed`` with a one-line reason when the text is wrong.
"""
from __future__ import annotations

import importlib.util
import json
import math
import os
import re
from fractions import Fraction

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN_PATH = os.path.join(ROOT, "tests", "_golden.py")

# acceptance criterion 8 of the test suite
MAX_RESIDUAL = 1e-9
MAX_PREDICATE = 1e-8
MAX_ENERGY_SPREAD = 1e-8
MAX_LAMBDA_ERROR = 1e-4

# bond-only potential: pair squared separation s_o = 1, circumradius
# r_o = sqrt(3/8), nu0^2 = 2 and mu = nu0^2 * (4, 2, 1)
R_O = math.sqrt(3.0 / 8.0)
NU0_SQ = 2.0
MU_RATIO = (4, 2, 1)
MU = tuple(NU0_SQ * r for r in MU_RATIO)
TARGET_AMPLITUDE = 0.05

_CANONICAL = re.compile(r"^\((\w+)\^(\w+)_(\w+) x_(\w+) (\w+)\)$")


class CheckFailed(AssertionError):
    """An output disagrees with an independently known value."""


def _require(cond, message, *args):
    if not cond:
        raise CheckFailed(message % args if args else message)


def _close(a, b, tol):
    return abs(a - b) <= tol * max(1.0, abs(b))


def load_golden():
    """The golden tables module, loaded from its file without importing the
    test package (so that nothing of the test suite runs)."""
    spec = importlib.util.spec_from_file_location("_golden", GOLDEN_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# ---------------------------------------------------------------------------
# independent expectations

def critical_set(l_max):
    """[(value, contributors)] of lambda_{j,l} = l / sqrt(mu_j), l <= l_max.

    Resonances are found exactly: lambda^2 * mu_2 = l^2 / r_j with r_j from
    the ratio 4 : 2 : 1."""
    groups = {}
    for j, r in enumerate(MU_RATIO):
        for l in range(1, l_max + 1):
            groups.setdefault(Fraction(l * l, r), []).append((j, l))
    return [(math.sqrt(float(key) / MU[2]), sorted(contribs))
            for key, contribs in sorted(groups.items())]


def isolatable(l_max):
    """[(value, contributors, lam_minus, lam_plus)] of the critical numbers
    whose straddling window (geometric midpoints of the neighbouring gaps)
    lies below the first mode beyond the cutoff, (l_max + 1) / sqrt(mu_0)."""
    crits = critical_set(l_max)
    unseen = (l_max + 1) / math.sqrt(MU[0])
    out = []
    for pos, (value, contribs) in enumerate(crits[:-1]):
        lam_minus = (math.sqrt(crits[pos - 1][0] * value) if pos
                     else 0.5 * value)
        lam_plus = math.sqrt(value * crits[pos + 1][0])
        if lam_plus < unseen:
            out.append((value, contribs, lam_minus, lam_plus))
    return out


def parse_canonical(text):
    """(H, Z, R, L, K) of a canonical class name (H^Z_R x_L K)."""
    m = _CANONICAL.match(text)
    _require(m is not None, "malformed canonical class name %r", text)
    return m.groups()


def _matches(name, h, z, r, l_label, k_order):
    ch, cz, cr, cl, ck = parse_canonical(name)
    return (ch, cz, cl, ck) == (h, z, l_label, "D%d" % k_order) and (
        r is None or cr == r)


def _match_terms(terms, golden, what):
    """Terms ({canonical, coeff}) equal the golden list (coeff, H, Z, R, L, k)
    term for term, each golden entry matching exactly one term; a coeff of
    None matches any coefficient."""
    _require(len(terms) == len(golden), "%s: %d terms, expected %d",
             what, len(terms), len(golden))
    used = set()
    for coeff, h, z, r, l_label, k in golden:
        hits = [i for i, t in enumerate(terms)
                if _matches(t["canonical"], h, z, r, l_label, k)]
        _require(len(hits) == 1, "%s: %s^%s x_%s D%d matched %d terms",
                 what, h, z, l_label, k, len(hits))
        used.add(hits[0])
        got = terms[hits[0]]["coeff"]
        _require(coeff is None or got == coeff,
                 "%s: coefficient of %s is %r, expected %r",
                 what, terms[hits[0]]["canonical"], got, coeff)
    _require(len(used) == len(terms), "%s: unmatched terms", what)


def _in_degree_table(golden, j, l, name):
    """The class sits in the basic degree Deg_{j,l} (K-orders scale by l)."""
    return any(_matches(name, h, z, r, l_label, k * l)
               for _, h, z, r, l_label, k in golden.DEGREE_TABLES[j])


# ---------------------------------------------------------------------------
# shared pieces

def _load_json(text):
    try:
        return json.loads(text)
    except ValueError as exc:
        raise CheckFailed("output is not JSON: %s" % exc)


def _check_meta(doc, seed, command):
    _require(doc.get("meta") == {"seed": seed, "command": command},
             "meta is %r", doc.get("meta"))


def _check_equilibrium(eq):
    _require(_close(eq["r_o"], R_O, 1e-12), "r_o = %r", eq["r_o"])
    _require(_close(eq["s_o"], 1.0, 1e-12), "s_o = %r", eq["s_o"])
    _require(_close(eq["nu0_sq"], NU0_SQ, 1e-10), "nu0^2 = %r", eq["nu0_sq"])
    for got, want in zip(eq["mu"], MU):
        _require(_close(got, want, 1e-10), "mu = %r", eq["mu"])
    for got, want in zip(eq["lam_critical"], MU):
        _require(_close(got, 1.0 / math.sqrt(want), 1e-10),
                 "lam_critical = %r", eq["lam_critical"])
    u = np.asarray(eq["u_o"], dtype=float)
    _require(u.shape == (4, 3), "u_o has shape %s", u.shape)
    _require(np.allclose(u.sum(axis=0), 0.0, atol=1e-12),
             "u_o is not centred")
    _require(np.allclose(np.linalg.norm(u, axis=1), R_O, atol=1e-12),
             "u_o does not lie on the circumsphere")
    d = [np.linalg.norm(u[a] - u[b]) for a in range(4) for b in range(a)]
    _require(np.allclose(d, 1.0, atol=1e-12), "u_o is not a unit tetrahedron")


def _bond_hessian_spectrum():
    """Eigenvalues of the bond-only Hessian at a unit regular tetrahedron.

    At rest length each bond w (|d| - 1)^2 contributes 2 w e e^T on the
    (a, a), (b, b) blocks and its negative on (a, b), with e the unit bond
    direction; this assembles the 12 x 12 matrix without the program."""
    u = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, -1.0],
                  [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]]) / math.sqrt(8.0)
    h = np.zeros((12, 12))
    for a in range(4):
        for b in range(a):
            e = u[a] - u[b]
            block = 2.0 * np.outer(e, e) / float(e @ e)
            for p, q, sign in ((a, a, 1), (b, b, 1), (a, b, -1), (b, a, -1)):
                h[3 * p:3 * p + 3, 3 * q:3 * q + 3] += sign * block
    return np.linalg.eigvalsh(h)


def _check_spectrum(spec):
    _require(len(spec["mu"]) == 3, "spectrum has %d mu", len(spec["mu"]))
    for got, want in zip(spec["mu"], MU):
        _require(_close(got, want, 1e-10), "spectrum mu = %r", spec["mu"])
    for got, want in zip(spec["ratios"], MU_RATIO):
        _require(_close(got, want, 1e-10), "ratios = %r", spec["ratios"])
    _require(spec["zero_modes"] == 3, "zero modes = %r", spec["zero_modes"])
    # the slice drops the three translations of the full spectrum
    full = np.sort(_bond_hessian_spectrum())[3:]
    got = np.sort(np.asarray(spec["slice_eigenvalues"], dtype=float))
    _require(got.shape == full.shape and np.allclose(got, full, atol=1e-10),
             "slice eigenvalues %r", spec["slice_eigenvalues"])
    mults = [int(np.sum(np.abs(full - m) < 1e-9)) for m in MU]
    _require(spec["slice_multiplicities"] == mults,
             "slice multiplicities %r, expected %r",
             spec["slice_multiplicities"], mults)


def _check_representation(rep):
    table = np.asarray(rep["character_table"], dtype=float)
    sizes = np.asarray(rep["class_sizes"], dtype=float)
    _require(sizes.sum() == 24, "class sizes %r", rep["class_sizes"])
    # orthonormal rows: the table really is the character table of S4
    gram = (table * sizes) @ table.T / 24.0
    _require(np.allclose(gram, np.eye(len(table))),
             "character table rows are not orthonormal")
    _require(list(table[:, 0].astype(int)) == rep["irrep_dims"],
             "irrep dims %r", rep["irrep_dims"])
    # particles permuted and space rotated: fixed particles x spatial trace
    # (cycle types e, (12), (12)(34), (123), (1234); the transposition and
    # the 4-cycle act as reflection and rotoreflection of the tetrahedron)
    expected = [4 * 3, 2 * 1, 0 * -1, 1 * 0, 0 * -1]
    _require(rep["representation_character"] == expected,
             "representation character %r", rep["representation_character"])
    mults = (table * sizes) @ np.asarray(expected, dtype=float) / 24.0
    _require(rep["multiplicities"] == [int(round(m)) for m in mults],
             "multiplicities %r", rep["multiplicities"])


def _check_invariant(inv, want, what):
    value, contribs, lam_minus, lam_plus = want
    _require(_close(inv["critical_value"], value, 1e-12),
             "%s: critical value %r, expected %r", what,
             inv["critical_value"], value)
    _require([tuple(c) for c in inv["contributors"]] == contribs,
             "%s: contributors %r, expected %r", what,
             inv["contributors"], contribs)
    _require(_close(inv["lam_minus"], lam_minus, 1e-12)
             and _close(inv["lam_plus"], lam_plus, 1e-12),
             "%s: window (%r, %r)", what, inv["lam_minus"], inv["lam_plus"])
    omega = {t["canonical"]: t["coeff"] for t in inv["omega"]}
    _require(len(omega) == len(inv["omega"]) and all(
        isinstance(c, int) and c for c in omega.values()),
        "%s: omega terms are not distinct nonzero integers", what)
    _require(inv["maximal"], "%s: no maximal class", what)
    for t in inv["maximal"]:
        _require(omega.get(t["canonical"]) == t["coeff"],
                 "%s: maximal %s is not a term of omega", what,
                 t["canonical"])
    _require(len(inv["descriptions"]) == len(inv["maximal"]),
             "%s: %d descriptions for %d maximal classes", what,
             len(inv["descriptions"]), len(inv["maximal"]))


_GOLDEN_INVARIANTS = (("OMEGA_01", "MAXIMAL_01"), ("OMEGA_11", "MAXIMAL_11"),
                      ("OMEGA_21", "MAXIMAL_21"))


def _check_invariants(invariants, l_max, golden):
    want = isolatable(l_max)
    _require(len(invariants) == len(want), "%d invariants, expected %d",
             len(invariants), len(want))
    for i, (inv, w) in enumerate(zip(invariants, want)):
        _check_invariant(inv, w, "invariant %d" % i)
    # the paper's invariants at the first three critical numbers
    for inv, (omega, maximal) in zip(invariants, _GOLDEN_INVARIANTS):
        _match_terms(inv["omega"], getattr(golden, omega), omega)
        _match_terms(inv["maximal"],
                     [(None,) + g for g in getattr(golden, maximal)], maximal)
    # the first invariant is the non-unit part of Deg_{0,1}
    _match_terms(invariants[0]["omega"], golden.DEGREE_TABLES[0], "Deg_{0,1}")


def _check_families(families, invariants, golden):
    _require(len(families) >= len(golden.FAMILIES), "%d families",
             len(families))
    for f, (j, l, h, z, r, l_label, k) in zip(families, golden.FAMILIES):
        _require((f["j"], f["l"]) == (j, l)
                 and _matches(f["canonical"], h, z, r, l_label, k),
                 "family %s (%d, %d), expected %s^%s x_%s D%d (%d, %d)",
                 f["canonical"], f["j"], f["l"], h, z, l_label, k, j, l)
    by_value = {inv["critical_value"]: inv for inv in invariants}
    for f in families:
        inv = by_value.get(f["critical_value"])
        _require(inv is not None, "family %s has no invariant",
                 f["canonical"])
        _require([f["j"], f["l"]] in inv["contributors"],
                 "family %s: mode (%d, %d) does not contribute", f["canonical"],
                 f["j"], f["l"])
        _require({"canonical": f["canonical"], "class": f["class"],
                  "coeff": f["coeff"]} in inv["maximal"],
                 "family %s is not a maximal class of its invariant",
                 f["canonical"])
        _require(_in_degree_table(golden, f["j"], f["l"], f["canonical"]),
                 "family %s is not a term of Deg_{%d,%d}", f["canonical"],
                 f["j"], f["l"])


def _check_branch_summary(b, family):
    name = b["canonical"]
    _require((b["canonical"], b["class"], b["j"], b["l"])
             == (family["canonical"], family["class"], family["j"],
                 family["l"]), "branch %s does not follow its family", name)
    _require(b["final_residual"] < MAX_RESIDUAL, "branch %s residual %r",
             name, b["final_residual"])
    _require(b["max_predicate_residual"] < MAX_PREDICATE,
             "branch %s predicate residual %r", name,
             b["max_predicate_residual"])
    _require(b["energy_spread"] < MAX_ENERGY_SPREAD,
             "branch %s energy spread %r", name, b["energy_spread"])
    _require(b["final_amplitude"] >= TARGET_AMPLITUDE,
             "branch %s stopped at amplitude %r", name, b["final_amplitude"])
    lam_star = b["l"] / math.sqrt(MU[b["j"]])
    _require(abs(b["frequency_extrapolation"] - lam_star) < MAX_LAMBDA_ERROR,
             "branch %s extrapolates to %r, expected %r", name,
             b["frequency_extrapolation"], lam_star)


# ---------------------------------------------------------------------------
# per-workload checks

def check_report(text, seed, golden):
    """`tetravib report` with the default config (l_max = 2)."""
    doc = _load_json(text)
    _check_meta(doc, seed, "report")
    _check_equilibrium(doc["equilibrium"])
    _check_spectrum(doc["spectrum"])
    _check_representation(doc["representation"])
    _check_invariants(doc["invariants"], 2, golden)
    _require(len(doc["families"]) == len(golden.FAMILIES),
             "%d families, expected %d", len(doc["families"]),
             len(golden.FAMILIES))
    _check_families(doc["families"], doc["invariants"], golden)
    _require(len(doc["branches"]) == len(doc["families"]),
             "%d branches for %d families", len(doc["branches"]),
             len(doc["families"]))
    for b, f in zip(doc["branches"], doc["families"]):
        _check_branch_summary(b, f)


def check_invariants(text, seed, golden, l_max):
    """`tetravib invariants` with the given l_max."""
    doc = _load_json(text)
    _check_meta(doc, seed, "invariants")
    _check_invariants(doc["invariants"], l_max, golden)
    _check_families(doc["families"], doc["invariants"], golden)


def check_branch(text, j, l, n_predicates):
    """JSONL rows of `tetravib branch` on a class with n_predicates
    non-identity elements, started at mode (j, l)."""
    try:
        rows = [json.loads(line) for line in text.splitlines()]
    except ValueError as exc:
        raise CheckFailed("branch row is not JSON: %s" % exc)
    _require(len(rows) >= 4, "only %d branch rows", len(rows))
    amps = [r["amplitude"] for r in rows]
    _require(all(a < b for a, b in zip(amps, amps[1:])),
             "amplitudes do not increase")
    _require(amps[-1] >= TARGET_AMPLITUDE, "branch stopped at amplitude %r",
             amps[-1])
    for i, r in enumerate(rows):
        _require(r["residual"] < MAX_RESIDUAL, "row %d residual %r", i,
                 r["residual"])
        preds = r["predicate_residuals"]
        _require(len(preds) == n_predicates, "row %d has %d predicates", i,
                 len(preds))
        _require(max(preds) < MAX_PREDICATE, "row %d predicate residual %r",
                 i, max(preds))
    # lambda(s) = lambda_* + c s^2 through the four smallest amplitudes
    low = sorted(rows, key=lambda r: r["amplitude"])[:4]
    a = np.array([[1.0, r["amplitude"] ** 2] for r in low])
    y = np.array([r["lambda"] for r in low])
    lam_fit = float(np.linalg.lstsq(a, y, rcond=None)[0][0])
    lam_star = l / math.sqrt(MU[j])
    _require(abs(lam_fit - lam_star) < MAX_LAMBDA_ERROR,
             "branch extrapolates to %r, expected %r", lam_fit, lam_star)
