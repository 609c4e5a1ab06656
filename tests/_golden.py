"""Frozen reference data for the degree tables and invariants.

Each term is (coeff, H, Z, R, L, k) with R set only where required to
disambiguate; in the degree tables k is a multiplier (K = D_{k*l}), in the
invariant lists it is the absolute K-order.  The unit class (S4 x O2) always
carries coefficient +1 in a basic degree and is listed separately.
"""

# non-unit terms of the five basic degrees, one list per isotypic index
DEGREE_TABLES = {
    0: [(-1, "S4", "S4", None, "Z1", 1)],
    1: [(-1, "D4", "Z1", None, "D4", 4),
        (-1, "D4", "D2", None, "Z2", 2),
        (-1, "D3", "Z1", None, "D3", 3),
        (-1, "D3", "D3", None, "Z1", 1),
        (-1, "D2", "D1", None, "Z2", 2),
        (+1, "D2", "Z1", "Z2", "D2", 2),
        (+1, "V4", "Z1", None, "D2", 2),
        (+1, "D2", "D1", None, "D1", 1),
        (+1, "Z2", "Z1", None, "Z2", 2),
        (+2, "D1", "D1", None, "Z1", 1),
        (-1, "Z2", "Z1", None, "D1", 1),
        (-1, "Z1", "Z1", None, "Z1", 1)],
    2: [(-1, "S4", "V4", None, "D3", 3),
        (-1, "D4", "V4", None, "Z2", 2),
        (-1, "D4", "D4", None, "Z1", 1),
        (+2, "D4", "V4", None, "D1", 1),
        (+1, "V4", "V4", None, "Z1", 1)],
    3: [(-1, "D4", "Z1", None, "D4", 4),
        (-1, "D4", "Z4", None, "Z2", 2),
        (-1, "D3", "Z1", None, "D3", 3),
        (-1, "D3", "Z3", None, "Z2", 2),
        (-1, "D2", "D1", None, "Z2", 2),
        (+1, "D2", "Z1", "D1", "D2", 2),
        (+1, "D2", "Z1", "Z2", "D2", 2),
        (+1, "V4", "Z1", None, "D2", 2),
        (+2, "D1", "Z1", None, "Z2", 2),
        (+1, "Z2", "Z1", None, "Z2", 2),
        (-1, "Z2", "Z1", None, "D1", 1),
        (-1, "Z1", "Z1", None, "Z1", 1)],
    4: [(-1, "S4", "A4", None, "Z2", 2)],
}

# bifurcation invariants at the first three critical numbers (k absolute)
OMEGA_01 = [(-1, "S4", "S4", None, "Z1", 1)]

OMEGA_11 = [(-1, "D4", "Z1", None, "D4", 4),
            (-1, "D4", "D2", None, "Z2", 2),
            (+1, "D4", "D2", None, "D1", 1),
            (-1, "D3", "Z1", None, "D3", 3),
            (+1, "D3", "D3", None, "Z1", 1),
            (-1, "D2", "D1", None, "Z2", 2),
            (+1, "D2", "Z1", "Z2", "D2", 2),
            (+1, "V4", "Z1", None, "D2", 2),
            (+1, "D2", "D2", None, "Z1", 1),
            (+1, "Z2", "Z1", None, "Z2", 2),
            (-1, "D1", "D1", None, "Z1", 1),
            (+1, "D1", "Z1", None, "D1", 1),
            (-1, "Z2", "Z1", None, "D1", 1)]

OMEGA_21 = [(-1, "S4", "V4", None, "D3", 3),
            (-1, "S4", "S4", None, "Z1", 2),
            (+2, "S4", "S4", None, "Z1", 1),
            (+2, "D4", "D2", None, "Z2", 2),
            (+1, "D4", "V4", None, "Z2", 2),
            (-1, "D4", "Z2", "Z4", "D2", 2),
            (-1, "D4", "D2", None, "D1", 1),
            (-1, "D4", "D4", None, "Z1", 1),
            (+1, "D4", "V4", None, "D1", 1),
            (+2, "D3", "Z1", None, "D3", 3),
            (-2, "D3", "D3", None, "Z1", 1),
            (+2, "D2", "D1", None, "Z2", 2),
            (-1, "D2", "Z1", "D1", "D2", 2),
            (-1, "D2", "Z1", "Z2", "D2", 2),
            (-1, "V4", "Z1", None, "D2", 2),
            (-1, "Z4", "Z2", None, "Z2", 2),
            (-1, "D2", "D1", None, "D1", 1),
            (-1, "D2", "D2", None, "Z1", 1),
            (-1, "D1", "Z1", None, "Z2", 2),
            (-2, "Z2", "Z1", None, "Z2", 2),
            (+1, "D1", "D1", None, "Z1", 1),
            (+3, "Z2", "Z1", None, "D1", 1),
            (+1, "Z1", "Z1", None, "Z1", 1)]

# maximal classes of the invariants, and the independent families
MAXIMAL_01 = [("S4", "S4", None, "Z1", 1)]
MAXIMAL_11 = [("D4", "Z1", None, "D4", 4),
              ("D4", "D2", None, "Z2", 2),
              ("D3", "Z1", None, "D3", 3),
              ("D3", "D3", None, "Z1", 1),
              ("D2", "D1", None, "Z2", 2)]
MAXIMAL_21 = [("S4", "V4", None, "D3", 3),
              ("S4", "S4", None, "Z1", 2)]

# (j, l, H, Z, R, L, k): the seven independent branch families
FAMILIES = [(0, 1, "S4", "S4", None, "Z1", 1),
            (1, 1, "D4", "Z1", None, "D4", 4),
            (1, 1, "D4", "D2", None, "Z2", 2),
            (1, 1, "D3", "Z1", None, "D3", 3),
            (1, 1, "D3", "D3", None, "Z1", 1),
            (1, 1, "D2", "D1", None, "Z2", 2),
            (2, 1, "S4", "V4", None, "D3", 3)]


# the "branches" of the default `tetravib report` (bond potential, l_max 2,
# n_modes 16), in report order: (class, j, l, steps, brake, final_amplitude,
# final_lambda, frequency_extrapolation); the floats hold to 1e-12 relative
BRANCHES = [
    ("(S4 x D1)", 0, 1, 11, True, 0.050004999999999994,
     0.35355339059327373, 0.3535533905932736),
    ("(D4^Z1 x_D4 D4)", 1, 1, 11, False, 0.050004999999999994,
     0.4999982231173889, 0.5000000000002967),
    ("(D4^D2 x_Z2 D2)", 1, 1, 11, True, 0.050004999999999994,
     0.4999893423201482, 0.49999999999763706),
    ("(D3^Z1 x_D3 D3)", 1, 1, 11, False, 0.050005,
     0.5000236848487826, 0.5000000000040887),
    ("(D3 x D1)", 1, 1, 11, True, 0.050005,
     0.5000912729020867, 0.4999999999208456),
    ("(D2^D1 x_Z2 D2)", 1, 1, 11, True, 0.050005,
     0.5000657382434462, 0.49999999999710604),
    ("(S4^V4 x_D3 D3)", 2, 1, 11, False, 0.050005000000000015,
     0.7070364724385559, 0.7071067811398085),
]


# sha256 of the stdout of `tetravib invariants` with `[analysis] l_max = 4`
INVARIANTS_L4_SHA256 = (
    "b1ff3be00c19647c73f4c11b97977d8c346a1917e457a8ac23637bac9ed15479")

# the same at `[analysis] l_max = 8`
INVARIANTS_L8_SHA256 = (
    "8c3d22a8b263803b5fbeb71a48889cb8fd8e59a3604358465901b8f51b584ed4")

# the same at `[analysis] l_max = 16`, whose window holds many more
# critical numbers and resonances
INVARIANTS_L16_SHA256 = (
    "e6ccade3e3b4e0be3777ddcae39373e4ea9fca2b65a49849b54ecd4314eb42bd")

# sha256 of the stdout of the default `tetravib report`
REPORT_SHA256 = (
    "32c3aaf86386387c87bb9710b111be86f6f665f064ef729d8b4e5fd19fdc4387")

# the same of `tetravib branch --class "(D3^Z1 x_D3 D3)" --j 1 --l 1` at
# `[analysis] n_modes = 64`
BRANCH_N64_SHA256 = (
    "e59bd8878f680a0fbb1a2323ea5b1093677bc77ccc159b4c9b439a8a1dbf774c")

# Both sha256s above are those of the reference host's OpenBLAS kernel,
# SkylakeX.  OpenBLAS picks its kernel by CPU, and dsyrk, dpotrf and dsyevd
# round differently on each, so the bytes differ from kernel to kernel.
# This script, run in a fresh interpreter on the program's one BLAS thread,
# prints a fingerprint of the kernel: a sha256 prefix of the Cholesky factor
# and the eigenvalues of a fixed matrix, built by division alone.  A matrix
# product alone gives the same bytes on SandyBridge and Nehalem.
KERNEL_FINGERPRINT = """\
import hashlib
import tetravib
import numpy as np
i = np.arange(64.0)
s = 1.0 / (1.0 + np.abs(i[:, None] - i)) + np.diag(1.0 + i / 64.0)
print(hashlib.sha256(np.linalg.cholesky(s).tobytes()
                     + np.linalg.eigvalsh(s).tobytes()).hexdigest()[:16])
"""

# the kernels that OPENBLAS_CORETYPE forces on the reference host
FORCED_KERNELS = ("Haswell", "SandyBridge", "Nehalem", "Prescott")

# (report, branch_n64) sha256s by kernel fingerprint: the reference host's
# own kernel and the four forced ones; `python tests/_golden.py` prints this
# table afresh
KERNEL_SHA256 = {
    "87739d5907da4d9f": (REPORT_SHA256, BRANCH_N64_SHA256),     # SkylakeX
    "93141406e1e7af40": (                                       # Haswell
        "71d043ae5d6ca63daadd1bdce035ebbe0054c0754dba144daf9c2739082d47be",
        "bbd0a0aebb46041650eb8ebd714862fc4f52ed08f63555151f2dd34ecf9a7d53"),
    "0ddd86936b14a184": (                                       # SandyBridge
        "a4dc63cca602a7e900f84f6396d21e7bcec76e6da54146b3b0ba31efe418c51d",
        "4c4165c1bdd5a36fefd04b91c8e14204e2630cd9661f286dde650fc68becd3e7"),
    "22ebc880bc066ce6": (                                       # Nehalem
        "990ff3d6611ce490ad276317af2bf9e681fbcbc44c0b92f7414a5991abfd948c",
        "d8c7f69a0d5ee569208fe5e7ebdefa333a8917a5d24d59eeda0f566ced1c39de"),
    "42cc3ddcbc3e9a98": (                                       # Prescott
        "3c6132ba0e78de2f2167484d4b20933f3f6098703f433bef285598d5213f5488",
        "ccb31ec00bfdd8fd8153168adbfb8fe0deafb0d17f1075a393b1d2d9b13bc031"),
}


def kernel_sha256(fingerprint):
    """The (report, branch_n64) sha256s recorded for the kernel of this
    fingerprint; a kernel not recorded fails, and the failure names it."""
    assert fingerprint in KERNEL_SHA256, (
        "no byte pins recorded for the BLAS kernel of fingerprint %r"
        % fingerprint)
    return KERNEL_SHA256[fingerprint]


def lookup(universe, h, z, r, l_label, k_order):
    """Resolve one golden tuple to the universe's class object by its printed
    name, (H x Dk) or (H^Z[_R] x_L Dk)."""
    if l_label == "Z1":
        return universe.parse_class("(%s x D%d)" % (h, k_order))
    return universe.parse_class("(%s^%s%s x_%s D%d)" % (
        h, z, "_" + r if r else "", l_label, k_order))


def as_class_set(universe, entries, scale=1):
    """{class: coeff} for a golden term list, K-orders scaled by `scale`."""
    out = {}
    for coeff, h, z, r, l_label, k in entries:
        out[lookup(universe, h, z, r, l_label, k * scale)] = coeff
    return out


if __name__ == "__main__":
    # the KERNEL_SHA256 table of this host: the fingerprint and the report
    # and branch_n64 sha256s of its own kernel and of each forced one, each
    # from a fresh interpreter on one BLAS thread
    import hashlib
    import os
    import subprocess
    import sys
    import tempfile

    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")

    def run(args, core):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1",
                   OPENBLAS_VERBOSE="2")
        env.pop("OPENBLAS_CORETYPE", None)
        if core:
            env["OPENBLAS_CORETYPE"] = core
        proc = subprocess.run([sys.executable, *args], capture_output=True,
                              text=True, env=env, timeout=120, check=True)
        return proc.stdout, proc.stderr

    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "n64.toml")
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.write("[analysis]\nn_modes = 64\n")
        print("KERNEL_SHA256 = {")
        for core in (None, *FORCED_KERNELS):
            fingerprint, log = run(("-c", KERNEL_FINGERPRINT), core)
            # OPENBLAS_VERBOSE=2 names the host's kernel on stderr as
            # "Core: ..."
            name = core or next((line.split(":", 1)[1].strip()
                                 for line in log.splitlines()
                                 if line.startswith("Core:")), "default")
            digests = [hashlib.sha256(run(
                ("-m", "tetravib.cli", *argv), core)[0].encode()).hexdigest()
                for argv in (("report",),
                             ("--config", cfg, "branch", "--class",
                              "(D3^Z1 x_D3 D3)", "--j", "1", "--l", "1"))]
            print('    "%s": (%s# %s' % (fingerprint.strip(), " " * 39, name))
            print('        "%s",\n        "%s"),' % tuple(digests))
        print("}")
