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
    "28f2a955b58a133ff281b06fffb943870533c9d03045d636b3409c5ba0a947d2")

# the same of `tetravib branch --class "(D3^Z1 x_D3 D3)" --j 1 --l 1` at
# `[analysis] n_modes = 64`
BRANCH_N64_SHA256 = (
    "e9cf32ef55fef70e023ec1053e3908767055c90364a5120a23aa00c210a53fa5")

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
        "daa3a6dc25941734f1a8f9bbc93eba0e691d283eb5f0cb4e228c057259e62695",
        "d94e0bc9e0b18da54a397e1d10b387fa242c1bed8f9a42ddf6c67b5afdf5ad56"),
    "0ddd86936b14a184": (                                       # SandyBridge
        "bf32b8ba05916a6a1539692c24b0e9c1647cb27cf3330a6b7b5e6b70410228c2",
        "4050c0f6237e86601ebfa981f0d0d352e40fdd31ca22404efee2b5840d4962c6"),
    "22ebc880bc066ce6": (                                       # Nehalem
        "4e704601d1197ec25f97e180f3b0369d8ba92d5ee1ccb2c7b5a796f9fb15287f",
        "6f2c8bd30c5c34b7972939e5ff9fd2f6703344cfbada496d60a2c1b3c7378b05"),
    "42cc3ddcbc3e9a98": (                                       # Prescott
        "beac4a6e3f11d2dacc71d2b8f4fb6bbcffef187dce45dd5fae59751187f0cce6",
        "5bdc4f4833ba3d09cd9b2b31e1408bd4e5825c8c1e694cfb9771754c84c78edb"),
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
