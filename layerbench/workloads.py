"""The three workloads: inputs made from the seed, and their operations.

Each workload's setup(seed, workdir) returns a list of Op.  An Op's
run() is the timed part; its check(output) runs outside the timed
interval, uses only the independent checks in checks.py and raises
CheckFailed on a wrong output.  bsfour is driven only through its
public functions and through in-process bsfour.cli.main(argv).
"""

import contextlib
import hashlib
import io
import json
import os
import random

from bsfour import cli, hermform, intlinalg, invariants
from bsfour.groupring import GroupRingElt

import checks
from checks import require

# The nonzero pattern of each transport matrix U depends on its rank
# only, and its entries are long freely reduced words, which rarely
# collide; certificate growth is steep in both, and so it does not swing
# from seed to seed.  The seed picks the signs of k, the words and the
# signs of U.
PATTERN_DENSITY = 0.35
WORD_LENGTH = 6


class Op:
    """One timed operation: run() returns its output, check() verifies
    it, extra_counts() gives the per-layer counts seen from outside.
    inputs describes everything the program is given, as plain data."""

    def __init__(self, name, inputs, run, check, extra_counts=None):
        self.name = name
        self.inputs = inputs
        self.run = run
        self.check = check
        self.extra_counts = extra_counts or (lambda output: {})


def signed_ks(rng, magnitudes):
    """Each magnitude once, with signs such that both signs occur among
    the even and among the odd ones."""
    out = []
    for parity in (0, 1):
        mags = [m for m in magnitudes if m % 2 == parity]
        signs = [1, -1] + [rng.choice((1, -1)) for _ in mags[2:]]
        rng.shuffle(signs)
        out += [sign * m for sign, m in zip(signs, mags)]
    return out


def transport_pattern(n):
    prng = random.Random("layerbench-pattern-%d" % n)
    return [(i, j) for i in range(n) for j in range(i + 1, n)
            if prng.random() < PATTERN_DENSITY]


def reduced_word(rng, length):
    word = ""
    while len(word) < length:
        letter = rng.choice("aAbB")
        if not word or word[-1] != letter.swapcase():
            word += letter
    return word


def unit_triangular(rng, k, n):
    """Unit upper triangular matrix with monomial entries +-w over the
    fixed pattern; w a random freely reduced word of WORD_LENGTH."""
    one, zero = GroupRingElt.one(k), GroupRingElt.zero(k)
    rows = [[one if i == j else zero for j in range(n)] for i in range(n)]
    for i, j in transport_pattern(n):
        word = reduced_word(rng, WORD_LENGTH)
        rows[i][j] = GroupRingElt.from_word(k, word, rng.choice((-1, 1)))
    return tuple(tuple(row) for row in rows)


def form_terms(rows):
    return [[list(p.terms.items()) for p in row] for row in rows]


def cli_inputs(argv, paths):
    """argv with each document path replaced by its name and digest."""
    out = []
    for arg in argv:
        if arg in paths:
            with open(arg, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            arg = "%s:%s" % (os.path.basename(arg), digest)
        out.append(arg)
    return out


def run_cli(argv):
    """In-process bsfour.cli.main; returns (exit code, stdout text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue()


def _cli_check(check_doc):
    def check(output):
        rc, text = output
        require(rc == 0, "exit code %r" % rc)
        check_doc(json.loads(text))
    return check


def _cli_counts(paths):
    size_in = sum(os.path.getsize(p) for p in paths)

    def counts(output):
        return {"cli.json_bytes_in": size_in,
                "cli.json_bytes_out": len(output[1].encode("utf-8"))}
    return counts


# -- certify --------------------------------------------------------------

CERTIFY_KS = (2, 3, 4, 5, 6, 7)
# (hyperbolic planes, E8 blocks, forms of this shape per k)
CERTIFY_SHAPES = ((1, 0, 2), (2, 0, 5), (3, 0, 1), (0, 1, 1), (1, 1, 2))


def _certify_op(k, r, s, U):
    def run():
        f = hermform.even_reference_form(k, r, s)
        g = hermform.congruence(f, U)
        verified = hermform.verify_inverse(g, g.inverse)
        par = hermform.parity(g)
        sig = intlinalg.signature(hermform.augment_form(g))
        return g, verified, par, sig, invariants.realize(k, g)

    def check(output):
        g, verified, par, sig, descriptors = output
        require(verified is True, "verify_inverse rejected the transport")
        require(g.inverse is not None, "congruence dropped the certificate")
        checks.check_certificate(form_terms(g.matrix), form_terms(g.inverse),
                                 k)
        require(par.value == "even", "parity %r, expected even" % par.value)
        require(sig == 8 * s, "signature %r, expected %d" % (sig, 8 * s))
        got = [(d.w2.value, d.ks) for d in descriptors]
        want = checks.expected_realize(k, 8 * s)
        require(got == want, "realize gave %r, expected %r" % (got, want))

    inputs = [k, r, s, [[sorted(t) for t in row] for row in form_terms(U)]]
    return Op("certify k=%d H^%d+E8^%d" % (k, r, s), inputs, run, check)


def setup_certify(seed, workdir):
    rng = random.Random("certify:%d" % seed)
    ops = []
    for k in signed_ks(rng, CERTIFY_KS):
        for r, s, count in CERTIFY_SHAPES:
            for _ in range(count):
                U = unit_triangular(rng, k, 2 * r + 8 * s)
                ops.append(_certify_op(k, r, s, U))
    return ops


# -- ksweep ---------------------------------------------------------------

# report cost is quadratic in |k| and lgroups cost grows like sqrt(p), so
# both are drawn from narrow bands: the seed moves the inputs, not the work
REPORT_BANDS = 12        # |k| in [10 + 20 j, 14 + 20 j), j < REPORT_BANDS
LGROUP_PRIME_RANGE = (2 * 10 ** 10, 204 * 10 ** 8)
LGROUP_COFACTORS = (2, 3, 4, 5, 6, 7)


def is_prime(n):
    """Deterministic Miller-Rabin for n < 3.3e24."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for p in bases:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _report_op(k):
    argv = ["report", "--k-range=%d..%d" % (k, k)]
    return Op("report k=%d" % k, argv, lambda: run_cli(argv),
              _cli_check(lambda doc: checks.check_report(doc, k)),
              _cli_counts([]))


def _lgroups_op(K):
    argv = ["lgroups", "--k", str(K)]
    return Op("lgroups k=%d" % K, argv, lambda: run_cli(argv),
              _cli_check(lambda doc: checks.check_lgroups(doc, K)),
              _cli_counts([]))


def setup_ksweep(seed, workdir):
    rng = random.Random("ksweep:%d" % seed)
    # signs alternate by band: a negative k costs more than a positive k
    # of the same size, so a seed-drawn sign would move the median
    ops = [_report_op((-1) ** j * rng.randrange(10 + 20 * j, 14 + 20 * j))
           for j in range(REPORT_BANDS)]
    for m in LGROUP_COFACTORS:
        p = rng.randrange(*LGROUP_PRIME_RANGE)
        while not is_prime(p):
            p += 1
        ops.append(_lgroups_op(m * p + 1))
    rng.shuffle(ops)
    return ops


# -- cli-docs -------------------------------------------------------------

def _write(workdir, name, doc):
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc))  # the C encoder; json.dump streams in Python
    return path


def _identity(k, n):
    return [[GroupRingElt.one(k) if i == j else GroupRingElt.zero(k)
             for j in range(n)] for i in range(n)]


def _form_op(path, source, k, rank, signature, try_invert):
    argv = ["form", path] + (["--try-invert"] if try_invert else [])

    def check_doc(doc):
        summary = doc["summary"]
        require(summary["certificated"] is True, "no certificate")
        require(summary["rank"] == rank and summary["k"] == k,
                "rank or k differ from the document")
        require(summary["parity"] == "even", "parity is not even")
        require(summary["signature"] == signature,
                "signature %r, expected %d" % (summary["signature"],
                                                signature))
        require(doc["form"]["matrix"] == source["matrix"],
                "the form matrix was not echoed unchanged")
        checks.check_form_doc(doc["form"])

    return Op("form%s k=%d rank %d" % (" --try-invert" if try_invert else "",
                                         k, rank),
              cli_inputs(argv, [path]), lambda: run_cli(argv),
              _cli_check(check_doc), _cli_counts([path]))


def _realize_op(path, source, k, signature):
    argv = ["realize", path]

    def check_doc(doc):
        got = [(d["w2"], d["ks"]) for d in doc["descriptors"]]
        want = checks.expected_realize(k, signature)
        require(doc["count"] == len(want) and got == want,
                "realize gave %r, expected %r" % (got, want))
        for d in doc["descriptors"]:
            require(d["form"] == source, "descriptor form differs from the"
                                         " document")

    return Op("realize k=%d" % k, cli_inputs(argv, [path]),
              lambda: run_cli(argv),
              _cli_check(check_doc), _cli_counts([path]))


class DescriptorChecks:
    """Certificates of the descriptor documents classify loads, checked
    once per run, at the first check of an operation that loads them."""

    def __init__(self):
        self.done = set()

    def check(self, paths):
        for path in paths:
            if path not in self.done:
                with open(path, encoding="utf-8") as fh:
                    checks.check_form_doc(json.load(fh)["form"])
                self.done.add(path)


def _classify_op(descriptors, first, second, isometry, expected, label):
    argv = ["classify", first, second]
    paths = [first, second]
    if isometry is not None:
        argv += ["--isometry", isometry]
        paths.append(isometry)

    def check_doc(doc):
        descriptors.check([first, second])
        checks.check_verdict(doc, expected)

    return Op("classify %s" % label, cli_inputs(argv, paths),
              lambda: run_cli(argv), _cli_check(check_doc),
              _cli_counts(paths))


def _write_pair(workdir, tag, k, f, U, ks):
    """Descriptors of f and of its transport g by U, with U, U^-1 and
    the identity as isometry documents.  Returns the paths and g."""
    g = hermform.congruence(f, U)
    require(g.matrix != f.matrix, "transport left the form unchanged")
    II = invariants.W2Type.II
    n = f.rank
    paths = {
        "f": invariants.ManifoldDescriptor(k, f, II, ks).to_json(),
        "g": invariants.ManifoldDescriptor(k, g, II, ks).to_json(),
        "U": hermform.matrix_to_json(U, k),
        "U^-1": hermform.matrix_to_json(hermform.isometry_inverse(U, k), k),
        "1": hermform.matrix_to_json(_identity(k, n), k),
    }
    for key, doc in paths.items():
        paths[key] = _write(workdir, "%s-r%d-%s.json"
                            % (tag, n, key.replace("^", "")), doc)
    return paths, g


CLI_DOCS_KS = (2, 3, 4, 5)


def setup_cli_docs(seed, workdir):
    rng = random.Random("cli-docs:%d" % seed)
    descriptors = DescriptorChecks()

    def classify(*args):
        return _classify_op(descriptors, *args)

    ops = []
    for k in signed_ks(rng, CLI_DOCS_KS):
        tag = "k%d" % k
        # bare transported hyperbolic forms, for form --try-invert
        for r in (1, 2, 3):
            g = hermform.congruence(hermform.hyperbolic(k, r),
                                    unit_triangular(rng, k, 2 * r))
            doc = hermform.matrix_to_json(g.matrix, k)
            path = _write(workdir, "%s-bare-%d.json" % (tag, r), doc)
            ops.append(_form_op(path, doc, k, 2 * r, 0, True))
        # certificated forms H, H^2 and E8, transported, for form and realize
        for r, s in ((1, 0), (2, 0), (0, 1)):
            g = hermform.congruence(hermform.even_reference_form(k, r, s),
                                    unit_triangular(rng, k, 2 * r + 8 * s))
            doc = g.to_json()
            path = _write(workdir, "%s-form-%d-%d.json" % (tag, r, s), doc)
            ops.append(_form_op(path, doc, k, g.rank, 8 * s, False))
            ops.append(_realize_op(path, doc, k, 8 * s))
        # descriptor pairs over H^2: verdicts from isometry certificates
        h2, _ = _write_pair(workdir, tag, k, hermform.hyperbolic(k, 2),
                            unit_triangular(rng, k, 4), 0)
        small = _write(workdir, tag + "-desc-h1.json",
                       invariants.ManifoldDescriptor(
                           k, hermform.hyperbolic(k, 1),
                           invariants.W2Type.II, 0).to_json())
        ops += [
            classify(h2["g"], h2["f"], h2["U"], "Homeomorphic",
                     "k=%d H^2 with U" % k),
            classify(h2["f"], h2["g"], h2["U^-1"], "Homeomorphic",
                     "k=%d H^2 reversed with U^-1" % k),
            classify(h2["g"], h2["f"], h2["1"], "Unknown",
                     "k=%d H^2 identity" % k),
            classify(small, h2["g"], None, "NotHomeomorphic",
                     "k=%d rank differs" % k),
        ]
        # descriptor pairs over E8
        e8, g = _write_pair(workdir, tag, k,
                            hermform.even_reference_form(k, 0, 1),
                            unit_triangular(rng, k, 8), 1)
        if k % 2:
            other = invariants.ManifoldDescriptor(k, g, invariants.W2Type.III,
                                                  1)
            label = "w2 differs"
        else:
            other = invariants.ManifoldDescriptor(
                k, hermform.hyperbolic(k, 4), invariants.W2Type.II, 0)
            label = "signature differs"
        other = _write(workdir, tag + "-desc-e8-other.json", other.to_json())
        ops += [
            classify(e8["g"], e8["f"], e8["U"], "Homeomorphic",
                     "k=%d E8 with U" % k),
            classify(e8["f"], other, None, "NotHomeomorphic",
                     "k=%d E8 %s" % (k, label)),
        ]
    return ops


WORKLOADS = {
    "certify": setup_certify,
    "ksweep": setup_ksweep,
    "cli-docs": setup_cli_docs,
}
