"""Compare the bsfour command line of two source trees, byte for byte.

    python3 tools/cli_identity.py OLD_SRC NEW_SRC

Runs one fixed command set through bsfour.cli.main, in-process, once
per tree, each tree in a subprocess of its own, then the certify
benchmark workload's operations and the integer layer, and prints the
first command whose exit code, stdout or stderr differ, or certify
operation or integer matrix whose output differs, or the numbers of
each that agree.  Exits 0 when everything
agrees, 1 at the first difference and 2 when a subprocess fails.

The command set:

- every bsfour line of the "Command line" block of README.md, with and
  without each optional [part], each with and without --pretty; the
  files the lines name are written first (f.json the hyperbolic plane
  over k = 2, d1.json and d2.json its descriptor, u.json the identity);
- for every K in -12..12, so that negative, zero and unit k are
  compared too, each with and without --pretty: fox --k K; homology
  --k K with and without --mod 2; bordism --k K --w2 II and --w2 III
  (at even K the latter exits 2, and its error line is compared);
  group --k K on a word with runs of A before and after b, with and
  without --times and --invert; ring --k K --expr on such words, with
  and without --involute; lgroups --k K;
- on every document the cli-docs benchmark workload writes for seeds 1
  and 2: form, form --pretty, form --try-invert, realize,
  realize --pretty and realize --try-invert;
- each classify of that workload, with and without its --isometry,
  with and without --pretty;
- every operation of the certify benchmark workload for seeds 1 and
  2, which no command reaches: the SHA-256 digest of the transported
  form's to_json() with its certificate, the verify_inverse verdict,
  the parity, the signature and each descriptor's w2 and ks;
- the integer layer, on a fixed set of matrices drawn with a seeded
  random.Random: square and non-square, singular, unimodular and
  symmetric ones, E8 and the Gram matrices of H^r.  For each,
  intlinalg's Smith form D, invariant_factors, unimodular_inverse and
  signature (or the error each raises) must be identical across the
  trees; U and V of the Smith form are not unique, so inside each tree
  U A V = D is checked instead, by a product of the tool's own.

Each subprocess writes the documents with its own tree, through
layerbench/workloads.py (imported, never changed), into a fresh
directory that it runs in, so paths in messages agree; the directories
are removed at the end.  The names and SHA-256 digests of the
documents are compared first.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import shlex
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (1, 2)
KS = range(-12, 13)
GROUP_WORD, GROUP_TIMES = "AAbAAAbaaB", "aBAAbAA"
RING_EXPR = "2 - 3*AAbAA + aaBAbA*bA"


def readme_commands():
    """argv lists of the README's command lines, optional parts in and
    out."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    block = text.split("## Command line", 1)[1].split("```")[1]
    out = []
    for line in block.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line.startswith("bsfour "):
            continue
        # tokens with the [optional] groups marked: (group index, token)
        tokens, group, groups = [], None, 0
        for tok in shlex.split(line)[1:]:
            if tok.startswith("["):
                group, groups = groups, groups + 1
                tok = tok[1:]
            end = tok.endswith("]")
            tokens.append((group, tok.rstrip("]")))
            if end:
                group = None
        for mask in range(2 ** groups):
            out.append([tok for g, tok in tokens
                        if g is None or mask >> g & 1])
    return out


def k_commands(k):
    """fox, homology, bordism, group, ring and lgroups at k."""
    homology = ["homology", "--k", str(k)]
    bordism = ["bordism", "--k", str(k), "--w2"]
    group = ["group", "--k", str(k), "--word", GROUP_WORD]
    times = ["--times", GROUP_TIMES]
    ring = ["ring", "--k", str(k), "--expr", RING_EXPR]
    return [["fox", "--k", str(k)], homology, homology + ["--mod", "2"],
            bordism + ["II"], bordism + ["III"], group, group + times,
            group + ["--invert"], group + times + ["--invert"],
            ring, ring + ["--involute"], ["lgroups", "--k", str(k)]]


def write_readme_files():
    from bsfour import hermform, invariants
    from bsfour.groupring import GroupRingElt
    f = hermform.hyperbolic(2, 1)
    d = invariants.ManifoldDescriptor(2, f, invariants.W2Type.II, 0)
    one, zero = GroupRingElt.one(2), GroupRingElt.zero(2)
    docs = {"f.json": f.to_json(), "d1.json": d.to_json(),
            "d2.json": d.to_json(),
            "u.json": hermform.matrix_to_json(((one, zero), (zero, one)), 2)}
    for name, doc in docs.items():
        with open(name, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def docs_commands(workloads, seed):
    """The commands on the cli-docs documents of one seed."""
    workdir = "seed%d" % seed
    os.mkdir(workdir)
    ops = workloads.setup_cli_docs(seed, workdir)
    out = []
    for name in sorted(os.listdir(workdir)):
        path = os.path.join(workdir, name)
        for cmd in ("form", "realize"):
            out += [[cmd, path], [cmd, path, "--pretty"],
                    [cmd, path, "--try-invert"]]
    for op in ops:
        if op.inputs[0] != "classify":
            continue
        # an input "name:digest" is a document of workdir
        argv = [os.path.join(workdir, arg.split(":")[0]) if ":" in arg
                else arg for arg in op.inputs]
        variants = [argv]
        if "--isometry" in argv:
            variants.append(argv[:argv.index("--isometry")])
        for v in variants:
            out += [v, v + ["--pretty"]]
    return out


def certify_outputs(workloads, seed):
    """(name, digest) of the output of each certify operation of seed."""
    out = []
    for op in workloads.setup_certify(seed, "."):
        g, verified, par, sig, descriptors = op.run()
        doc = {"form": g.to_json(), "verified": verified,
               "parity": par.value, "signature": sig,
               "descriptors": [[d.w2.value, d.ks] for d in descriptors]}
        out.append(("seed %d, %s" % (seed, op.name), hashlib.sha256(
            json.dumps(doc).encode()).hexdigest()))
    return out


def product(A, B):
    """The integer matrix product, independent of either tree."""
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)]
            for row in A]


def integer_matrices(e8):
    """(name, matrix) of the fixed integer set: e8, the Gram matrices of
    H, H^2 and H^3, and 40 seeded draws of each other kind."""
    rng = random.Random(29)

    def draw(m, n, lo=-9, hi=9):
        return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)]

    def unimodular(n):
        T = [[int(i == j) for j in range(n)] for i in range(n)]
        for _ in range(3 * n if n > 1 else 0):
            i, j = rng.sample(range(n), 2)
            c = rng.randint(-3, 3)
            T[i] = [x + c * y for x, y in zip(T[i], T[j])]
        return T

    out = [("E8", e8)]
    out += [("H^%d" % r, [[int(i ^ 1 == j) for j in range(2 * r)]
                          for i in range(2 * r)]) for r in (1, 2, 3)]
    for t in range(40):
        m, n, s = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
        r = rng.randint(1, min(m, n))
        S = draw(s, s, -5, 5)
        out += [("random %d" % t, draw(m, n)),
                ("rank %d, %d" % (r, t), product(draw(m, r, -4, 4),
                                                 draw(r, n, -4, 4))),
                ("singular %d" % t, product(draw(s, s - 1, -3, 3),
                                            draw(s - 1, s, -3, 3))
                 if s > 1 else [[0]]),
                ("unimodular %d" % t, unimodular(s)),
                ("symmetric %d" % t, [[S[i][j] + S[j][i] for j in range(s)]
                                      for i in range(s)])]
    return out


def integer_outputs():
    """One record per matrix of the integer set: the Smith form D,
    invariant_factors, unimodular_inverse and signature, an error as
    its message, and whether U A V = D."""
    from bsfour import intlinalg

    def outcome(fn, A):
        try:
            return fn(A)
        except ValueError as exc:
            return "ValueError: %s" % exc

    out = []
    for name, A in integer_matrices(intlinalg.e8_matrix()):
        U, D, V = intlinalg.smith_normal_form(A)
        out.append({"integer": name, "D": D,
                    "invariant_factors": intlinalg.invariant_factors(A),
                    "inverse": outcome(intlinalg.unimodular_inverse, A),
                    "signature": outcome(intlinalg.signature, A),
                    "uav": product(product(U, A), V) == D})
    return out


def digests(paths):
    out = {}
    for path in paths:
        with open(path, "rb") as fh:
            out[path] = hashlib.sha256(fh.read()).hexdigest()
    return out


def child(src, workdir):
    """Write the documents into workdir, then one JSON line per command
    to stdout."""
    sys.path[:0] = [src, os.path.join(ROOT, "layerbench")]
    from bsfour import cli
    import workloads
    emit = sys.stdout
    os.chdir(workdir)
    write_readme_files()
    commands = []
    for argv in readme_commands() + [
            argv for k in KS for argv in k_commands(k)]:
        commands += [argv, argv + ["--pretty"]]
    for seed in SEEDS:
        commands += docs_commands(workloads, seed)
    paths = sorted(os.path.join(d, n) for d in ["."] + [
        "seed%d" % s for s in SEEDS] for n in os.listdir(d)
        if n.endswith(".json"))
    emit.write(json.dumps({"documents": digests(paths)}) + "\n")
    for argv in commands:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
        emit.write(json.dumps({"argv": argv, "rc": rc, "stdout":
                               out.getvalue(), "stderr": err.getvalue()})
                   + "\n")
    for seed in SEEDS:
        for name, digest in certify_outputs(workloads, seed):
            emit.write(json.dumps({"certify": name, "digest": digest})
                       + "\n")
    for record in integer_outputs():
        emit.write(json.dumps(record) + "\n")
    emit.flush()


def first_difference(a, b):
    """The first line on which the texts a and b differ, as a message."""
    la, lb = a.splitlines(), b.splitlines()
    for i, (x, y) in enumerate(zip(la, lb)):
        if x != y:
            return "line %d:\n  old: %r\n  new: %r" % (i + 1, x, y)
    if len(la) != len(lb):
        return "line count %d -> %d" % (len(la), len(lb))
    return "trailing bytes differ: %r -> %r" % (a[-20:], b[-20:])


def compare(old_src, new_src, tmp):
    procs = []
    for side, src in (("old", old_src), ("new", new_src)):
        workdir = os.path.join(tmp, side)
        os.mkdir(workdir)
        procs.append(subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--child",
             os.path.abspath(src), workdir],
            stdout=subprocess.PIPE, text=True))
    try:
        count = certified = integers = 0
        for line_old, line_new in zip(procs[0].stdout, procs[1].stdout):
            old, new = json.loads(line_old), json.loads(line_new)
            if "integer" in old:
                for side, record in (("old", old), ("new", new)):
                    if not record["uav"]:
                        print("integer %s: U A V is not D in the %s tree"
                              % (record["integer"], side))
                        return 1
                if old != new:
                    key = next(key for key in old if old[key] != new.get(key))
                    print("integer %s: %s differs\n  old: %r\n  new: %r"
                          % (old["integer"], key, old[key], new.get(key)))
                    return 1
                integers += 1
                continue
            if "certify" in old:
                if old != new:
                    print("certify %s: the output differs" % old["certify"])
                    return 1
                certified += 1
                continue
            if "documents" in old:
                if old != new:
                    a, b = old["documents"], new["documents"]
                    print("the documents differ, first at %s" % min(
                        p for p in set(a) | set(b) if a.get(p) != b.get(p)))
                    return 1
                print("%d documents, byte-identical"
                      % len(old["documents"]))
                continue
            for key in ("rc", "stdout", "stderr"):
                if old[key] != new[key]:
                    print("bsfour %s: %s differs" % (shlex.join(old["argv"]),
                                                     key))
                    if key == "rc":
                        print("  old: %r\n  new: %r" % (old[key], new[key]))
                    else:
                        print(first_difference(old[key], new[key]))
                    return 1
            count += 1
        rest = [p.stdout.read() for p in procs]
        codes = [p.wait() for p in procs]
        if any(codes):
            print("a run failed, exit codes %r" % codes)
            return 2
        if any(rest):
            print("the runs gave different numbers of commands")
            return 1
        print("%d commands: exit code, stdout and stderr identical;"
              " %d certify outputs identical" % (count, certified))
        print("%d integer matrices: Smith form D, invariant factors,"
              " unimodular inverse and signature identical; U A V = D in"
              " both trees" % integers)
        return 0
    finally:
        for p in procs:
            p.kill()
            p.wait()


def main(argv):
    if len(argv) == 3 and argv[0] == "--child":
        child(argv[1], argv[2])
        return 0
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 64
    with tempfile.TemporaryDirectory(prefix="cli-identity-") as tmp:
        return compare(argv[0], argv[1], tmp)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
