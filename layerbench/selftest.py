"""Self-tests of the benchmark: its checks reject tampered outputs, its
unit stays independent of bsfour, and a seed fixes inputs and counts.

    python3 layerbench/selftest.py

Run from the repository root.  Takes about half a minute: the last test
makes two short traced runs of every workload.
"""

import ast
import copy
import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402
from tracer import COUNT_METRICS  # noqa: E402


_TMPDIRS = []


def setUpModule():
    _TMPDIRS.append(tempfile.TemporaryDirectory())


def tearDownModule():
    _TMPDIRS.pop().cleanup()


def _ops(workload, seed):
    # cli-docs writes its documents into workdir; they must outlive setup
    workdir = tempfile.mkdtemp(dir=_TMPDIRS[0].name)
    return workloads.WORKLOADS[workload](seed, workdir)


def _first_output(ops, prefix):
    op = next(op for op in ops if op.name.startswith(prefix))
    return op, op.run()


class CheckerRejectsTampering(unittest.TestCase):

    def test_certify_output_passes_and_tampered_certificate_fails(self):
        op, output = _first_output(_ops("certify", 5), "certify")
        op.check(output)
        g = output[0]
        matrix = workloads.form_terms(g.matrix)
        inverse = workloads.form_terms(g.inverse)
        checks.check_certificate(matrix, inverse, g.k)
        i, j = next((i, j) for i, row in enumerate(inverse)
                    for j, p in enumerate(row) if p)
        for delta in (1, -2):
            bad = copy.deepcopy(inverse)
            elt, coeff = bad[i][j][0]
            bad[i][j][0] = (elt, coeff + delta)
            with self.assertRaises(CheckFailed):
                checks.check_certificate(matrix, bad, g.k)

    def test_moved_group_element_is_caught_by_the_affine_image(self):
        # same coefficients, so the augmentation alone cannot see it
        op, output = _first_output(_ops("certify", 6), "certify")
        g = output[0]
        matrix = workloads.form_terms(g.matrix)
        inverse = copy.deepcopy(workloads.form_terms(g.inverse))
        i, j = next((i, j) for i, row in enumerate(inverse)
                    for j, p in enumerate(row) if p)
        (num, pw, t), coeff = inverse[i][j][0]
        inverse[i][j][0] = ((num, pw, t + 1), coeff)
        with self.assertRaises(CheckFailed):
            checks.check_certificate(matrix, inverse, g.k)

    def test_tampered_try_invert_document_fails(self):
        op, (rc, text) = _first_output(_ops("cli-docs", 2),
                                       "form --try-invert")
        op.check((rc, text))
        doc = json.loads(text)
        term = next(cell["terms"][0] for row in doc["form"]["inverse"]
                    for cell in row if cell["terms"])
        term["coeff"] = str(int(term["coeff"]) + 1)
        with self.assertRaises(CheckFailed):
            op.check((rc, json.dumps(doc)))

    def test_wrong_h1_row_fails(self):
        op, (rc, text) = _first_output(_ops("ksweep", 3), "report")
        op.check((rc, text))
        doc = json.loads(text)
        k = doc["rows"][0]["k"]
        doc["rows"][0]["H1"] = "Z + Z/%d" % (abs(k - 1) + 1)
        with self.assertRaises(CheckFailed):
            op.check((rc, json.dumps(doc)))

    def test_wrong_l5_torsion_fails(self):
        op, (rc, text) = _first_output(_ops("ksweep", 3), "lgroups")
        op.check((rc, text))
        doc = json.loads(text)
        doc["lgroups"]["L5"]["torsion"] = ["2"]
        with self.assertRaises(CheckFailed):
            op.check((rc, json.dumps(doc)))

    def test_flipped_verdicts_fail(self):
        ops = _ops("cli-docs", 4)
        flips = {"Homeomorphic": "Unknown", "Unknown": "Homeomorphic",
                 "NotHomeomorphic": "Homeomorphic"}
        seen = set()
        for op in ops:
            if not op.name.startswith("classify"):
                continue
            rc, text = op.run()
            op.check((rc, text))
            doc = json.loads(text)
            seen.add(doc["verdict"])
            doc["verdict"] = flips[doc["verdict"]]
            with self.assertRaises(CheckFailed):
                op.check((rc, json.dumps(doc)))
        self.assertEqual(seen, set(flips))

    def test_nonzero_exit_fails(self):
        op, (rc, text) = _first_output(_ops("ksweep", 3), "report")
        with self.assertRaises(CheckFailed):
            op.check((2, text))


class ReferenceLoopIsIndependent(unittest.TestCase):

    def test_imports_nothing_from_bsfour(self):
        with open(os.path.join(HERE, "refloop.py"), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        names = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                names.add(node.module or "")
        self.assertEqual(names, {"time"})
        probe = ("import sys; sys.path.insert(0, %r); import refloop;"
                 " refloop.ref_loop(); print(any(m.split('.')[0] == 'bsfour'"
                 " for m in sys.modules))" % HERE)
        out = subprocess.run([sys.executable, "-c", probe], check=True,
                             capture_output=True, text=True, timeout=60)
        self.assertEqual(out.stdout.strip(), "False")


class SeedFixesTheRun(unittest.TestCase):

    def test_same_seed_same_operation_lists(self):
        for workload in workloads.WORKLOADS:
            first = [(op.name, op.inputs) for op in _ops(workload, 11)]
            again = [(op.name, op.inputs) for op in _ops(workload, 11)]
            other = [(op.name, op.inputs) for op in _ops(workload, 12)]
            self.assertEqual(first, again, workload)
            self.assertNotEqual(first, other, workload)

    def test_two_traced_runs_count_alike(self):
        for workload in workloads.WORKLOADS:
            runs = []
            for _ in range(2):
                proc = subprocess.run(
                    [sys.executable, os.path.join(HERE, "run.py"),
                     "--workload", workload, "--seed", "7", "--seconds", "1",
                     "--trace", "1"],
                    cwd=ROOT, capture_output=True, text=True, timeout=170)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                doc = json.loads(proc.stdout.strip().splitlines()[-1])
                self.assertEqual(doc["failed"], 0)
                runs.append({name: doc["metrics"][name]["value"]
                             for name in COUNT_METRICS})
            self.assertEqual(runs[0], runs[1], workload)
            self.assertGreater(runs[0]["kernel.ring_addmul.calls"]
                               + runs[0]["kernel.eval_word.letters"], 0)


if __name__ == "__main__":
    unittest.main(verbosity=2)
