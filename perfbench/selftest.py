#!/usr/bin/env python3
"""Self-tests of the benchmark harness (no engine build needed):

    python3 perfbench/selftest.py

Order statistics on known vectors, span self time on a synthetic trace,
failure accounting (a killed child and a wrong expected answer each raise
the error rate), the reference-host scaling and the reference least models
on hand-computed graphs.
"""

import os
import random
import statistics
import sys
import tempfile
import textwrap
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import benchstats  # noqa: E402
import datalog  # noqa: E402
import loadgen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


class QuantileTest(unittest.TestCase):
    def test_known_vectors(self):
        self.assertEqual(benchstats.quantile([1, 2, 3, 4], 0.5), 2.5)
        self.assertAlmostEqual(benchstats.quantile(range(1, 11), 0.9), 9.1)
        self.assertEqual(benchstats.quantile([7], 0.9), 7)
        s = benchstats.summary([5, 1, 4, 2, 3])
        self.assertEqual((s["n"], s["median"], s["q1"], s["q3"]),
                         (5, 3, 2, 4))

    def test_matches_inclusive_quartiles(self):
        rng = random.Random(3)
        for _ in range(20):
            values = [rng.random() for _ in range(rng.randrange(2, 40))]
            q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
            self.assertAlmostEqual(benchstats.quantile(values, 0.25), q1)
            self.assertAlmostEqual(benchstats.quantile(values, 0.5), q2)
            self.assertAlmostEqual(benchstats.quantile(values, 0.75), q3)

    def test_p90_needs_ten_beyond(self):
        self.assertFalse(benchstats.p90_resolved(99))
        self.assertTrue(benchstats.p90_resolved(100))


class SelfTimeTest(unittest.TestCase):
    def test_synthetic_trace(self):
        def span(i, parent, start, end, name):
            return {"name": name, "id": i, "parent": parent, "job": 1,
                    "start": start, "end": end}
        trace = [
            span(1, 0, 0, 10, "job"),
            span(2, 1, 1, 4, "parse"),
            span(3, 1, 3, 6, "chase"),   # overlaps parse: covered once
            span(4, 1, 8, 9, "answer"),
            span(5, 2, 2, 3, "lex"),
        ]
        selfs = spans.self_times(trace)
        self.assertEqual(selfs, {1: 10 - 6, 2: 3 - 1, 3: 3, 4: 1, 5: 1})
        self.assertEqual(spans.self_time_by_name(trace)["job"], 4)


FAKE_SPAWNER = textwrap.dedent("""\
    import os, subprocess, sys
    proc = subprocess.Popen(sys.argv[2:])
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = 0
    sys.stderr.write("perfbench-rusage maxrss_kb=%d cpu_s=%.6f status=%d\\n"
                     % (usage.ru_maxrss, usage.ru_utime + usage.ru_stime,
                        status))
    """)

# Prints what twchase_cli prints for a 3-fact, 1-step Datalog run, or kills
# itself when the program file is named kill.twc.
FAKE_CLI = textwrap.dedent("""\
    import os, signal, sys
    if sys.argv[-1].endswith("kill.twc"):
        os.kill(os.getpid(), signal.SIGKILL)
    print("program: 3 facts, 1 rules, 0 queries")
    print("core chase: 1 steps in 2 rounds, 0.001s, stop: fixpoint; "
          "|result| = 4")
    """)


class FailureAccountingTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.bins = {}
        for name, text in (("perfbench_replay", FAKE_SPAWNER),
                           ("twchase_cli", FAKE_CLI),
                           ("perfbench_calibrate", "print(0)\n")):
            path = os.path.join(self.dir.name, name)
            with open(path, "w") as f:
                f.write("#!%s\n%s" % (sys.executable, text))
            os.chmod(path, 0o755)
            self.bins[name] = path

    def tearDown(self):
        self.dir.cleanup()

    def job(self, name, result_size):
        return workloads._job(name, os.path.join(self.dir.name, name + ".twc"),
                              "core", 100, {"stop": "fixpoint", "steps": 1,
                                            "result_size": result_size})

    def calibration(self):
        return loadgen.Calibration(self.bins["perfbench_replay"],
                                   self.bins["perfbench_calibrate"])

    def error_rate(self, jobs):
        failures = run.Failures()
        calibration = self.calibration()
        values, _, attempted, _ = run.untraced(
            "paper-core", self.bins, jobs, None, 0.3, failures, calibration)
        self.assertEqual(values["ok_rate"],
                         1 - len(failures.items) / attempted)
        return len(failures.items) / attempted

    def test_correct_jobs_do_not_fail(self):
        self.assertEqual(self.error_rate([self.job("good", 4)]), 0)

    def test_killed_child_fails(self):
        self.assertGreater(
            self.error_rate([self.job("good", 4), self.job("kill", 4)]), 0)

    def test_wrong_expected_answer_fails(self):
        self.assertGreater(
            self.error_rate([self.job("good", 4), self.job("wrong", 5)]), 0)

    def test_loop_ends_on_a_cycle_boundary(self):
        records = loadgen.cli_loop(self.bins["perfbench_replay"],
                                   self.bins["twchase_cli"],
                                   [self.job("good", 4)], 0.01,
                                   run.Failures(), self.calibration(),
                                   cycle=3)
        self.assertEqual(len(records), 3)


class ReferenceHostTest(unittest.TestCase):
    def test_scaled_by_nearest_calibrations(self):
        calibration = loadgen.Calibration("spawner", "calibrate")
        ref = loadgen.Calibration.REFERENCE_S
        calibration.samples = [0.1, 0.1, 0.1, 0.1, 0.2, 0.2, 0.2, 0.2]
        # Two runs on each side: [0.1, 0.1 | 0.1, 0.1] and [0.2, 0.2 |
        # 0.2, 0.2]; the middle one straddles the change.
        self.assertAlmostEqual(calibration.scale(1.0, 2), ref / 0.1)
        self.assertAlmostEqual(calibration.scale(1.0, 6), ref / 0.2)
        self.assertAlmostEqual(calibration.scale(1.0, 4), ref / 0.15)
        # At the ends the nearest four are taken from one side.
        self.assertAlmostEqual(calibration.scale(1.0, 0), ref / 0.1)
        self.assertAlmostEqual(calibration.scale(1.0, 8), ref / 0.2)
        calibration.samples = [0.25]
        self.assertAlmostEqual(calibration.scale(2.0, 1), 2.0 * ref / 0.25)


class ReferenceModelTest(unittest.TestCase):
    def test_triangles(self):
        edges = [(0, 1), (1, 2), (0, 2), (2, 3), (1, 3)]
        # Paths x->y->z closed by an edge x->z: 0-1-2, 1-2-3.
        self.assertEqual(datalog.triangles(edges), {(0, 2), (1, 3)})

    def test_wide_join(self):
        rows = [(1, 5, 2), (2, 5, 3), (2, 6, 4), (3, 5, 1)]
        # r(X,Y,Z), r(Z,Y,W): (1,5,2)+(2,5,3), (2,5,3)+(3,5,1),
        # (3,5,1)+(1,5,2).
        self.assertEqual(datalog.wide_join(rows), {(1, 3), (2, 1), (3, 2)})

    def test_transitive_closure(self):
        self.assertEqual(datalog.transitive_closure([(0, 1), (1, 2)]),
                         {(0, 1), (1, 2), (0, 2)})
        cycle = datalog.transitive_closure([(0, 1), (1, 2), (2, 0)])
        self.assertEqual(cycle, {(a, b) for a in range(3) for b in range(3)})

    def test_program_expectations(self):
        text, expect = datalog.make("tc", 0.0, 5, 1)
        facts = text.splitlines()[0].count("e(")
        self.assertEqual(expect["result_size"], facts + expect["steps"])
        self.assertEqual(expect["stop"], "fixpoint")
        self.assertEqual(len(expect["queries"]), text.count("?"))

    def test_large_programs(self):
        for family, facts in (("tri", 2000), ("join", 3000)):
            text, expect = datalog.make_large(family, 47, 1)
            self.assertEqual(text.splitlines()[0].count(")."), facts)
            self.assertEqual(expect["result_size"], facts + expect["steps"])

    def test_same_seeds_same_program(self):
        self.assertEqual(datalog.make("tri", 0.4, 9, 3),
                         datalog.make("tri", 0.4, 9, 3))

    def test_renaming_keeps_the_least_model_size(self):
        for family in datalog.FAMILIES:
            a_text, a = datalog.make(family, 0.2, 4, 1)
            b_text, b = datalog.make(family, 0.2, 4, 2)
            self.assertNotEqual(a_text, b_text)
            self.assertEqual((a["steps"], a["result_size"]),
                             (b["steps"], b["result_size"]))


class CheckTest(unittest.TestCase):
    def test_cli_output_and_checks(self):
        out = workloads.parse_cli_output(textwrap.dedent("""\
            program: 4 facts, 2 rules, 1 queries
            preflight: bts (guarded); variant=restricted
            restricted chase: 200 steps in 5 rounds, 0.012s, stop: step-budget; |result| = 294
            query 1: ?(V1) :- p(V1)                          -> 2 certain answer(s)
                (a)
                (b)
            """))
        self.assertEqual((out["verdict"], out["stop"], out["steps"],
                          out["queries"]), ("bts", "step-budget", 200, [2]))
        job = workloads._job("j", "x.twc", "auto", 200,
                             {"verdicts": workloads.ALLOWED_VERDICTS["bts"]})
        self.assertEqual(workloads.check(job, out), [])
        job["max_steps"] = 300  # a budgeted stop must use the whole budget
        self.assertTrue(workloads.check(job, out))
        job = workloads._job("j", "x.twc", "auto", 200,
                             {"verdicts": workloads.ALLOWED_VERDICTS["fes"]})
        self.assertTrue(workloads.check(job, out))


if __name__ == "__main__":
    unittest.main()
