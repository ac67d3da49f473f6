"""Golden-fixture suite for tools/detlint.py.

The fixtures under tests/tools/fixtures/ carry EXPECT markers naming every
violation detlint must report (file, line, rule) — 100% of seeded violations
must be caught, nothing else may be reported, and waiver semantics must hold.
The fixtures are copied into a temporary directory before linting because
the unordered-iter rule is deliberately disabled under tests/ paths.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
DETLINT = os.path.join(REPO, "tools", "detlint.py")
FIXTURES = os.path.join(HERE, "fixtures")

EXPECT_RE = re.compile(r"EXPECT(-PREV)?:\s*([a-z-]+)")
OUTPUT_RE = re.compile(r"^(.*):(\d+): \[([a-z-]+)\]")


def run_detlint(*args):
    return subprocess.run(
        [sys.executable, DETLINT, *args],
        capture_output=True, text=True, check=False)


def expected_violations(fixture_dir):
    expected = set()
    for name in sorted(os.listdir(fixture_dir)):
        path = os.path.join(fixture_dir, name)
        if not os.path.isfile(path):
            continue
        with open(path, encoding="utf-8") as f:
            for lineno, line in enumerate(f, start=1):
                for match in EXPECT_RE.finditer(line):
                    at = lineno - 1 if match.group(1) else lineno
                    expected.add((name, at, match.group(2)))
    return expected


def reported_violations(stdout):
    reported = set()
    for line in stdout.splitlines():
        match = OUTPUT_RE.match(line)
        if match:
            reported.add((os.path.basename(match.group(1)),
                          int(match.group(2)), match.group(3)))
    return reported


class DetlintGoldenFixtures(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tmp = tempfile.mkdtemp(prefix="detlint_fix_")
        cls.fixture_dir = os.path.join(cls.tmp, "fixsrc")
        shutil.copytree(FIXTURES, cls.fixture_dir)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)

    def test_catches_every_seeded_violation_and_nothing_else(self):
        result = run_detlint(self.fixture_dir)
        self.assertEqual(result.returncode, 1, result.stdout + result.stderr)
        expected = expected_violations(FIXTURES)
        self.assertTrue(expected, "fixtures carry no EXPECT markers?")
        reported = reported_violations(result.stdout)
        missed = expected - reported
        spurious = reported - expected
        self.assertFalse(missed, f"detlint went blind to: {sorted(missed)}")
        self.assertFalse(spurious,
                         f"detlint over-reported: {sorted(spurious)}")

    def test_clean_file_exits_zero(self):
        result = run_detlint(os.path.join(self.fixture_dir, "clean.cpp"))
        self.assertEqual(result.returncode, 0,
                         result.stdout + result.stderr)
        self.assertEqual(reported_violations(result.stdout), set())

    def test_github_annotation_format(self):
        result = run_detlint(self.fixture_dir, "--github")
        self.assertEqual(result.returncode, 1)
        lines = [l for l in result.stdout.splitlines() if l]
        self.assertTrue(lines)
        for line in lines:
            self.assertRegex(
                line, r"^::error file=.+,line=\d+,title=detlint\([a-z-]+\)::")

    def test_list_waivers_prints_reasons_and_usage(self):
        result = run_detlint(self.fixture_dir, "--list-waivers")
        self.assertIn("commutative sum", result.stdout)
        self.assertIn("[used]", result.stdout)
        self.assertIn("[UNUSED]", result.stdout)

    def test_missing_path_is_usage_error(self):
        result = run_detlint(os.path.join(self.tmp, "no_such_dir"))
        self.assertEqual(result.returncode, 2)


class DetlintOnRealTree(unittest.TestCase):
    def test_src_bench_examples_are_clean(self):
        result = subprocess.run(
            [sys.executable, DETLINT, "src", "bench", "examples"],
            capture_output=True, text=True, check=False, cwd=REPO)
        self.assertEqual(result.returncode, 0,
                         "determinism contract violated:\n" + result.stdout)


if __name__ == "__main__":
    unittest.main()
