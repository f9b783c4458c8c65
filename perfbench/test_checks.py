#!/usr/bin/env python3
"""The benchmark's own tests: every correctness check passes on real
outputs and fails on altered ones.

    python3 perfbench/test_checks.py

Builds `figures` the way the benchmark does, then feeds the checks real
outputs, unaltered and altered.
"""

import json
import subprocess
import unittest

import checks
import run

FIGURES = None
SWEEP = ["sweep", "--machine", "icx-8360y", "--ranks", "1..8",
         "--aggressor", "none", "--aggressor", "stream", "--jobs", "1"]


def setUpModule():
    global FIGURES
    FIGURES, _ = run.build()


def figures(*args):
    return subprocess.run([str(FIGURES), *args], capture_output=True, text=True)


def alter_csv(text, pick, key, column, change):
    """Apply `change` to `column` of the row whose first cell is `key`, in
    the first CSV block whose id satisfies `pick`."""
    lines = text.splitlines(keepends=True)
    in_block, header = False, None
    for i, line in enumerate(lines):
        if line.startswith("===="):
            in_block = header is None and pick(line.split()[1])
            if in_block:
                header = lines[i + 1].strip().split(",")
            continue
        cells = line.strip().split(",")
        if in_block and cells[0] == str(key):
            c = header.index(column)
            cells[c] = change(cells[c])
            lines[i] = ",".join(cells) + "\n"
            return "".join(lines)
    raise AssertionError(f"no row {key} in a picked block")


def alter_json(text, pick, key, column, change):
    blocks = json.loads(text)
    block = next(b for b in blocks if pick(b["id"]))
    c = [col["name"] for col in block["columns"]].index(column)
    row = next(r for r in block["rows"] if r[0] == key)
    row[c] = change(row[c])
    return json.dumps(blocks)


def contended(ident):
    return "-vs-" in ident


def exclusive(ident):
    return "-vs-" not in ident


class PaperCheck(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.anchors = checks.anchor_counts(figures("--delta-table", "all").stdout)

    def test_anchor_counts_cover_every_artifact(self):
        self.assertEqual(len(self.anchors), 12)
        self.assertTrue(all(n > 0 for n in self.anchors.values()))

    def test_model_passes(self):
        out = figures("--check", "all")
        self.assertEqual(checks.paper_errors(out.stdout, out.returncode, self.anchors), [])

    def test_perturbed_model_fails(self):
        out = figures("--perturb", "10", "--check", "all")
        self.assertTrue(checks.paper_errors(out.stdout, out.returncode, self.anchors))
        # The cell counts alone catch it, whatever the exit code says.
        self.assertTrue(checks.paper_errors(out.stdout, 0, self.anchors))

    def test_missing_or_short_artifact_fails(self):
        out = figures("--check", "all")
        dropped = "".join(l for l in out.stdout.splitlines(True) if not l.startswith("fig5:"))
        self.assertTrue(checks.paper_errors(dropped, 0, self.anchors))
        short = out.stdout.replace("88/88 cells", "87/87 cells")
        self.assertTrue(checks.paper_errors(short, 0, self.anchors))


class SweepCheck(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.outputs = {
            "csv": (figures(*SWEEP).stdout, alter_csv),
            "json": (figures(*SWEEP, "--json").stdout, alter_json),
        }

    def test_real_payloads_pass(self):
        for form, (text, _) in self.outputs.items():
            self.assertEqual(checks.sweep_errors(text), [], form)

    def assert_fails(self, pick, ranks, column, change):
        for form, (text, alter) in self.outputs.items():
            altered = alter(text, pick, ranks, column, change)
            self.assertNotEqual(altered, text, form)
            self.assertTrue(checks.sweep_errors(altered), f"{form}: {column} change passed")

    def test_altered_local_inner_fails(self):
        # 7 ranks is prime: local_inner must be the 1-D split grid // 7.
        self.assert_fails(
            exclusive, 7, "local_inner", lambda v: str(int(v) + 1) if isinstance(v, str) else v + 1
        )

    def test_scaled_time_per_step_fails(self):
        def scale(v):
            return f"{float(v) * 1.01:.4f}" if isinstance(v, str) else v * 1.01
        self.assert_fails(contended, 3, "time_per_step", scale)
        # In the no-aggressor block it breaks speedup = t_first / t.
        self.assert_fails(exclusive, 3, "time_per_step", scale)

    def test_scaled_volume_fails(self):
        def scale(v):
            return f"{float(v) * 1.01:.1f}" if isinstance(v, str) else v * 1.01
        self.assert_fails(contended, 5, "volume_per_step", scale)

    def test_altered_prime_and_speedup_fail(self):
        self.assert_fails(exclusive, 4, "prime", lambda v: "1" if isinstance(v, str) else 1)
        self.assert_fails(contended, 2, "speedup",
                          lambda v: f"{float(v) + 0.01:.3f}" if isinstance(v, str) else v + 0.01)

    def test_aggressor_block_without_its_base_fails(self):
        text, _ = self.outputs["json"]
        blocks = [b for b in json.loads(text) if "-vs-" in b["id"]]
        self.assertTrue(checks.sweep_errors(json.dumps(blocks)))


class InterfereCheck(unittest.TestCase):
    def test_inflation_is_the_volume_ratio(self):
        text = figures("interfere", "interfere-timestep").stdout
        self.assertEqual(checks.interfere_errors(text), [])
        altered = alter_csv(text, lambda i: i == "interfere-timestep", "stream", "inflation",
                            lambda v: f"{float(v) + 0.01:.3f}")
        self.assertTrue(checks.interfere_errors(altered))


if __name__ == "__main__":
    unittest.main()
