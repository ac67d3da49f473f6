"""Pins layers.py: the module-to-layer map and the hook-cost subtraction.

Run: python3 -m unittest discover -s benchmark/tests
"""

import os
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import layers  # noqa: E402

FIXTURE = os.path.join(HERE, "fixtures", "trace.tsv")

# What addr2line would say for each address of the fixture.
SYMBOLS = {
    "a10": ("conscale::Simulation::step()", "/co/src/simcore/simulation.cpp"),
    "a20": ("conscale::lanes::LaneEngine::run_round()",
            "/co/src/simcore/lanes/lane_engine.cpp"),
    "a30": ("conscale::HybridController::tick(double)",
            "/co/src/conscale/zoo/hybrid_controller.cpp"),
    "a40": ("conscale::lanes::LaneEngine::worker_loop()",
            "/co/src/simcore/lanes/lane_engine.cpp"),
    "a50": ("main", "/co/benchmark/driver.cpp"),
    "a60": ("conscale::Simulation::pop_and_release()",
            "/co/src/simcore/simulation.cpp"),
}


class LayerOfTest(unittest.TestCase):
    def test_modules_map_to_layers(self):
        self.assertEqual(layers.layer_of("/co/src/simcore/simulation.cpp"), "simcore")
        self.assertEqual(layers.layer_of("/co/src/simcore/lanes/lane_engine.cpp"), "lanes")
        self.assertEqual(layers.layer_of("/co/src/conscale/zoo/pi_controller.cpp"), "conscale")
        self.assertEqual(layers.layer_of("/co/src/conscale/framework.cpp"), "conscale")
        self.assertEqual(layers.layer_of("src/topology/service_graph.cpp"), "topology")

    def test_last_src_component_wins(self):
        self.assertEqual(layers.layer_of("/home/src/repo/src/tier/server.cpp"), "tier")

    def test_files_outside_src_have_no_layer(self):
        self.assertIsNone(layers.layer_of("/co/benchmark/driver.cpp"))
        self.assertIsNone(layers.layer_of("??"))


class AttributeTest(unittest.TestCase):
    def setUp(self):
        self.profile = layers.attribute(layers.load_dump(FIXTURE), SYMBOLS)

    def test_hook_cost_is_subtracted_per_call(self):
        # step(): 50000 - 100 calls * 10 - 20 child calls * 6 = 48880 ticks
        # at 2 ticks/ns; pop_and_release(): 600 - 50 * 10 = 100 ticks.
        simcore = self.profile.layers["simcore"]
        self.assertAlmostEqual(simcore.self_s, (48880 + 100) / 2e9)
        self.assertEqual(simcore.calls, 150)

    def test_correction_never_goes_negative(self):
        # run_round(): 4000 - 10 * 10 - 100 * 6 = 3300; tick(): 2000 - 40.
        self.assertAlmostEqual(self.profile.layers["lanes"].self_s, 3300 / 2e9)
        self.assertAlmostEqual(self.profile.layers["conscale"].self_s, 1960 / 2e9)
        dump = layers.load_dump(FIXTURE)
        dump.functions["a30"].self_ticks = 1
        clamped = layers.attribute(dump, SYMBOLS)
        self.assertEqual(clamped.layers["conscale"].self_s, 0.0)

    def test_worker_loop_counts_as_waiting(self):
        lanes = self.profile.layers["lanes"]
        self.assertAlmostEqual(lanes.wait_s, (80000 - 30 - 60) / 2e9)
        self.assertEqual(lanes.calls, 13)

    def test_driver_code_belongs_to_no_layer(self):
        self.assertEqual(set(self.profile.layers), {"simcore", "lanes", "conscale"})

    def test_hook_cost_and_call_counts(self):
        self.assertAlmostEqual(self.profile.hook_ns, 8.0)
        self.assertEqual(self.profile.calls_of("conscale::Simulation::step()"), 100)
        self.assertEqual(self.profile.calls_of("conscale::Simulation::"), 150)

    def test_overflowed_table_is_rejected(self):
        with open(FIXTURE, encoding="utf-8") as handle:
            text = handle.read().replace("overflows\t0", "overflows\t2")
        with tempfile.NamedTemporaryFile("w", suffix=".tsv", delete=False) as out:
            out.write(text)
        try:
            with self.assertRaises(ValueError):
                layers.load_dump(out.name)
        finally:
            os.unlink(out.name)


if __name__ == "__main__":
    unittest.main()
