"""Byte-identical output gate.

Every bundled scenario under every scheduler at seed 0 must reproduce the
event log and metrics exactly. The digests are sha256 of
events_text(log) + metrics_csv_text(report). A change that alters them on
purpose must say why and regenerate the table.
"""
import hashlib

import pytest

from sjasim import run
from sjasim.cli import events_text, metrics_csv_text
from sjasim.scenarios import SCENARIO_BUILDERS
from sjasim.simcore import SCHEDULERS

DIGESTS = {
    ("smoke", "sja"): "bf57c0d496cb07756f316dee679883011e22733af64804c55566626f3676bc21",
    ("smoke", "first_fit"): "d0f3a80d1b09e5f119856e63ff70f64a9370d12fd8303ba0391c353b095e1302",
    ("smoke", "best_fit"): "cff65e1501224bff2cb89c33aaf97bdb8fe55f10a1fa8dcb5c20e1e1115a1ebc",
    ("smoke", "moldable"): "cff65e1501224bff2cb89c33aaf97bdb8fe55f10a1fa8dcb5c20e1e1115a1ebc",
    ("smoke", "preempt_migrate"): "d0f3a80d1b09e5f119856e63ff70f64a9370d12fd8303ba0391c353b095e1302",
    ("calibration", "sja"): "2d2c9971f89bdd72bbb76be9c7fcc4a21c4b63a6b2daaecc849bf4025b48088b",
    ("calibration", "first_fit"): "cfb2efbb7f39f8232d8eab15a37ae3ff1aeae344f8c72635d1325e7410f6c41a",
    ("calibration", "best_fit"): "a3d2fe3f3b8831b92ae875a0dd1e09a801aafb06e4b9a67bdb31fa483c7bb201",
    ("calibration", "moldable"): "d5c61d42fef3eadaf8663ffe6dc52d5a1048b774ffae59d52edfe7d87154565c",
    ("calibration", "preempt_migrate"): "cfb2efbb7f39f8232d8eab15a37ae3ff1aeae344f8c72635d1325e7410f6c41a",
    ("gap-reclaim", "sja"): "bc8cf0b25517e591411f203d0ee403872b66e8c87878b4453b953908d2cbeab4",
    ("gap-reclaim", "first_fit"): "21e22a20e9c5ac78674adca8f1ea17154218b88f4984d866eaeb8af613e037a0",
    ("gap-reclaim", "best_fit"): "21e22a20e9c5ac78674adca8f1ea17154218b88f4984d866eaeb8af613e037a0",
    ("gap-reclaim", "moldable"): "21e22a20e9c5ac78674adca8f1ea17154218b88f4984d866eaeb8af613e037a0",
    ("gap-reclaim", "preempt_migrate"): "21e22a20e9c5ac78674adca8f1ea17154218b88f4984d866eaeb8af613e037a0",
    ("priority-inversion", "sja"): "a5f56d29dbf850d46778ea3dc96366e8803a3fca74fddbb141a46f089471ce72",
    ("priority-inversion", "first_fit"): "a5f56d29dbf850d46778ea3dc96366e8803a3fca74fddbb141a46f089471ce72",
    ("priority-inversion", "best_fit"): "a5f56d29dbf850d46778ea3dc96366e8803a3fca74fddbb141a46f089471ce72",
    ("priority-inversion", "moldable"): "a5f56d29dbf850d46778ea3dc96366e8803a3fca74fddbb141a46f089471ce72",
    ("priority-inversion", "preempt_migrate"): "276c6e7a8d38e760ff7637eee47f207c33b57aa8e0c409bd106f6d23eb982e13",
    ("deadline", "sja"): "5c3e49267b7caab8af7e98f1e2b55ae3c85e45b39e371ebf3cd3282160764dd1",
    ("deadline", "first_fit"): "a2d226ee647a6ef4aa022a915699cb2c7ad2ffba956d63273cca36f3f1c68575",
    ("deadline", "best_fit"): "d1d7a50979280792088f983460f9e46cb9bfdb6227466f9246561a3dd9d9337b",
    ("deadline", "moldable"): "a35d8bd588045aff7189eccc3f30308f5cf5bf3a5dcb9945531789e7750946a1",
    ("deadline", "preempt_migrate"): "a2d226ee647a6ef4aa022a915699cb2c7ad2ffba956d63273cca36f3f1c68575",
    ("two-tenant", "sja"): "4eb1a320052cd863cb9f71cacaa4998d7ceb809f382e1e18a5a087b3b2f1fc38",
    ("two-tenant", "first_fit"): "16af39cda0e830e047fe286130963b7cba2df557015f2f1849f8720fb62982ba",
    ("two-tenant", "best_fit"): "778ff782864cd70d46da2b850ae9426fe6f6f3b36147a8d16571fb1021769920",
    ("two-tenant", "moldable"): "e926cb799b31068f1a9c20358b7dfa3adfacad8ec03bb1f57763f7fb38ee09fd",
    ("two-tenant", "preempt_migrate"): "16af39cda0e830e047fe286130963b7cba2df557015f2f1849f8720fb62982ba",
    ("fragmented", "sja"): "bc1cc697f193dea35a9d813506ffc46b002dc86af029926c469b10f7d1634a30",
    ("fragmented", "first_fit"): "d2c08ccb2fcb31cbacf7b2505a3cb62c8b8698dace901776402a4878614b8d1e",
    ("fragmented", "best_fit"): "c9d72b08856f7e41df296b9fba7491fad2f906a99499610b43b390423b59c67d",
    ("fragmented", "moldable"): "039e271b474035e5acc7fd05f52bb91b22ca22bda3ef72a6a7fd72d4951713f7",
    ("fragmented", "preempt_migrate"): "d2c08ccb2fcb31cbacf7b2505a3cb62c8b8698dace901776402a4878614b8d1e",
}


def test_table_covers_every_scenario_and_scheduler():
    assert set(DIGESTS) == {(n, s) for n in SCENARIO_BUILDERS for s in SCHEDULERS}


@pytest.mark.parametrize("name", list(SCENARIO_BUILDERS))
def test_outputs_are_byte_identical(name):
    scenario, cfg = SCENARIO_BUILDERS[name]()
    for scheduler in SCHEDULERS:
        report, log = run(scenario, scheduler, cfg, seed=0)
        text = events_text(log) + metrics_csv_text(report)
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == DIGESTS[(name, scheduler)], scheduler
