"""Byte-identical output gate.

Every bundled scenario under every scheduler at seeds 0-2 must reproduce
the event log and metrics exactly (DIGESTS at seed 0, SEED_DIGESTS at seeds
1 and 2). The digests are sha256 of
events_text(log) + metrics_csv_text(report). A change that alters them on
purpose must say why and regenerate the table.

The builders' default configs never inject failures, chain grants, give up
on a wait, cap OOM retries or plan from one run, so VARIANTS re-runs three
scenarios with each of those engine paths switched on. Nor do they mix
priorities, so outside priority-inversion preempt_migrate never preempts;
PRIORITY_MIX_DIGESTS re-runs three scenarios with priority = index % 3.
Nor do two jobs of one ensemble carry different demand floors into the
same re-plan; OOM_FLOOR_DIGEST pins a run where they do.
Nor do they run EDF with chained grants; EDF_CHAINED_DIGEST pins deadline(40)
under sja with two chains per job, where 47 offers carry a pipelined bidder.
"""
import hashlib
from dataclasses import replace

import numpy as np
import pytest

from sjasim import run
from sjasim.cli import events_text, metrics_csv_text
from sjasim.scenarios import SCENARIO_BUILDERS, make_deadline_scenario
from sjasim.simcore import SCHEDULERS, Scenario, SimConfig
from sjasim.workload import JobSpec, Phase, PhaseModel, synth_ensemble

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

SEED_DIGESTS = {
    ("smoke", "sja", 1): "0f01c26c4f30f4980a1285796774a37cf0da71f84e50568005c5b62ed24d27fb",
    ("smoke", "sja", 2): "1585519471e6903f6c3537be88b480815dda8020b40efa0bfddeb8e2e1ce0f03",
    ("smoke", "first_fit", 1): "1d2dc4312e8a6141e938bd36b0ddcdddebabb69c33fb60e969b9606ac14f0b3d",
    ("smoke", "first_fit", 2): "529b0cbc0fe24fd53bcced926fb33610892bc5792c7cdfdd538609fa5632c525",
    ("smoke", "best_fit", 1): "1b4734cc9f643004bb7f5f4aa6cebbd8a940f81c54a640ab67487f5f934e7794",
    ("smoke", "best_fit", 2): "c097c36c07a1c99793eb774dd0e1d4ffc64135410053c4ff7f17fe297bfb1120",
    ("smoke", "moldable", 1): "1b4734cc9f643004bb7f5f4aa6cebbd8a940f81c54a640ab67487f5f934e7794",
    ("smoke", "moldable", 2): "c097c36c07a1c99793eb774dd0e1d4ffc64135410053c4ff7f17fe297bfb1120",
    ("smoke", "preempt_migrate", 1): "1d2dc4312e8a6141e938bd36b0ddcdddebabb69c33fb60e969b9606ac14f0b3d",
    ("smoke", "preempt_migrate", 2): "529b0cbc0fe24fd53bcced926fb33610892bc5792c7cdfdd538609fa5632c525",
    ("calibration", "sja", 1): "1e4aa98f02d9c7eeaa53c9557c2a02d15dc80563c818e0ef23ba8892829339bf",
    ("calibration", "sja", 2): "f9e65ae541d6e8cb111df03ca0c1367e55623a1e37f23c14cd1de535358fd57e",
    ("calibration", "first_fit", 1): "71bb4a7b6d9be3c2091ed5f3c159184f14acf2514d7b71b3abf9e96d0390b9a7",
    ("calibration", "first_fit", 2): "8474fd1a24cd2c48c95ab04a3bed0b2da83607f436ea8a8f9557617d61597d74",
    ("calibration", "best_fit", 1): "0e265e6451608234aa5fc81903c9dacc03e1573e7fb08d196a07d3ae6da63ed9",
    ("calibration", "best_fit", 2): "f0a71b0b134f72d2dae460bf62a83a79ac670551b7383219e60050501c7b50c0",
    ("calibration", "moldable", 1): "dd5ca8841cb5c393fc16a34b19b499737689687843278a7f35b75ac3e9bdd893",
    ("calibration", "moldable", 2): "20481ea528a0ac57a9fdaa360fe073c91816fe05cce8edee010ffebf46ec48c6",
    ("calibration", "preempt_migrate", 1): "71bb4a7b6d9be3c2091ed5f3c159184f14acf2514d7b71b3abf9e96d0390b9a7",
    ("calibration", "preempt_migrate", 2): "8474fd1a24cd2c48c95ab04a3bed0b2da83607f436ea8a8f9557617d61597d74",
    ("gap-reclaim", "sja", 1): "bc8cf0b25517e591411f203d0ee403872b66e8c87878b4453b953908d2cbeab4",
    ("gap-reclaim", "sja", 2): "bc8cf0b25517e591411f203d0ee403872b66e8c87878b4453b953908d2cbeab4",
    ("gap-reclaim", "first_fit", 1): "21e22a20e9c5ac78674adca8f1ea17154218b88f4984d866eaeb8af613e037a0",
    ("gap-reclaim", "first_fit", 2): "21e22a20e9c5ac78674adca8f1ea17154218b88f4984d866eaeb8af613e037a0",
    ("gap-reclaim", "best_fit", 1): "21e22a20e9c5ac78674adca8f1ea17154218b88f4984d866eaeb8af613e037a0",
    ("gap-reclaim", "best_fit", 2): "21e22a20e9c5ac78674adca8f1ea17154218b88f4984d866eaeb8af613e037a0",
    ("gap-reclaim", "moldable", 1): "21e22a20e9c5ac78674adca8f1ea17154218b88f4984d866eaeb8af613e037a0",
    ("gap-reclaim", "moldable", 2): "21e22a20e9c5ac78674adca8f1ea17154218b88f4984d866eaeb8af613e037a0",
    ("gap-reclaim", "preempt_migrate", 1): "21e22a20e9c5ac78674adca8f1ea17154218b88f4984d866eaeb8af613e037a0",
    ("gap-reclaim", "preempt_migrate", 2): "21e22a20e9c5ac78674adca8f1ea17154218b88f4984d866eaeb8af613e037a0",
    ("priority-inversion", "sja", 1): "a5f56d29dbf850d46778ea3dc96366e8803a3fca74fddbb141a46f089471ce72",
    ("priority-inversion", "sja", 2): "a5f56d29dbf850d46778ea3dc96366e8803a3fca74fddbb141a46f089471ce72",
    ("priority-inversion", "first_fit", 1): "a5f56d29dbf850d46778ea3dc96366e8803a3fca74fddbb141a46f089471ce72",
    ("priority-inversion", "first_fit", 2): "a5f56d29dbf850d46778ea3dc96366e8803a3fca74fddbb141a46f089471ce72",
    ("priority-inversion", "best_fit", 1): "a5f56d29dbf850d46778ea3dc96366e8803a3fca74fddbb141a46f089471ce72",
    ("priority-inversion", "best_fit", 2): "a5f56d29dbf850d46778ea3dc96366e8803a3fca74fddbb141a46f089471ce72",
    ("priority-inversion", "moldable", 1): "a5f56d29dbf850d46778ea3dc96366e8803a3fca74fddbb141a46f089471ce72",
    ("priority-inversion", "moldable", 2): "a5f56d29dbf850d46778ea3dc96366e8803a3fca74fddbb141a46f089471ce72",
    ("priority-inversion", "preempt_migrate", 1): "276c6e7a8d38e760ff7637eee47f207c33b57aa8e0c409bd106f6d23eb982e13",
    ("priority-inversion", "preempt_migrate", 2): "276c6e7a8d38e760ff7637eee47f207c33b57aa8e0c409bd106f6d23eb982e13",
    ("deadline", "sja", 1): "d80e9a73c93c60eb67a1241a7c9886c041e03c012778379f6548e5bfc4c2b311",
    ("deadline", "sja", 2): "312c834b20559632b33bbf0b2a013c8ed8fb850de3194cc1f18c66d654058e4e",
    ("deadline", "first_fit", 1): "c76131a6ec6540ce1fbb4b57952886f21741342bfabe641637a5ff80b32dd22f",
    ("deadline", "first_fit", 2): "844520437e3e0e198b6d8d94b16daf667f2020171482132cce3477363c64b71c",
    ("deadline", "best_fit", 1): "4ddd140b07d5d3c86c5e76eed94e5153cec2a7149f2360ae3e1b447996555010",
    ("deadline", "best_fit", 2): "abb6e79d27c909ded698aba38aebfe3a973f094be312d63b726a56e5ade18ef8",
    ("deadline", "moldable", 1): "54cbb7e2cc9ee185e5c3454373b5d1df9b90777e18acc9520a669ef02ec64ae8",
    ("deadline", "moldable", 2): "58855cf29345dd3500c6e43f82ece0c8ef0fc04b403743b930c6afbd0f151aed",
    ("deadline", "preempt_migrate", 1): "c76131a6ec6540ce1fbb4b57952886f21741342bfabe641637a5ff80b32dd22f",
    ("deadline", "preempt_migrate", 2): "844520437e3e0e198b6d8d94b16daf667f2020171482132cce3477363c64b71c",
    ("two-tenant", "sja", 1): "3a6b80839d506d4d56d082705cc093578c53dc6aeed95bc064033ae1168ec67b",
    ("two-tenant", "sja", 2): "5973d7ada1f0a7be2d178a388cdb61e66e4ec06be264a0b1eab84356ceb4af67",
    ("two-tenant", "first_fit", 1): "110eb3be32dd56c6f2f3ccf7d707734875d8c57eacb30585987d9bef264d5ec2",
    ("two-tenant", "first_fit", 2): "a076d8ac8a8010ad9527d1770d629ca8431d9705f3e6e305b9433e0c1270d5cd",
    ("two-tenant", "best_fit", 1): "78aef7422a72b15e4262b41d75a93c619badd1866d3049f5be0a50bb500614aa",
    ("two-tenant", "best_fit", 2): "747a3a64ee9112958d95aefe363a2c3bed9af102d41c37137d681692055052be",
    ("two-tenant", "moldable", 1): "a558562121fad466069eee970929a0f73954a88a2f66e927a74559dca695ddc1",
    ("two-tenant", "moldable", 2): "91c21b12c53737f81aa18f2d076abedc752badcc7ba1ab9fd1752954c31d00ed",
    ("two-tenant", "preempt_migrate", 1): "110eb3be32dd56c6f2f3ccf7d707734875d8c57eacb30585987d9bef264d5ec2",
    ("two-tenant", "preempt_migrate", 2): "a076d8ac8a8010ad9527d1770d629ca8431d9705f3e6e305b9433e0c1270d5cd",
    ("fragmented", "sja", 1): "342444753fafe3b0dd289371d53249fe2a32ec036a6c272751c62ec3d93e4683",
    ("fragmented", "sja", 2): "0c22a40c94718617723e1f9e0c3e65fc9adca7edf8c9896d427f59f2378be662",
    ("fragmented", "first_fit", 1): "63a5d0becffe0d5c0547c306edf720f721b604bd80ba5370bad353e48f8b78f3",
    ("fragmented", "first_fit", 2): "d79f2c58957ade41cf7515d8cf76925ccfec8578adf305f313eac70337b36a66",
    ("fragmented", "best_fit", 1): "a9d1fb87b33e3c8477e41e4c342058b1ed4af31a147bdc1ca269c8f2c7ad0554",
    ("fragmented", "best_fit", 2): "82b8b7d6b0c42ebcf03da0969c0e5c792a5b8caf2e86dbf45880e0d8b1dbf10e",
    ("fragmented", "moldable", 1): "b4e988a84c8263bbc540609aa45a48efadb0920e1652eaa01d40d982405d1d39",
    ("fragmented", "moldable", 2): "b69bc5a4ed82d5bf89273b8eeac4237e3e4843626b792f4e138d217dccbd6416",
    ("fragmented", "preempt_migrate", 1): "63a5d0becffe0d5c0547c306edf720f721b604bd80ba5370bad353e48f8b78f3",
    ("fragmented", "preempt_migrate", 2): "d79f2c58957ade41cf7515d8cf76925ccfec8578adf305f313eac70337b36a66",
}


VARIANTS = {
    "failures": {"failure_rate_per_hour": 1.5},
    "chained": {"max_concurrent_subjobs_per_job": 2},
    "maxwait": {"max_wait_s": 1800.0},
    "nocorrect": {"online_correction": False, "max_oom_retries": 1},
    "onerun": {"n_historical_runs": 1},
}
VARIANT_SCENARIOS = ("smoke", "fragmented", "two-tenant")

VARIANT_DIGESTS = {
    ("smoke", "failures", "sja"): "acead127fcec091e9715503dd2ae2d223a024132d26ef91d56d03d49d8c6b775",
    ("smoke", "failures", "first_fit"): "59cd46ed6cb47421687727af88d97a00ec44eb323484409d8560a4e586409fee",
    ("smoke", "failures", "best_fit"): "a9753fd3e03177c8a5526a8dcec4c2f8be707160517c60d976481254ff7546da",
    ("smoke", "failures", "moldable"): "a9753fd3e03177c8a5526a8dcec4c2f8be707160517c60d976481254ff7546da",
    ("smoke", "failures", "preempt_migrate"): "1320c3f3d8351ba296defa569c9542dcfff5f8036ac67279a696627dd27b6b53",
    ("fragmented", "failures", "sja"): "7f5bd961f90ffb77a789dc1db60c52663f42644960e129a1e9c77fd33907f62b",
    ("fragmented", "failures", "first_fit"): "e325e96c123997af5951d43dc1ec52dd86130ed44e091295ceaecb05a23259cf",
    ("fragmented", "failures", "best_fit"): "958d12d8696ddf0da36e475a2d36b66c02e846c9217d4fe15d81052c7fc69093",
    ("fragmented", "failures", "moldable"): "6338f9eabf4afe1ac292f286178a7f8b1fd9817839a5470c52a14158aada4107",
    ("fragmented", "failures", "preempt_migrate"): "1762cad6a4ac763a3f0324da637386f52cc98ea4eec779cfa4ba21bf88aca70d",
    ("two-tenant", "failures", "sja"): "ffb08aff345d95dfba6ae92b45c25d8ee4d0db0e7360263ea1755efec21b3ded",
    ("two-tenant", "failures", "first_fit"): "8ef8e492a0cb21dfb548555d5d085bed667f02b4feb135f50dd739d661e8d5b0",
    ("two-tenant", "failures", "best_fit"): "eb192221a6722c13a289ecba05a9de0bcb6645c9703d76d6d7733d6fb12a4c24",
    ("two-tenant", "failures", "moldable"): "71b5289a40936b618c781bccb9a891970367ce7df2b72213ceabf31284e63746",
    ("two-tenant", "failures", "preempt_migrate"): "7b9adbaad58d83afe5c255815f568e21f4e3160dece2819d27f8b542cc44c85c",
    ("smoke", "chained", "sja"): "bf57c0d496cb07756f316dee679883011e22733af64804c55566626f3676bc21",
    ("smoke", "chained", "first_fit"): "d0f3a80d1b09e5f119856e63ff70f64a9370d12fd8303ba0391c353b095e1302",
    ("smoke", "chained", "best_fit"): "cff65e1501224bff2cb89c33aaf97bdb8fe55f10a1fa8dcb5c20e1e1115a1ebc",
    ("smoke", "chained", "moldable"): "cff65e1501224bff2cb89c33aaf97bdb8fe55f10a1fa8dcb5c20e1e1115a1ebc",
    ("smoke", "chained", "preempt_migrate"): "d0f3a80d1b09e5f119856e63ff70f64a9370d12fd8303ba0391c353b095e1302",
    ("fragmented", "chained", "sja"): "4b810602041b39433c4b2638b1cf88d2f56d8ae75e390c19eefc896bcb1503a5",
    ("fragmented", "chained", "first_fit"): "d2c08ccb2fcb31cbacf7b2505a3cb62c8b8698dace901776402a4878614b8d1e",
    ("fragmented", "chained", "best_fit"): "c9d72b08856f7e41df296b9fba7491fad2f906a99499610b43b390423b59c67d",
    ("fragmented", "chained", "moldable"): "039e271b474035e5acc7fd05f52bb91b22ca22bda3ef72a6a7fd72d4951713f7",
    ("fragmented", "chained", "preempt_migrate"): "d2c08ccb2fcb31cbacf7b2505a3cb62c8b8698dace901776402a4878614b8d1e",
    ("two-tenant", "chained", "sja"): "668fd3c805874f8391befaf8b86344bf7362c65d53a3c41d02b2b4c327185172",
    ("two-tenant", "chained", "first_fit"): "16af39cda0e830e047fe286130963b7cba2df557015f2f1849f8720fb62982ba",
    ("two-tenant", "chained", "best_fit"): "778ff782864cd70d46da2b850ae9426fe6f6f3b36147a8d16571fb1021769920",
    ("two-tenant", "chained", "moldable"): "e926cb799b31068f1a9c20358b7dfa3adfacad8ec03bb1f57763f7fb38ee09fd",
    ("two-tenant", "chained", "preempt_migrate"): "16af39cda0e830e047fe286130963b7cba2df557015f2f1849f8720fb62982ba",
    ("smoke", "maxwait", "sja"): "dbffb3598726cd50a1d83bfe592b5496af7859e5eae8422945e7b43d47450815",
    ("smoke", "maxwait", "first_fit"): "d0f3a80d1b09e5f119856e63ff70f64a9370d12fd8303ba0391c353b095e1302",
    ("smoke", "maxwait", "best_fit"): "cff65e1501224bff2cb89c33aaf97bdb8fe55f10a1fa8dcb5c20e1e1115a1ebc",
    ("smoke", "maxwait", "moldable"): "cff65e1501224bff2cb89c33aaf97bdb8fe55f10a1fa8dcb5c20e1e1115a1ebc",
    ("smoke", "maxwait", "preempt_migrate"): "d0f3a80d1b09e5f119856e63ff70f64a9370d12fd8303ba0391c353b095e1302",
    ("fragmented", "maxwait", "sja"): "e32e838054a27cefc37ae76ef0b1f6ca506868306a4d87efef3e4bbc8ac33db5",
    ("fragmented", "maxwait", "first_fit"): "0aa7e1ea14d40367753a2be1d9f1f7ab11a3ba677cc160a04394983e91754226",
    ("fragmented", "maxwait", "best_fit"): "7f050410656432ce61b1d1862e6f2ada62bebf7dd66acb6a4d9b776d96f1701d",
    ("fragmented", "maxwait", "moldable"): "6fd8268f7d5004d100ac21a942171a55bbc2f05ec486bce3900890da88abcccf",
    ("fragmented", "maxwait", "preempt_migrate"): "0aa7e1ea14d40367753a2be1d9f1f7ab11a3ba677cc160a04394983e91754226",
    ("two-tenant", "maxwait", "sja"): "ad6f2b4b3f95932fef8f0198911e856b3bbc7a10a6a85a1637e1b97492cfdef6",
    ("two-tenant", "maxwait", "first_fit"): "35d199cd20df2c929da34369d9c4688c512bf54c35abead3eecb6a8aac64a2c2",
    ("two-tenant", "maxwait", "best_fit"): "7270355e19c33257302732269b1da2d3ff751460c33a00858adee5b0141f8957",
    ("two-tenant", "maxwait", "moldable"): "872438bfc40206e8aaff85470e5f5c9b4eb011fbeb35a73ba1f908af2abcabf1",
    ("two-tenant", "maxwait", "preempt_migrate"): "35d199cd20df2c929da34369d9c4688c512bf54c35abead3eecb6a8aac64a2c2",
    ("smoke", "nocorrect", "sja"): "bf57c0d496cb07756f316dee679883011e22733af64804c55566626f3676bc21",
    ("smoke", "nocorrect", "first_fit"): "d0f3a80d1b09e5f119856e63ff70f64a9370d12fd8303ba0391c353b095e1302",
    ("smoke", "nocorrect", "best_fit"): "cff65e1501224bff2cb89c33aaf97bdb8fe55f10a1fa8dcb5c20e1e1115a1ebc",
    ("smoke", "nocorrect", "moldable"): "cff65e1501224bff2cb89c33aaf97bdb8fe55f10a1fa8dcb5c20e1e1115a1ebc",
    ("smoke", "nocorrect", "preempt_migrate"): "d0f3a80d1b09e5f119856e63ff70f64a9370d12fd8303ba0391c353b095e1302",
    ("fragmented", "nocorrect", "sja"): "00dc87a6cf24088fb6e89da9b92197e977267fbea8ef752ded3c5ec04d72982a",
    ("fragmented", "nocorrect", "first_fit"): "c6caaf72e76e4a019d73e30c6f083ed23ee5a571396ffe679930edcb5e579400",
    ("fragmented", "nocorrect", "best_fit"): "ea3d0fc616f9f4db15f32f5bee5daa64548b33b9077e1b7c7d0ba34d1bdc8014",
    ("fragmented", "nocorrect", "moldable"): "1dfac5ca6c1f6522c398e199c627d2a44ec2a231ad43be6fc4fb095024def71b",
    ("fragmented", "nocorrect", "preempt_migrate"): "c6caaf72e76e4a019d73e30c6f083ed23ee5a571396ffe679930edcb5e579400",
    ("two-tenant", "nocorrect", "sja"): "4eb1a320052cd863cb9f71cacaa4998d7ceb809f382e1e18a5a087b3b2f1fc38",
    ("two-tenant", "nocorrect", "first_fit"): "2c032a1fdd4cf603c00bcac0ce37671a79b25770b8431aa9e95f5a51ebbe9d85",
    ("two-tenant", "nocorrect", "best_fit"): "e0f80af1a4cc931b139873a59e77e6851fcfae28c0dd966ebbf1cca93907679f",
    ("two-tenant", "nocorrect", "moldable"): "181e16f06c9342f64f9f5909ad8fbdd731928b7b935042c5a46c9bcaf0c8cfc6",
    ("two-tenant", "nocorrect", "preempt_migrate"): "2c032a1fdd4cf603c00bcac0ce37671a79b25770b8431aa9e95f5a51ebbe9d85",
    ("smoke", "onerun", "sja"): "a047d720a902e8282f96d7c7dffe91998d56078041ba13caf4588b1dc7e87053",
    ("smoke", "onerun", "first_fit"): "38c049f368b0c7ad064fa3c268a5398923828c859479827539742e582250c712",
    ("smoke", "onerun", "best_fit"): "3185d98636f93b30108d46e3c5f6179ddefd2375552883123bd8d19ad77d6f8d",
    ("smoke", "onerun", "moldable"): "3185d98636f93b30108d46e3c5f6179ddefd2375552883123bd8d19ad77d6f8d",
    ("smoke", "onerun", "preempt_migrate"): "38c049f368b0c7ad064fa3c268a5398923828c859479827539742e582250c712",
    ("fragmented", "onerun", "sja"): "0fd838877ac297d2edec5c65d69a3ea98705ec4f86cc879db800c5bc39541f9d",
    ("fragmented", "onerun", "first_fit"): "bc2bb28e69044a7876e017080e803afe3dd95d0205bad6ff8db0d92953a6c3fa",
    ("fragmented", "onerun", "best_fit"): "cd2a611a061b398920160083bfd7aa8dfdb9fe04120439138496ee594a184f60",
    ("fragmented", "onerun", "moldable"): "3a23cd3f81a8d43638929f0caea73a0ffeb99f88b8249d26e19912b2db0398ec",
    ("fragmented", "onerun", "preempt_migrate"): "bc2bb28e69044a7876e017080e803afe3dd95d0205bad6ff8db0d92953a6c3fa",
    ("two-tenant", "onerun", "sja"): "df7de335667e07820391df000474667760656a32f00d899d499c48c1e5ab4dfc",
    ("two-tenant", "onerun", "first_fit"): "6244e2dcc519cb0993cd7d75b555e86f861e7314d4bf0c04fa292b275727de7c",
    ("two-tenant", "onerun", "best_fit"): "6ae471de46aa0c887a46de54f4d6e9e1084bb4d946021c5beb856d460caee40d",
    ("two-tenant", "onerun", "moldable"): "66a096b2cc9a532aba16096191bb16183e923f2a390856b015832d664381f653",
    ("two-tenant", "onerun", "preempt_migrate"): "6244e2dcc519cb0993cd7d75b555e86f861e7314d4bf0c04fa292b275727de7c",
}


PRIORITY_MIX_SCENARIOS = ("calibration", "two-tenant", "fragmented")
PRIORITY_MIX_DIGESTS = {
    ("calibration", 0.0): "83ab7f0577c53f76ddefffaaddeac5616c1ae124a55528bbeb9ffa39456cbb6d",
    ("calibration", 1.5): "8f8395fb92b46b62446d03a3960f7f02ad8ec0c69c3f6f2067489dc25fa4f92d",
    ("two-tenant", 0.0): "f79d8c8323fe1bb5c19bce33116d4deaf1919e7cb7cbce5aee111a87392defac",
    ("two-tenant", 1.5): "bfd75e09515fa8e42f30ff40ae3e8cfc4982b27460b329c6838fd8ada24e5cc7",
    ("fragmented", 0.0): "b92bc84cf2cfa3b6735f8590b0c67c6dd31f563dd54a224a26eab8112eba36bd",
    ("fragmented", 1.5): "2fddfecef223e7abbc7969d029f9b6df130ea99ce3811cc834562dfc5ff2dd88",
}

# Two jobs on one profile, both OOM-killed at start index 0 with version-1
# demand floors of 12 GB and 24 GB: their re-plans of the same window must
# differ, so a plan-cache key that confuses the two floors changes the log.
OOM_FLOOR_DIGEST = "02e4897c76c7518f73699a694203b5ac9acf9f2329f6154c77ea3f7e84e75683"

EDF_CHAINED_DIGEST = "e97085edb9451d89c41028ed944236d1053a0a70d5db314102676a23fce56115"


def _oom_floor_scenario() -> tuple[Scenario, SimConfig]:
    model = PhaseModel(phases=(Phase("steady", 1200.0, 8000.0, 150.0),))
    ensembles = {"m": synth_ensemble(model, 16, 0.05, seed=[5, 0], grid_step=60.0)}
    jobs = [
        JobSpec(f"job-{k}", "t0", 0.0, 1200.0, 9500.0, checkpoint_size_mb=128.0,
                generator=model, duration_jitter=0.05, ensemble_key="m")
        for k in range(2)
    ]
    truths = {
        "job-0": np.array([8000.0] * 10 + [12000.0] * 11),
        "job-1": np.array([8000.0] * 10 + [24000.0] * 11),
    }
    cfg = SimConfig(gpus=1, slices_per_gpu=(10240, 20480, 40960))
    return Scenario(jobs, ensembles, truths, name="oom-floors"), cfg


def _digest(scenario, scheduler, cfg, seed=0) -> str:
    report, log = run(scenario, scheduler, cfg, seed=seed)
    text = events_text(log) + metrics_csv_text(report)
    return hashlib.sha256(text.encode()).hexdigest()


def test_table_covers_every_scenario_and_scheduler():
    assert set(DIGESTS) == {(n, s) for n in SCENARIO_BUILDERS for s in SCHEDULERS}


@pytest.mark.parametrize("name", list(SCENARIO_BUILDERS))
def test_outputs_are_byte_identical(name):
    scenario, cfg = SCENARIO_BUILDERS[name]()
    for scheduler in SCHEDULERS:
        assert _digest(scenario, scheduler, cfg) == DIGESTS[(name, scheduler)], scheduler


def test_seed_table_covers_every_scenario_scheduler_and_seed():
    assert set(SEED_DIGESTS) == {
        (n, s, seed) for n in SCENARIO_BUILDERS for s in SCHEDULERS for seed in (1, 2)
    }


@pytest.mark.parametrize("name", list(SCENARIO_BUILDERS))
def test_later_seeds_are_byte_identical(name):
    scenario, cfg = SCENARIO_BUILDERS[name]()
    for scheduler in SCHEDULERS:
        for seed in (1, 2):
            digest = _digest(scenario, scheduler, cfg, seed)
            assert digest == SEED_DIGESTS[(name, scheduler, seed)], (scheduler, seed)


def test_variant_table_covers_every_case():
    assert set(VARIANT_DIGESTS) == {
        (n, v, s) for n in VARIANT_SCENARIOS for v in VARIANTS for s in SCHEDULERS
    }


@pytest.mark.parametrize("variant", list(VARIANTS))
@pytest.mark.parametrize("name", VARIANT_SCENARIOS)
def test_engine_variants_are_byte_identical(name, variant):
    scenario, cfg = SCENARIO_BUILDERS[name]()
    cfg = replace(cfg, **VARIANTS[variant])
    for scheduler in SCHEDULERS:
        digest = _digest(scenario, scheduler, cfg)
        assert digest == VARIANT_DIGESTS[(name, variant, scheduler)], scheduler


@pytest.mark.parametrize("name", PRIORITY_MIX_SCENARIOS)
def test_priority_mix_preemption_is_byte_identical(name):
    scenario, cfg = SCENARIO_BUILDERS[name]()
    jobs = [replace(j, priority=i % 3) for i, j in enumerate(scenario.jobs)]
    scenario = replace(scenario, jobs=jobs)
    for rate in (0.0, 1.5):
        digest = _digest(scenario, "preempt_migrate", replace(cfg, failure_rate_per_hour=rate))
        assert digest == PRIORITY_MIX_DIGESTS[(name, rate)], rate


def test_ensemble_mates_with_different_oom_floors_are_byte_identical():
    scenario, cfg = _oom_floor_scenario()
    report, log = run(scenario, "sja", cfg, seed=0)
    ooms = [r for r in log if r["kind"] == "oom_kill"]
    assert [(r["job"], r["kill_pos_s"]) for r in ooms] == [("job-0", 600.0), ("job-1", 600.0)]
    assert _digest(scenario, "sja", cfg) == OOM_FLOOR_DIGEST


def test_edf_with_chained_grants_is_byte_identical():
    scenario, cfg = make_deadline_scenario(40)
    cfg = replace(cfg, max_concurrent_subjobs_per_job=2)
    assert cfg.policy.kind == "edf"
    assert _digest(scenario, "sja", cfg) == EDF_CHAINED_DIGEST
