"""Pinned front-end behaviour under the non-default settings.

The golden digests elsewhere (``tests/properties/test_policy.py``, the
bench's kernel digests) pin baseline and SPEAR-128 under the default
wrong-path, drain and chaining settings only.  Each run here times a
small paper workload under one front-end or PE setting the defaults
never reach, and pins the sha256 of its pickled ``PipelineResult``
(sampled timeline included) followed by its full serialized event
stream.  ``run()``, which skips idle stretches, and the per-cycle walk
must both produce the pinned bytes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import pickle

import pytest

from repro.core.configs import SPEAR_128
from repro.harness import ExperimentRunner
from repro.observe import IntervalSampler, RingBufferSink, serialize_events
from repro.policy import make_policy

from ..conftest import WALK_OR_SKIP, timing_sim

WORKLOADS = ("mcf", "gzip", "tr")

#: Setting name -> ``MachineConfig`` overrides on top of SPEAR-128.
SETTINGS = {
    "bubbles": dict(wrong_path="bubbles"),
    "stall": dict(wrong_path="stall"),
    "drain-full": dict(drain_policy="full"),
    "drain-none": dict(drain_policy="none"),
    "chaining": dict(chaining=True),
    "threshold-0.1": dict(trigger_occupancy_fraction=0.1),
    "starved-pe": dict(extract_width=1, pthread_ruu_size=8),
    # Default config under the in-run phase controller.
    "adaptive-phase": dict(),
}

#: Recorded at 5edf4e7, before the IFQ became an index window.
PINNED = {
    ("mcf", "bubbles"):
        "d26d5fafaf622674ffcceb02ad4e29f9d80a760f19717c03bf1368af2043fb62",
    ("mcf", "stall"):
        "d7c2e6dc980f3ab125f06029c4b3f71c68234b957f4efa76015496c0ef3c5e5d",
    ("mcf", "drain-full"):
        "46509250dcd24068482acee660289eecfae9cdb2675c3d32e539208f0cf90ea0",
    ("mcf", "drain-none"):
        "d4b98f19d198f0a042c04b3f94c774894799e473ed075873c687e2b60464322a",
    ("mcf", "chaining"):
        "28c5d8da815182119aa90151bfcf3a8c64db4a9fef57d3fbe3ce495b5f64a2b7",
    ("mcf", "threshold-0.1"):
        "34185089cd73da2c22848b4542987f8d8a0d97861856ac56f5f590e56ae2cf50",
    ("mcf", "starved-pe"):
        "ac3ca4d34ec3723ae06398d6a9defe409a1c3e815a8d70bb9c5c290174a25bf0",
    ("mcf", "adaptive-phase"):
        "7d3bef07db0d16227d6f9639b981f985ba91b25900f8af646bbc3f5b9dec6163",
    ("gzip", "bubbles"):
        "33ed393741ccbffe4bd53fd6fa7e96cd3001673219773c98c048b1cde9c57d4b",
    ("gzip", "stall"):
        "ed9f44daecd39b223e80a4409c3280e278b9f9a06e044e3d6c50f7976cf1daff",
    ("gzip", "drain-full"):
        "d3c2b9267c534c7c96920f6f7b88e0bc38f5215d9005a4baf0d30ce685035918",
    ("gzip", "drain-none"):
        "eb2fc5d1b0720add7574d471547539ec1baecced9602fdb419e1cde0841df4bc",
    ("gzip", "chaining"):
        "bc9d25070c8e45592cfd11ec91478a772a185d31783a60774225c822e408343a",
    ("gzip", "threshold-0.1"):
        "7b36611dbbeb9f4c939be89553fc8cad7899055c0a7954a2e1cadd7d02a978a5",
    ("gzip", "starved-pe"):
        "0f1112a4be36496cd1602961716248a3109045c9c8ded38b19740d8572918d6e",
    ("gzip", "adaptive-phase"):
        "25c9f8af4819bf56ba99e5802cbf8e6251be1224f514f4704e21472582cef9a8",
    ("tr", "bubbles"):
        "557e177f8e077e0fb0f0676ac5007366bb854dbf5803dedf1eb6242ba4233e07",
    ("tr", "stall"):
        "40694a393278f8c3bc3764b98f9ea619c8146e3e0c4db75ef0ea2c652e23a83e",
    ("tr", "drain-full"):
        "7abef08f4a86fbae9da948c07e46f18b1bb2dfef7c242a10457ad58fdb56e0f4",
    ("tr", "drain-none"):
        "7122fec4846b4d2613832a02f5fd46b28f0ba84b323cbd2802432f352c7edf52",
    ("tr", "chaining"):
        "082220fd539a74e27781912249d151d61ab1f6635b9491f0bf523c95004f512f",
    ("tr", "threshold-0.1"):
        "f3b9a1a29d50704096e039f2f3bbd461d8d86dedb92268a54cb23b443807d50b",
    ("tr", "starved-pe"):
        "89dbf70f5ea4ad56f7c059c32e749e583479336587a7a64d980ac89e41d23854",
    ("tr", "adaptive-phase"):
        "65360b64f20669b0bf40e56e00454b93ef915421c96700fd80ff1080830b9c87",
}


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner(instruction_scale=0.05)


def run_digest(runner, workload: str, setting: str, walk: bool) -> str:
    art = runner.artifacts(workload)
    config = dataclasses.replace(SPEAR_128, name=f"SPEAR-128/{setting}",
                                 **SETTINGS[setting])
    policy = (make_policy("adaptive-phase").make_controller(config)
              if setting == "adaptive-phase" else None)
    sink = RingBufferSink(capacity=None)
    sim = timing_sim(art.eval_trace, config, art.binary.table, walk=walk,
                     warmup=art.warmup_trace, tracer=sink,
                     sampler=IntervalSampler(500), policy=policy)
    result = pickle.dumps(sim.run(), pickle.HIGHEST_PROTOCOL)
    events = serialize_events(sink.events()).encode()
    return hashlib.sha256(result + events).hexdigest()


@WALK_OR_SKIP
@pytest.mark.parametrize("setting", SETTINGS)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_frontend_run_matches_pin(runner, workload, setting, walk):
    assert run_digest(runner, workload, setting, walk) == \
        PINNED[workload, setting]
