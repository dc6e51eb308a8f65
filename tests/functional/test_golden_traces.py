"""Golden digests of the functional simulator on the paper's workloads.

Each digest covers one traced run of a workload's train or eval program
on a fixed budget: every slot of every trace entry (with its type), the
final register files and memory bytes, and ``pc``, ``instret`` and
``halted``.  A change to the interpreter that alters any of them — a
mistyped opcode constant, a dropped check, an entry field of the wrong
type — changes the digest, whether or not a timing golden happens to use
the affected opcode.

To re-record after an intended semantic change::

    PYTHONPATH=src python tests/functional/test_golden_traces.py
"""

from __future__ import annotations

import hashlib
from array import array
from operator import attrgetter

import pytest

from repro.functional import FunctionalSimulator, TraceEntry
from repro.harness.experiments import EVAL_WORKLOADS
from repro.workloads import get_workload

#: Instructions per traced run.
BUDGET = 20_000

#: Recorded while the interpreter still compared ``Op`` members and built
#: a new entry per instruction; dispatching on ints and sharing
#: address-free entries must not move any of them.
GOLDEN = {
    ("pointer", "train"):
        "8dbaeb7baced0079f24dfd4aa84b2db87e2430c85678d0c4e30a7cfbe418a7a5",
    ("pointer", "eval"):
        "78202f35ef456fb32c8195402b4bfde2052b346885839298e21f121372590e81",
    ("update", "train"):
        "41efd86856a776793e51c1c9b4a5c37b4a86ed6c4eb7e8650f3722723873e42a",
    ("update", "eval"):
        "e4837f338e0b3309025d05c5ab0cd51d16e4976cd317ce0d10f829488a866693",
    ("nbh", "train"):
        "dfe7beea466a0ba4942123d19b0d6e2811150339bab2af572275c15d2e56b92e",
    ("nbh", "eval"):
        "4378d45b60bd4e67834c360d29b4846a402d3e84b4ad1d3d39d3a8791d6da610",
    ("tr", "train"):
        "1a0e63443ff421ebdae461102a47d7283f873e984cff01708ed32e709cf11dea",
    ("tr", "eval"):
        "4985af63acb3ba4939f4a8f020aab6dfc9da22d980e2fc36f065f14cdec182dc",
    ("matrix", "train"):
        "43839810888fec01c52217b7dca5a1b0e91ffb482d215248666421916fee3541",
    ("matrix", "eval"):
        "f18368ef39861b692be045324a1c64192b5b46e01be6bc9c033b424eb8dcee57",
    ("field", "train"):
        "0977f94cfe0aabffd8f29a577e9f2bafd9ec93353d635ec88c06621e571975a9",
    ("field", "eval"):
        "ef208fce516b6c27224e1c7f178170b1be9fb4c4b10fcc6a7226d20d9fb64302",
    ("dm", "train"):
        "ad64425d5749c025a814d7972194571c5e664ecc3dbf4988d86adf1068c723a5",
    ("dm", "eval"):
        "b2e8d80393c62056192dc1beec507f58bb7fe59dcad6645e56e7694de52074ce",
    ("ray", "train"):
        "af5717c4829fe4eb20358af94c4e6da715fdbcca005dfd11a97805d0d7b8a6ef",
    ("ray", "eval"):
        "a91015f072c43fe3a4895ae57d6b035adf21a7afd48041af0f52f645003b8ea6",
    ("fft", "train"):
        "ef24d5c56c5f5e67bb53fcdb2dfe13f3a841b290afb71370ce89e4098d1be07a",
    ("fft", "eval"):
        "c71b40e79a73ee8d668b8e8248ec6653b6da8348aa2f32088d69ddc32fe9409d",
    ("gzip", "train"):
        "2b0fca4703d9a69d12ff6c8fe811d2ddb70d3beaf46f192f00d0820a2724b1eb",
    ("gzip", "eval"):
        "883c936ce46feaefd9a32dad0c7e6793769d4c79e8fca0f95ede1e75b27504d4",
    ("mcf", "train"):
        "0b11f60798178b2ae8d9816532be2b9a6b5f5ee32061e50f8cc5d9d056b0ff50",
    ("mcf", "eval"):
        "0f4eca6a1392cfe6cff4c14e46a5249fefe9cd96e321c75263cd3ac7740cceb5",
    ("vpr", "train"):
        "522689e5914fe3ed328e57dfd34175adad57ed2d871953e97f7e3a97ef248d31",
    ("vpr", "eval"):
        "6c24fcb3974765435480a64834c462481880752306ad7f37837f78822c51638a",
    ("bzip2", "train"):
        "41a13dcf385bc808a6f1d68afaa5241c95ec9c628f0cb04f927320d759dd7790",
    ("bzip2", "eval"):
        "6a976b7487eb0b7516967d2c0b969272b71afc23ccf71c2152d93bc4414b1d25",
    ("equake", "train"):
        "ee5cacf67ba41ea4025cf751b22b75afbf3b601072eff47789d4d120ce1b20db",
    ("equake", "eval"):
        "66578f2e1dc370f5dfee14db2f91a20cbf972dba77a2bd3360ef8504a5b573b6",
    ("art", "train"):
        "62a750789fb5957aac41ac3e76ee927ac7e5862027e70b30d421ee3208c371c5",
    ("art", "eval"):
        "c069961d2960b6c9884367614dfb65efa5143571e8a8912d62dddc418b1fa3ba",
}


def run_digest(name: str, variant: str) -> str:
    """SHA-256 of one traced run of ``name``'s ``variant`` program."""
    sim = FunctionalSimulator(get_workload(name).program(variant))
    trace = sim.run(BUDGET, trace=True)
    fields = attrgetter(*TraceEntry.__slots__)
    h = hashlib.sha256()
    for entry in trace.entries:
        h.update(repr(tuple((type(v).__name__, v)
                            for v in fields(entry))).encode())
    h.update(repr((trace.program_name, trace.halted, trace.instret)).encode())
    h.update(repr([(type(v).__name__, v) for v in sim.iregs]).encode())
    h.update(repr([type(v).__name__ for v in sim.fregs]).encode())
    h.update(array("d", sim.fregs).tobytes())
    h.update(sim.mem.tobytes())
    h.update(repr((sim.pc, sim.instret, sim.halted)).encode())
    return h.hexdigest()


@pytest.mark.parametrize("variant", ["train", "eval"])
@pytest.mark.parametrize("name", EVAL_WORKLOADS)
def test_golden_trace(name, variant):
    assert run_digest(name, variant) == GOLDEN[name, variant]


if __name__ == "__main__":
    for name in EVAL_WORKLOADS:
        for variant in ("train", "eval"):
            print(f"    (\"{name}\", \"{variant}\"):\n"
                  f"        \"{run_digest(name, variant)}\",")
