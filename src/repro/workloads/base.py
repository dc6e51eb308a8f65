"""Workload infrastructure.

Each benchmark of the paper's Table 1 is reproduced as a SPISA kernel with
the same *memory-access character* as the original (DESIGN.md §2): pointer
chasing, indexed gather, streaming, hash probing, butterfly access, and so
on.  A workload builds two program variants with identical text segments:

* ``train`` — the profiling input (different seed/data), and
* ``eval``  — the evaluation input,

mirroring the paper's separation of profiling and simulation data sets.

Determinism: all randomness flows from explicit per-variant seeds; building
the same variant twice yields byte-identical programs.
"""

from __future__ import annotations

import zlib
from abc import ABC, abstractmethod

import numpy as np

from ..isa.builder import ProgramBuilder
from ..isa.program import Program
from ..paper import TABLE


class Workload(ABC):
    """One benchmark analog."""

    #: short name used everywhere (matches the paper's abbreviation)
    name: str = ""
    #: "stressmark", "dis" or "spec"
    suite: str = ""
    #: what this analog is known for, shown by ``repro list`` (the
    #: published numbers it targets are in :mod:`repro.paper`)
    notes: str = ""
    #: dynamic instruction budget for evaluation traces
    eval_instructions: int = 60_000
    #: dynamic instruction budget for profiling traces
    profile_instructions: int = 40_000
    #: instructions skipped (functionally warmed) before measurement —
    #: the analog of the paper's Table 1 "skipped instructions"
    warmup_instructions: int = 40_000

    _SEEDS = {"train": 20040419, "eval": 19770107}

    def program(self, variant: str = "eval") -> Program:
        """Build the program for one input variant."""
        if variant not in self._SEEDS:
            raise ValueError(f"unknown variant {variant!r}")
        # crc32, not hash(): str hashing is randomized per process
        # (PYTHONHASHSEED), which would make parallel workers and cached
        # artifacts disagree with a serial run.
        rng = np.random.default_rng(
            self._SEEDS[variant] ^ zlib.crc32(self.name.encode()))
        builder = ProgramBuilder(self.name, mem_bytes=self.mem_bytes)
        self.build(builder, rng, variant)
        builder.halt()
        return builder.build()

    #: data memory size for this workload
    mem_bytes: int = 16 << 20

    @abstractmethod
    def build(self, b: ProgramBuilder, rng: np.random.Generator,
              variant: str) -> None:
        """Emit the kernel into ``b``.  Must not emit the final halt."""

    def spec_of(self):
        """Export this workload's kernel as a fuzz ``KernelSpec``, or
        None when it has no IR port.

        The export is a *behavioural* port, not a byte transcription:
        the spec grammar's fixed materialization (shared scratch
        registers, masked addressing, counted loops) cannot reproduce a
        hand-built program's exact text, so exporters scale the kernel
        into the generator's dynamic budget while preserving its memory
        character and SPEAR expectation (gain/flat).  What *is* exact:
        the spec JSON round-trips byte-identically, and the
        materialized program is byte-deterministic — both pinned in
        ``tests/workloads/test_spec_exports.py``.  These specs seed the
        coverage-guided campaign's mutation arms
        (:mod:`repro.fuzz.schedule`).
        """
        return None

    # -- shared data-generation helpers ------------------------------------

    @staticmethod
    def random_cycle(n: int, rng: np.random.Generator) -> np.ndarray:
        """A single-cycle permutation: ``next[i]`` visits all n nodes.

        This is the canonical pointer-chase working set — following
        ``i = next[i]`` touches every element in random order with no
        locality.
        """
        perm = rng.permutation(n)
        nxt = np.empty(n, dtype=np.int64)
        nxt[perm[:-1]] = perm[1:]
        nxt[perm[-1]] = perm[0]
        return nxt

    @staticmethod
    def biased_bits(n: int, p_taken: float, rng: np.random.Generator) -> np.ndarray:
        """0/1 array with P(1) = p_taken — drives data-dependent branches
        whose bimodal hit ratio approximates max(p, 1-p)."""
        return (rng.random(n) < p_taken).astype(np.int64)


_REGISTRY: dict[str, type[Workload]] = {}


def register(cls: type[Workload]) -> type[Workload]:
    """Class decorator adding a workload to the global registry."""
    if not cls.name:
        raise ValueError(f"{cls.__name__} has no name")
    if cls.name in _REGISTRY:
        raise ValueError(f"duplicate workload name {cls.name!r}")
    _REGISTRY[cls.name] = cls
    return cls


def get_workload(name: str) -> Workload:
    """Instantiate a registered workload by name.

    ``fuzz:...`` names are virtual: they encode a generated kernel's
    full identity (see :func:`repro.fuzz.generator.encode_name`) and are
    rebuilt from the string instead of the registry, so parallel workers
    and cache keys need nothing beyond the name itself.
    """
    if name.startswith("fuzz:"):
        from ..fuzz.generator import fuzz_workload_from_name
        return fuzz_workload_from_name(name)
    if name.startswith("fuzzmut:"):
        # Mutated hand-built spec: ``fuzzmut:v1:<seed>:<index>:<base>``
        # fully encodes the mutation identity (the base workload's
        # exported spec plus a seeded mutation walk).
        from ..fuzz.schedule import mut_workload_from_name
        return mut_workload_from_name(name)
    try:
        return _REGISTRY[name]()
    except KeyError:
        raise KeyError(
            f"unknown workload {name!r}; known: {sorted(_REGISTRY)}") from None


def all_workload_names() -> list[str]:
    """All registered names: the evaluated ones in the paper's Table 1
    order (:data:`repro.paper.TABLE`), then the rest sorted."""
    known = [n for n in TABLE if n in _REGISTRY]
    return known + sorted(set(_REGISTRY) - set(TABLE))


def suite_of(name: str) -> str:
    return _REGISTRY[name].suite
