"""Shared test fixtures and builders."""

from __future__ import annotations

import random

import pytest

from repro.config import small_test_system
from repro.isa.opcodes import Opcode
from repro.isa.program import BBLExec, Instruction, Program
from repro.isa.registers import gp
from repro.memory.replacement import LRU, RandomRepl, TreePLRU


def build_program(num_blocks=1, body=None):
    """A tiny program of ``num_blocks`` identical ALU blocks."""
    program = Program("test")
    body = body or [
        Instruction(Opcode.ALU, gp(1), gp(2), gp(1)),
        Instruction(Opcode.ALU, gp(3), gp(4), gp(3)),
        Instruction(Opcode.CMP, gp(1), gp(5)),
        Instruction(Opcode.COND_BRANCH),
    ]
    for _ in range(num_blocks):
        program.add_block(list(body))
    return program


def mem_block(program=None, loads=1, stores=1):
    """A block with ``loads`` LOADs and ``stores`` STOREs."""
    program = program or Program("mem")
    instrs = []
    for i in range(loads):
        instrs.append(Instruction(Opcode.LOAD, gp(14), dst1=gp(2 + i % 8)))
    for i in range(stores):
        instrs.append(Instruction(Opcode.STORE, gp(14), gp(2 + i % 8)))
    return program.add_block(instrs)


def alu_block(program=None, count=4, dependent=False):
    """``count`` ALU instructions, independent or one dependency chain."""
    program = program or Program("alu")
    instrs = []
    for i in range(count):
        reg = gp(2) if dependent else gp(2 + i % 10)
        instrs.append(Instruction(Opcode.ALU, reg, gp(1), dst1=reg))
    return program.add_block(instrs)


def stream_of(block, addr_lists=None, count=None, taken=True):
    """Turn a block into a BBLExec stream."""
    if addr_lists is not None:
        for addrs in addr_lists:
            yield BBLExec(block, tuple(addrs), taken=taken)
    else:
        for _ in range(count or 1):
            yield BBLExec(block, (), taken=taken)


@pytest.fixture
def tiny_config():
    return small_test_system(num_cores=4, core_model="simple")


@pytest.fixture
def tiny_ooo_config():
    return small_test_system(num_cores=2, core_model="ooo")


def per_set_array_state(array, recency_lists=False):
    """``array``'s pickled state in the per-set form older builds
    wrote: one line dict, way list and policy object per set, and no
    lazily made state.  LRU sets carry stamps, or with
    ``recency_lists`` the still older recency-list ``_order``."""
    ways, repl = array.ways, array._repl
    lines = [dict() for _ in range(array.num_sets)]
    for line, entry in array._lines.items():
        lines[array.set_index(line)][line] = entry
    policies = []
    for idx in range(array.num_sets):
        old = type(repl).__new__(type(repl))
        if isinstance(repl, LRU):
            stamp = list(repl._stamps.get(idx, range(ways)))
            if recency_lists:
                old.__dict__.update(ways=ways, _order=sorted(
                    range(ways), key=stamp.__getitem__))
            else:
                old.__dict__.update(ways=ways, _stamp=stamp,
                                    _clock=repl._clock)
        elif isinstance(repl, TreePLRU):
            bits = repl._bits.get(idx, [0] * max(1, ways - 1))
            old.__dict__.update(ways=ways, _bits=list(bits))
        else:
            assert isinstance(repl, RandomRepl)
            rng = repl._rngs.get(idx) or random.Random(repl.seed + idx)
            old.__dict__.update(ways=ways, _rng=rng)
        policies.append(old)
    return {"num_sets": array.num_sets, "hash_sets": array.hash_sets,
            "ways": ways, "_lines": lines,
            "_ways": [list(array._sets.get(idx, [None] * ways))
                      for idx in range(array.num_sets)],
            "_repl": policies, "_free": list(array._free)}
