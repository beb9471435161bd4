"""Attributed CFG extraction (Genius/Gemini block features).

Each basic block gets the statistical features Gemini uses: counts of string
constants, numeric constants, transfer instructions, calls, total
instructions, arithmetic instructions, plus two structural attributes
(number of offspring and betweenness centrality).  These features are
deliberately architecture-*sensitive* in aggregate -- that is the baseline's
weakness the paper exploits -- but cheap to extract.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx
import numpy as np

from repro.binformat.binary import BinaryFile, FunctionRecord
from repro.compiler.cfg import build_cfg
from repro.compiler.codegen import AImm, SRef
from repro.compiler.isa import get_isa
from repro.disasm.disassembler import disassemble_function

N_FEATURES = 8

_TRANSFER = {
    "mov", "push", "pop", "ldr", "str", "li", "mr", "lwz", "stw", "leave",
}
_ARITH = {
    "add", "sub", "imul", "idiv", "neg", "not", "and", "or", "xor",
    "mul", "sdiv", "rsb", "mvn", "orr", "eor",
    "subf", "mullw", "divw", "nor", "addi",
}


@dataclass
class ACFG:
    """An attributed CFG ready for the graph embedding network."""

    function_name: str
    arch: str
    binary_name: str
    features: np.ndarray  # (n_blocks, N_FEATURES)
    adjacency: np.ndarray  # (n_blocks, n_blocks)

    @property
    def n_blocks(self) -> int:
        return self.features.shape[0]


def extract_acfg(binary: BinaryFile, record: FunctionRecord) -> ACFG:
    """Disassemble one function and extract its ACFG."""
    asm = disassemble_function(binary, record)
    cfg = build_cfg(asm)
    isa = get_isa(binary.arch)
    call_mnemonic = isa.call
    n = cfg.block_count
    block_ids = sorted(cfg.blocks)
    index = {block_id: i for i, block_id in enumerate(block_ids)}
    graph = nx.DiGraph()
    graph.add_nodes_from(block_ids)
    graph.add_edges_from((u, v) for u, v, _ in cfg.edges())
    adjacency = np.zeros((n, n))
    for u, v in graph.edges():
        adjacency[index[u], index[v]] = 1.0
    betweenness = nx.betweenness_centrality(graph) if n > 2 else {
        b: 0.0 for b in block_ids
    }
    offspring = {
        block_id: len(nx.descendants(graph, block_id))
        for block_id in block_ids
    }
    features = np.zeros((n, N_FEATURES))
    for block_id in block_ids:
        block = cfg.blocks[block_id]
        row = index[block_id]
        n_str = n_num = n_transfer = n_calls = n_arith = 0
        for instr in block.instructions:
            if instr.mnemonic == call_mnemonic:
                n_calls += 1
            elif instr.mnemonic in _TRANSFER:
                n_transfer += 1
            elif instr.mnemonic in _ARITH:
                n_arith += 1
            for operand in instr.operands:
                if isinstance(operand, SRef):
                    n_str += 1
                elif isinstance(operand, AImm):
                    n_num += 1
        features[row] = (
            n_str,
            n_num,
            n_transfer,
            n_calls,
            len(block.instructions),
            n_arith,
            offspring[block_id],
            betweenness[block_id],
        )
    return ACFG(
        function_name=record.display_name(),
        arch=binary.arch,
        binary_name=binary.name,
        features=features,
        adjacency=adjacency,
    )
