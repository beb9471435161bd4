"""Control-flow graph construction over assembly functions.

Used by the decompiler's lifter and structurer and by the Gemini baseline's
ACFG extractor.  Blocks are maximal straight-line instruction runs; edges follow
branches and fall-through.  The edges are a plain successor table (block id
-> ``kind -> target``), and immediate dominators come from the
Cooper-Harvey-Kennedy iteration over it, so decompiling needs no graph
library.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.compiler.codegen import AsmFunction, Instruction, Lab
from repro.compiler.isa import get_isa


@dataclass
class BasicBlock:
    """A maximal straight-line run of instructions."""

    block_id: int
    start: int  # index of first instruction
    end: int  # index one past the last instruction
    instructions: List[Instruction] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.instructions)

    @property
    def terminator(self) -> Optional[Instruction]:
        return self.instructions[-1] if self.instructions else None


@dataclass
class ControlFlowGraph:
    """Basic blocks (ids ``0..n-1``) plus their successor table.

    ``succ[b]`` maps the kind of each out-edge of block ``b`` to its
    target, at most two entries: ``"taken"`` (branch target),
    ``"fallthrough"``, or ``"jump"`` (unconditional).  There is one edge
    per ``(src, dst)`` pair, so a conditional branch whose target is
    also its fallthrough has the single edge ``{"fallthrough": dst}``.
    """

    function: AsmFunction
    blocks: Dict[int, BasicBlock]
    succ: List[Dict[str, int]]
    entry: int

    def edges(self) -> Iterator[Tuple[int, int, str]]:
        """``(src, dst, kind)`` per edge, by source block, then in the
        order the edges were added (taken before fallthrough)."""
        for src, row in enumerate(self.succ):
            for kind, dst in row.items():
                yield src, dst, kind

    def successors(self, block_id: int) -> List[int]:
        return sorted(self.succ[block_id].values())

    def predecessors(self, block_id: int) -> List[int]:
        return sorted(src for src, dst, _ in self.edges() if dst == block_id)

    def block_at(self, instr_index: int) -> BasicBlock:
        for block in self.blocks.values():
            if block.start <= instr_index < block.end:
                return block
        raise KeyError(f"no block contains instruction {instr_index}")

    def edge_kind(self, src: int, dst: int) -> str:
        for kind, target in self.succ[src].items():
            if target == dst:
                return kind
        raise KeyError((src, dst))

    @property
    def block_count(self) -> int:
        return len(self.blocks)

    def exit_blocks(self) -> List[int]:
        return [b for b in self.blocks if not self.succ[b]]

    def immediate_dominators(self) -> Dict[int, int]:
        """Block -> immediate dominator, for every block reachable from
        the entry except the entry itself.

        Cooper, Harvey and Kennedy, "A Simple, Fast Dominance Algorithm"
        (2001): iterate ``idom(b) = intersect(processed preds of b)`` in
        reverse postorder until nothing changes, walking two candidates
        up the current dominator tree by postorder number.
        """
        succ = self.succ
        entry = self.entry
        postorder: List[int] = []
        rank = [-1] * len(succ)  # postorder number; -1 = unreachable
        seen = [False] * len(succ)
        seen[entry] = True
        stack = [(entry, iter(succ[entry].values()))]
        while stack:
            node, children = stack[-1]
            for child in children:
                if not seen[child]:
                    seen[child] = True
                    stack.append((child, iter(succ[child].values())))
                    break
            else:
                stack.pop()
                rank[node] = len(postorder)
                postorder.append(node)
        preds: List[List[int]] = [[] for _ in succ]
        for node in postorder:
            for child in succ[node].values():
                preds[child].append(node)
        idom = [-1] * len(succ)
        idom[entry] = entry
        order = postorder[-2::-1]  # reverse postorder without the entry
        changed = True
        while changed:
            changed = False
            for node in order:
                new = -1
                for pred in preds[node]:
                    if idom[pred] < 0:
                        continue  # not processed yet
                    if new < 0:
                        new = pred
                        continue
                    a = pred
                    while a != new:
                        while rank[a] < rank[new]:
                            a = idom[a]
                        while rank[new] < rank[a]:
                            new = idom[new]
                if idom[node] != new:
                    idom[node] = new
                    changed = True
        return {node: idom[node] for node in postorder if node != entry}

    def loop_heads(self) -> Set[int]:
        """Targets of back edges: ``v`` for every edge ``u -> v`` where
        ``v`` dominates ``u`` (so every self-loop, reachable or not)."""
        idom = self.immediate_dominators()
        heads: Set[int] = set()
        for u, v, _ in self.edges():
            node: Optional[int] = u
            while node is not None and node != v:
                node = idom.get(node)
            if node is not None:
                heads.add(v)
        return heads


def _is_return(instr: Instruction, arch: str) -> bool:
    if arch in ("x86", "x64"):
        return instr.mnemonic == "ret"
    if arch == "arm":
        return instr.mnemonic == "bx"
    return instr.mnemonic == "blr"


def build_cfg(fn: AsmFunction) -> ControlFlowGraph:
    """Construct the CFG of an assembly function."""
    isa = get_isa(fn.arch)
    n = len(fn.instructions)
    label_targets = {index for index in fn.labels.values() if index < n}

    # -- leaders -------------------------------------------------------------
    leaders = {0} | label_targets
    for i, instr in enumerate(fn.instructions):
        if (
            instr.mnemonic == isa.jump
            or isa.is_conditional_branch(instr.mnemonic)
            or _is_return(instr, fn.arch)
        ):
            if i + 1 < n:
                leaders.add(i + 1)
    ordered = sorted(leaders)

    # -- blocks ---------------------------------------------------------------
    blocks: Dict[int, BasicBlock] = {}
    start_to_id: Dict[int, int] = {}
    for block_id, start in enumerate(ordered):
        end = ordered[block_id + 1] if block_id + 1 < len(ordered) else n
        blocks[block_id] = BasicBlock(
            block_id=block_id,
            start=start,
            end=end,
            instructions=list(fn.instructions[start:end]),
        )
        start_to_id[start] = block_id
    succ: List[Dict[str, int]] = [{} for _ in blocks]

    def target_block(label: str) -> int:
        index = fn.labels[label]
        if index >= n:
            # Label at function end: synthesise an empty exit block.
            return _ensure_exit_block()
        return start_to_id[index]

    exit_block_id: List[Optional[int]] = [None]

    def _ensure_exit_block() -> int:
        if exit_block_id[0] is None:
            block_id = len(blocks)
            blocks[block_id] = BasicBlock(block_id=block_id, start=n, end=n)
            succ.append({})
            exit_block_id[0] = block_id
        return exit_block_id[0]

    for block in list(blocks.values()):
        if not block.instructions:
            continue
        row = succ[block.block_id]
        last = block.instructions[-1]
        if _is_return(last, fn.arch):
            continue
        if last.mnemonic == isa.jump and isinstance(last.operands[0], Lab):
            row["jump"] = target_block(last.operands[0].name)
            continue
        if isa.is_conditional_branch(last.mnemonic):
            taken = target_block(last.operands[0].name)
            fallthrough = start_to_id[block.end] if block.end < n else None
            if taken != fallthrough:  # one edge per (src, dst)
                row["taken"] = taken
            if fallthrough is not None:
                row["fallthrough"] = fallthrough
            continue
        # straight-line fallthrough
        if block.end < n:
            row["fallthrough"] = start_to_id[block.end]
    return ControlFlowGraph(function=fn, blocks=blocks, succ=succ, entry=0)
