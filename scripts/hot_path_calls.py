#!/usr/bin/env python3
"""Call audit of the packet engines' per-event path.

Usage: python3 scripts/hot_path_calls.py <binary>

Disassembles the event-loop functions of a release binary that links
`ww-core` (`webwave-exp`, `ww-sysbench`, ...) and lists every call they
make that is still a call: direct `call <addr>` and GOT-indirect
`call *off(%rip)` (the form a cross-crate call takes without LTO; the GOT
slot is resolved through the binary's dynamic relocations), plus tail
calls out of the function. Calls through a register are counted apart.

Exits 1 when a callee matches the deny-list: leaf helpers that must
inline into the loop (docs/architecture.md, "packet engines, layer by
layer"). Exits 2 when the binary holds none of the loop's functions, or
a tool fails. Needs python3 and binutils (`nm`, `objdump`) only.
"""

import re
import subprocess
import sys
from bisect import bisect_right
from collections import Counter

# The per-event path: the loop and the handlers it dispatches to. A root
# without a symbol of its own was inlined into its caller and is skipped.
ROOTS = [
    "ww_core::packet::driver::ShardCore::run_until",
    "ww_core::packet::driver::ShardCore::next_source",
    "ww_core::packet::handle",
    "ww_core::packet::on_gossip_timer",
    "ww_core::packet::on_diffusion",
]

# Callees that fail the audit, as regexes over demangled names. Only
# helpers the crates mark `#[inline]` and LLVM does inline belong here.
DENY = [
    r"ww_sim::time::SimTime\b",
    r"ww_sim::radix::(key_of|time_of)$",
    r"ww_sim::wheel::TimerRing::(peek|pop|rearm)$",
    r"ww_net::stats::TrafficLedger::record$",
    r"ww_model::tree::Tree::(parent|children|depth|root)$",
    r"ww_model::ids::NodeId::(new|index)$",
    r"ww_cache::meter::DenseFlowTable::(row|row_total|roll_row_to)$",
    r"ww_core::packet::driver::ShardCore::next_source$",
    r"ww_core::packet::gossip_to$",
    r"ww_core::world::DocWorld<.*>::stream_of$",
    r"ww_workload::docmix::DocMix::demands_of$",
    r"ww_workload::docmix::DemandRow::cell$",
    r"ww_model::runpool::(Run::range|RunPool<.*>::(of|of_mut|cell|cell_mut))$",
    r"ww_core::packet::slab::load_of$",
    r"ww_core::packet::slab::rank$",
    r"ww_core::packet::slab::NodeMut::(slot_at|bucket|record_served)$",
    r"ww_core::packet::slab::NodeMut::(record_seen|seen_rate|record_flow)$",
    r"ww_core::packet::slab::ChildState::(record|flow_rate|flow_total)$",
]

CALL = re.compile(r"^\s*([0-9a-f]+):\s+(call|jmp)\s+(.*)$")
DIRECT = re.compile(r"^([0-9a-f]+) <")
GOT = re.compile(r"^\*0x[0-9a-f]+\(%rip\)\s+#\s+([0-9a-f]+)")


def die(message):
    print(f"hot_path_calls: {message}", file=sys.stderr)
    sys.exit(2)


def run(*args):
    try:
        return subprocess.run(args, check=True, capture_output=True, text=True).stdout
    except (OSError, subprocess.CalledProcessError) as err:
        die(f"{' '.join(args[:2])} failed: {err}")


def symbols(binary):
    """Text symbols as a sorted list of (address, size, demangled name)."""
    syms = []
    for line in run("nm", "-C", "-S", "--defined-only", binary).splitlines():
        parts = line.split(None, 3)
        if len(parts) == 4 and parts[2] in "tTwW":
            syms.append((int(parts[0], 16), int(parts[1], 16), parts[3]))
    syms.sort()
    return syms


def got_targets(binary):
    """GOT slot address -> the address (or symbol) its relocation loads."""
    slots = {}
    for line in run("objdump", "-R", binary).splitlines():
        parts = line.split()
        if len(parts) == 3 and re.fullmatch(r"[0-9a-f]{8,}", parts[0]):
            slot = int(parts[0], 16)
            if parts[1] == "R_X86_64_RELATIVE":
                slots[slot] = int(parts[2].split("+")[-1], 16)
            else:
                slots[slot] = parts[2]
    return slots


def main():
    if len(sys.argv) != 2:
        die("usage: hot_path_calls.py <binary>")
    binary = sys.argv[1]
    syms = symbols(binary)
    starts = [s[0] for s in syms]
    slots = got_targets(binary)
    deny = [re.compile(p) for p in DENY]

    def name_at(addr):
        i = bisect_right(starts, addr) - 1
        if i >= 0 and addr < syms[i][0] + max(syms[i][1], 1):
            return syms[i][2]
        return f"0x{addr:x}"

    found, denied = 0, 0
    for root in ROOTS:
        bodies = [(a, n) for a, n, name in syms if name == root and n > 0]
        if not bodies:
            print(f"{root}: no symbol (inlined)")
            continue
        found += 1
        calls = Counter()
        for start, size in bodies:
            asm = run("objdump", "-d", "--no-show-raw-insn",
                      f"--start-address=0x{start:x}",
                      f"--stop-address=0x{start + size:x}", binary)
            for line in asm.splitlines():
                m = CALL.match(line)
                if not m:
                    continue
                kind, operand = m.group(2), m.group(3)
                direct, got = DIRECT.match(operand), GOT.match(operand)
                if direct:
                    target = int(direct.group(1), 16)
                    if kind == "jmp" and start <= target < start + size:
                        continue  # a branch inside the function
                    calls[name_at(target)] += 1
                elif got:
                    slot = int(got.group(1), 16)
                    target = slots.get(slot, f"GOT 0x{slot:x}")
                    calls[name_at(target) if isinstance(target, int) else target] += 1
                elif kind == "call" and operand.startswith("*"):
                    calls["(through a register)"] += 1
        print(f"{root}: {sum(calls.values())} calls")
        for callee, count in sorted(calls.items(), key=lambda kv: (-kv[1], kv[0])):
            bad = any(p.search(callee) for p in deny)
            denied += bad
            print(f"  {count:3}x {callee}{'  <- DENIED' if bad else ''}")
    if not found:
        die(f"none of the loop's functions is in {binary}")
    if denied:
        print(f"FAIL: {denied} denied helper(s) are still calls on the per-event path")
        sys.exit(1)
    print("OK: no denied helper is a call on the per-event path")


if __name__ == "__main__":
    main()
