#!/usr/bin/env python3
"""Unused-dependency audit of the workspace crates.

Usage: python3 scripts/unused_deps.py [repo-root]

For the workspace root package and every crate under
`<repo-root>/crates/` (default: the checkout this script lives in),
lists

* each `[dependencies]` entry that no code line of the crate's `src/`
  names, and
* each `[dev-dependencies]` entry that nothing in the crate names: no
  line of its `src/`, `tests/`, `benches/` or `examples/`, comments
  included (a doc example compiles against the dev-dependencies).

An entry is named by its key with hyphens as underscores (`ww-stats` is
`ww_stats`), matched as a word. Code lines leave comments out the way
`code_lines.py` does. Matching is by word, not by path, so a clean run
is not a proof that every edge is used, only that no edge is plainly
unused.

Exits 1 when a listed edge is not in `ALLOW` below, or when an `ALLOW`
entry is no longer listed (a ratchet: the list only shrinks). Needs
python3 (3.11 or later, for `tomllib`) only.
"""

import os
import re
import sys
import tomllib

from code_lines import classify, rust_files

# Edges kept although nothing names them, each with its reason. Keys are
# `crate -> dependency`, the crate by its package name.
ALLOW = {
    "ww-cache -> ww-stats": "removing it fails `--locked`: waits for the `benchmark/` PR",
    "ww-scenario -> ww-stats": "removing it fails `--locked`: waits for the `benchmark/` PR",
}

WORD = re.compile(r"\w+")


def words(paths, code_only):
    """Every word on the lines of `paths`; only code lines when
    `code_only`, every line otherwise."""
    found = set()
    for path in paths:
        if code_only:
            for _, text, _, _, _ in classify(path, False):
                found.update(WORD.findall(text))
        else:
            with open(path, encoding="utf-8") as f:
                found.update(WORD.findall(f.read()))
    return found


def unused(crate_dir):
    """(package name, [(table, dependency)]) of the edges nothing names."""
    with open(os.path.join(crate_dir, "Cargo.toml"), "rb") as f:
        manifest = tomllib.load(f)
    src = rust_files(os.path.join(crate_dir, "src"))
    everything = src + [
        path
        for top in ("tests", "benches", "examples")
        for path in rust_files(os.path.join(crate_dir, top))
    ]
    named = {
        "dependencies": words(src, code_only=True),
        "dev-dependencies": words(everything, code_only=False),
    }
    listed = [
        (table, dep)
        for table, seen in named.items()
        for dep in sorted(manifest.get(table, {}))
        if dep.replace("-", "_") not in seen
    ]
    return manifest["package"]["name"], listed


def main():
    root = os.path.normpath(
        sys.argv[1] if len(sys.argv) > 1 else os.path.join(os.path.dirname(__file__), "..")
    )
    crates = os.path.join(root, "crates")
    dirs = [root] + [
        os.path.join(crates, name)
        for name in sorted(os.listdir(crates))
        if os.path.isfile(os.path.join(crates, name, "Cargo.toml"))
    ]
    listed = []
    for crate_dir in dirs:
        package, edges = unused(crate_dir)
        manifest = os.path.relpath(os.path.join(crate_dir, "Cargo.toml"), root)
        listed.extend((manifest, table, f"{package} -> {dep}") for table, dep in edges)

    failures = 0
    for manifest, table, edge in listed:
        reason = ALLOW.get(edge)
        print(f"{manifest}: [{table}] {edge}" + (f"  (allowed: {reason})" if reason else ""))
        failures += reason is None
    stale = sorted(set(ALLOW) - {edge for *_, edge in listed})
    for edge in stale:
        print(f"ALLOW entry {edge} is named now or is gone: remove it from ALLOW")
    if failures or stale:
        print(f"FAIL: {failures} unused dependency edge(s), {len(stale)} stale ALLOW entry(ies)")
        sys.exit(1)
    print(f"OK: every dependency edge is named ({len(listed)} allowed)")


if __name__ == "__main__":
    main()
