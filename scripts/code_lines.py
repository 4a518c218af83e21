#!/usr/bin/env python3
"""Code-line count of the workspace crates.

Usage: python3 scripts/code_lines.py [repo-root]

For every crate under `<repo-root>/crates/` (default: the checkout this
script lives in), counts the lines of `src/**/*.rs` that hold code: not
blank, not a `//` comment (doc comments included), not inside a
`/* */` comment. Lines of `#[cfg(test)]` items — the attribute, the item
and its body — are counted apart, and so is a whole file that is only
compiled under test (`#[cfg(test)] mod name;`). Prints one row per crate
and a total row: `code` is what ships, `test` the in-crate tests.

Strings, raw strings and char literals are skipped when matching braces,
so a brace inside a literal does not end an item early. Needs python3
only.
"""

import os
import re
import sys

CHAR_LITERAL = re.compile(r"'(\\u\{[0-9a-fA-F]+\}|\\.|[^\\'])'")
MOD_DECL = re.compile(r"(pub(\([^)]*\))?\s+)?mod\s+(\w+)\s*;")
PATH_ATTR = re.compile(r'#\[path\s*=\s*"([^"]+)"\]')
LEADING_ATTRS = re.compile(r"((#\[[^\]]*\])\s*)*")


def split_attrs(line):
    """A stripped line's leading `#[...]` attributes and the rest."""
    head = LEADING_ATTRS.match(line).group(0)
    return re.findall(r"#\[[^\]]*\]", head), line[len(head):]


class Scanner:
    """Carries literal and comment state across the lines of one file."""

    def __init__(self):
        self.block = 0  # nesting depth of /* */ comments
        self.string = None  # None, '"' or the closing of a raw string

    def line(self, text):
        """Returns (has_code, brace_delta, has_semicolon, text without its
        comments) for one line."""
        code = False
        delta = 0
        ends = False
        kept = []
        i, n = 0, len(text)
        while i < n:
            c = text[i]
            if self.block:
                if text.startswith("*/", i):
                    self.block -= 1
                    i += 2
                elif text.startswith("/*", i):
                    self.block += 1
                    i += 2
                else:
                    i += 1
                continue
            start = i
            if self.string is not None:
                code = True
                if self.string == '"':
                    if c == "\\":
                        i += 2
                    else:
                        if c == '"':
                            self.string = None
                        i += 1
                elif text.startswith(self.string, i):
                    i += len(self.string)
                    self.string = None
                else:
                    i += 1
                kept.append(text[start:i])
                continue
            if c.isspace():
                kept.append(c)
                i += 1
                continue
            if text.startswith("//", i):
                break
            if text.startswith("/*", i):
                self.block += 1
                i += 2
                continue
            code = True
            raw = re.match(r'b?r(#*)"', text[i:])
            if raw and (i == 0 or not (text[i - 1].isalnum() or text[i - 1] == "_")):
                self.string = '"' + raw.group(1)
                i += raw.end()
            elif c == '"':
                self.string = '"'
                i += 1
            elif c == "'":
                lit = CHAR_LITERAL.match(text, i)
                i = lit.end() if lit else i + 1
            else:
                if c == "{":
                    delta += 1
                elif c == "}":
                    delta -= 1
                elif c == ";":
                    ends = True
                i += 1
            kept.append(text[start:i])
        return code, delta, ends, "".join(kept)


def test_module_files(path):
    """Files that `path` declares as `#[cfg(test)] mod name;`."""
    found = []
    base = os.path.dirname(path)
    stem = os.path.splitext(os.path.basename(path))[0]
    if stem not in ("lib", "main", "mod"):
        base = os.path.join(base, stem)
    with open(path, encoding="utf-8") as f:
        lines = [line.strip() for line in f]
    for k, line in enumerate(lines):
        attrs, rest = split_attrs(line)
        decl = MOD_DECL.match(rest)
        if not decl:
            continue
        j = k - 1
        while j >= 0 and lines[j].startswith("#[") and not split_attrs(lines[j])[1]:
            attrs.extend(split_attrs(lines[j])[0])
            j -= 1
        if "#[cfg(test)]" not in attrs:
            continue
        name = decl.group(3)
        explicit = [PATH_ATTR.match(a) for a in attrs]
        explicit = [m.group(1) for m in explicit if m]
        candidates = (
            [os.path.join(os.path.dirname(path), explicit[0])]
            if explicit
            else [os.path.join(base, name + ".rs"), os.path.join(base, name, "mod.rs")]
        )
        found.extend(os.path.normpath(c) for c in candidates if os.path.isfile(c))
    return found


def classify(path, all_test):
    """Yields (line number, code, has code, brace delta, in test) for every
    line of one source file. `code` is the line without its comments.
    `in test` marks the lines of `#[cfg(test)]` items, and every line when
    `all_test` is set; the brace delta skips braces in comments and
    literals."""
    scan = Scanner()
    pending = False  # saw `#[cfg(test)]`, item not started yet
    depth = None  # brace depth inside a test item, None outside one
    with open(path, encoding="utf-8") as f:
        for number, text in enumerate(f, 1):
            has_code, delta, ends, text = scan.line(text)
            if has_code and not all_test:
                attrs, rest = split_attrs(text.strip())
                if depth is None and "#[cfg(test)]" in attrs:
                    pending = True
                if pending or depth is not None:
                    if depth is None and rest:
                        pending, depth = False, 0
                    if depth is not None:
                        depth += delta
                        if depth <= 0 and (delta != 0 or ends):
                            yield number, text, has_code, delta, True
                            depth = None
                            continue
            yield number, text, has_code, delta, all_test or pending or depth is not None


def count_file(path, all_test):
    """(code, test) line counts of one source file."""
    code = test = 0
    for _, _, has_code, _, in_test in classify(path, all_test):
        if not has_code:
            continue
        if in_test:
            test += 1
        else:
            code += 1
    return code, test


def crate_files(src):
    """Every `.rs` file under a crate's `src`, sorted, each with whether it
    is compiled only under test."""
    files = []
    for dirpath, _, names in os.walk(src):
        files.extend(os.path.join(dirpath, n) for n in names if n.endswith(".rs"))
    test_files = set()
    for path in files:
        test_files.update(test_module_files(path))
    return [(path, os.path.normpath(path) in test_files) for path in sorted(files)]


def count_crate(src):
    code = test = 0
    for path, all_test in crate_files(src):
        c, t = count_file(path, all_test)
        code += c
        test += t
    return code, test


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else os.path.join(os.path.dirname(__file__), "..")
    crates = os.path.join(root, "crates")
    rows = []
    for name in sorted(os.listdir(crates)):
        src = os.path.join(crates, name, "src")
        if os.path.isdir(src):
            rows.append((name, *count_crate(src)))
    width = max(len(r[0]) for r in rows + [("total",)])
    print(f"{'crate':<{width}} {'code':>7} {'test':>7}")
    for name, code, test in rows:
        print(f"{name:<{width}} {code:>7,} {test:>7,}")
    total_code = sum(r[1] for r in rows)
    total_test = sum(r[2] for r in rows)
    print(f"{'total':<{width}} {total_code:>7,} {total_test:>7,}")


if __name__ == "__main__":
    main()
