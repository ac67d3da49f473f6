#!/usr/bin/env python3
"""detlint — determinism linter for the conscale simulation tree.

Every result this reproduction publishes rests on a determinism contract
(DESIGN.md §8): no wall-clock or ambient randomness on the simulation path,
no result-affecting iteration over unordered containers, no address-dependent
container ordering, and no raw heap churn outside the event arena. This tool
machine-checks that contract so a careless edit cannot silently break
bit-reproducibility.

Every rule runs on one token-level scanner, so the tool needs nothing
beyond Python 3.

Rules
-----
banned-api      Wall-clock / ambient-randomness APIs on the sim path:
                std::chrono (and the three clocks), rand/srand, time/clock/
                gettimeofday/clock_gettime calls, std::random_device and the
                <random> engines outside common/rng.h, the thread_local
                keyword, and #include <chrono>/<random>/<ctime>.
unordered-iter  Range-for or .begin()/.cbegin() iteration over a variable
                declared as std::unordered_{map,set,multimap,multiset} in
                non-test code. Iterate a sorted view instead, or waive with
                a proof of order-independence.
pointer-key     Associative containers keyed by a pointer type
                (std::unordered_map<const Server*, ...> and friends): their
                iteration order depends on addresses, which depend on
                allocation history — the classic silent reproducibility
                leak.
raw-new         Raw new/delete expressions. Event-path allocation belongs to
                the simcore arena (simcore/event.h); model state belongs in
                containers or unique_ptr.
bad-waiver      A waiver comment with a missing/empty reason, or naming an
                unknown rule.
unused-waiver   A waiver that suppressed nothing — stale waivers must be
                deleted, so the waiver list stays an honest audit surface.

Waivers
-------
``// detlint: allow(<rule>) <reason>`` on the offending line or the line
directly above it suppresses that rule there. The reason is mandatory; every
waiver is counted and printable with --list-waivers, so the set of waivers is
itself a reviewable artifact.

Usage
-----
    detlint.py [--github] [--list-waivers] <file-or-dir> [...]

Exit status: 0 clean, 1 violations found, 2 usage or I/O error.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import dataclass, field

CXX_EXTENSIONS = (".h", ".hpp", ".hh", ".cpp", ".cc", ".cxx")

RULES = (
    "banned-api",
    "unordered-iter",
    "pointer-key",
    "raw-new",
    "bad-waiver",
    "unused-waiver",
)

# The one sanctioned home for RNG machinery; RNG-engine identifiers are legal
# here and banned everywhere else.
RNG_HOME = "common/rng.h"

BANNED_CLOCK_IDENTIFIERS = {
    "system_clock",
    "steady_clock",
    "high_resolution_clock",
}
BANNED_RNG_IDENTIFIERS = {
    "random_device",
    "mt19937",
    "mt19937_64",
    "default_random_engine",
    "minstd_rand",
    "minstd_rand0",
    "ranlux24",
    "ranlux48",
    "knuth_b",
}
# Free functions that read ambient time (or seed from it). Flagged when
# called unqualified, std::-qualified, or at global scope — but not as a
# member (`sim.time()` would be a deterministic model method).
BANNED_TIME_CALLS = {
    "time",
    "clock",
    "gettimeofday",
    "clock_gettime",
    "timespec_get",
    "rand",
    "srand",
    "rand_r",
    "random",
    "srandom",
}
BANNED_INCLUDES = {"chrono", "random", "ctime", "time.h", "sys/time.h"}

UNORDERED_CONTAINERS = {
    "unordered_map",
    "unordered_set",
    "unordered_multimap",
    "unordered_multiset",
}
# Ordered associative containers still leak address order when keyed by a
# pointer; the short names require a std:: qualifier to avoid false hits.
ORDERED_ASSOCIATIVE = {"map", "set", "multimap", "multiset"}

WAIVER_RE = re.compile(r"detlint:\s*allow\(([A-Za-z0-9_-]+)\)\s*(.*)")


@dataclass
class Token:
    kind: str  # "id", "num", "punct"
    text: str
    line: int


@dataclass
class Violation:
    path: str
    line: int
    rule: str
    message: str


@dataclass
class Waiver:
    path: str
    line: int
    rule: str
    reason: str
    used: int = 0


@dataclass
class FileScan:
    path: str
    tokens: list = field(default_factory=list)
    includes: list = field(default_factory=list)  # (line, header)
    waivers: list = field(default_factory=list)
    bad_waivers: list = field(default_factory=list)  # (line, message)


# --------------------------------------------------------------------------
# Lexer
# --------------------------------------------------------------------------

_PUNCT3 = ("->*", "<<=", ">>=", "...")
_PUNCT2 = (
    "::", "->", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||", "+=", "-=",
    "*=", "/=", "%=", "&=", "|=", "^=", "++", "--",
)

_ID_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_ID_CONT = _ID_START | set("0123456789")


def lex(text: str, path: str) -> FileScan:
    """Tokenizes C++ source, collecting waiver comments and #includes.

    Comments and string/char literals are consumed (never tokenized), so the
    rules cannot fire on prose. Raw strings and line continuations are
    handled; anything pathological degrades to skipping characters, never to
    an exception.
    """
    scan = FileScan(path=path)
    tokens = scan.tokens
    i = 0
    line = 1
    n = len(text)

    def record_comment(comment: str, comment_line: int) -> None:
        match = WAIVER_RE.search(comment)
        if not match:
            return
        rule, reason = match.group(1), match.group(2).strip()
        if rule not in RULES:
            scan.bad_waivers.append(
                (comment_line, f"waiver names unknown rule '{rule}'")
            )
        elif not reason:
            scan.bad_waivers.append(
                (comment_line,
                 f"waiver for '{rule}' has no reason — every waiver must "
                 "say why the code is safe")
            )
        else:
            scan.waivers.append(Waiver(path, comment_line, rule, reason))

    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
            continue
        if c in " \t\r\f\v":
            i += 1
            continue
        # Preprocessor: record includes, then lex the rest of the line
        # normally (macro bodies can hide banned calls).
        if c == "#" and (not tokens or tokens[-1].line != line):
            match = re.match(r'#\s*include\s*[<"]([^>"]+)[>"]',
                             text[i:i + 200])
            if match:
                scan.includes.append((line, match.group(1)))
            i += 1
            continue
        if c == "/" and i + 1 < n:
            if text[i + 1] == "/":
                end = text.find("\n", i)
                if end == -1:
                    end = n
                record_comment(text[i:end], line)
                i = end
                continue
            if text[i + 1] == "*":
                end = text.find("*/", i + 2)
                if end == -1:
                    end = n
                else:
                    end += 2
                record_comment(text[i:end], line)
                line += text.count("\n", i, end)
                i = end
                continue
        # Raw string literal.
        if c == "R" and i + 1 < n and text[i + 1] == '"':
            match = re.match(r'R"([^()\\ \t\n]*)\(', text[i:i + 40])
            if match:
                terminator = ")" + match.group(1) + '"'
                end = text.find(terminator, i)
                end = n if end == -1 else end + len(terminator)
                line += text.count("\n", i, end)
                i = end
                continue
        if c == '"' or c == "'":
            # Skip the literal, honouring escapes. A char literal like 'a'
            # and digit separators like 1'000 both land here; for the latter
            # the "literal" ends at the next quote, which is harmless for
            # linting purposes.
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == c or text[j] == "\n":
                    break
                j += 1
            line += text.count("\n", i, min(j + 1, n))
            i = min(j + 1, n)
            continue
        if c in _ID_START:
            j = i + 1
            while j < n and text[j] in _ID_CONT:
                j += 1
            tokens.append(Token("id", text[i:j], line))
            i = j
            continue
        if c.isdigit():
            j = i + 1
            while j < n and (text[j] in _ID_CONT or text[j] == "."):
                j += 1
            tokens.append(Token("num", text[i:j], line))
            i = j
            continue
        three = text[i:i + 3]
        if three in _PUNCT3:
            tokens.append(Token("punct", three, line))
            i += 3
            continue
        two = text[i:i + 2]
        if two in _PUNCT2:
            tokens.append(Token("punct", two, line))
            i += 2
            continue
        tokens.append(Token("punct", c, line))
        i += 1
    return scan


# --------------------------------------------------------------------------
# Token-stream helpers
# --------------------------------------------------------------------------

def match_angle(tokens, start):
    """Given tokens[start] == '<', returns the index just past the matching
    '>' (treating '>>' as two closers), or None if unbalanced/not a template
    argument list."""
    depth = 0
    i = start
    while i < len(tokens):
        t = tokens[i].text
        if t == "<":
            depth += 1
        elif t == ">":
            depth -= 1
            if depth == 0:
                return i + 1
        elif t == ">>":
            depth -= 2
            if depth <= 0:
                return i + 1
        elif t in (";", "{", "}") or tokens[i].kind == "punct" and t in (
                "&&", "||"):
            # Statement boundary or boolean operator: this '<' was a
            # comparison, not a template list.
            return None
        i += 1
    return None


def first_template_arg(tokens, lt_index):
    """Returns the token list of the first template argument of the angle
    list opening at lt_index, or None."""
    end = match_angle(tokens, lt_index)
    if end is None:
        return None
    depth = 0
    arg = []
    for i in range(lt_index, end):
        t = tokens[i].text
        if t == "<":
            depth += 1
            if depth == 1:
                continue
        elif t == ">" :
            depth -= 1
            if depth == 0:
                break
        elif t == ">>":
            depth -= 2
            if depth <= 0:
                break
        elif t == "," and depth == 1:
            break
        if depth >= 1:
            arg.append(tokens[i])
    return arg


def is_std_qualified(tokens, i):
    """True when tokens[i] is preceded by `std ::`."""
    return (i >= 2 and tokens[i - 1].text == "::"
            and tokens[i - 2].text == "std")


def collect_unordered_names(scan: FileScan) -> set:
    """Names of variables/members declared with an unordered container type
    in this file (token-level heuristic: `unordered_xxx < ... > [&*] name`)."""
    names = set()
    tokens = scan.tokens
    for i, tok in enumerate(tokens):
        if tok.kind != "id" or tok.text not in UNORDERED_CONTAINERS:
            continue
        if i + 1 >= len(tokens) or tokens[i + 1].text != "<":
            continue
        end = match_angle(tokens, i + 1)
        if end is None:
            continue
        j = end
        while j < len(tokens) and tokens[j].text in ("&", "*", "const"):
            j += 1
        if j < len(tokens) and tokens[j].kind == "id":
            follower = tokens[j + 1].text if j + 1 < len(tokens) else ";"
            if follower in (";", "=", "{", ",", ")"):
                names.add(tokens[j].text)
    return names


# --------------------------------------------------------------------------
# Rule checks
# --------------------------------------------------------------------------

def check_banned_api(scan: FileScan, report) -> None:
    rel = scan.path.replace(os.sep, "/")
    if rel.endswith(RNG_HOME):
        return  # the RNG home is where these identifiers are allowed
    for line, header in scan.includes:
        if header in BANNED_INCLUDES:
            report(line, "banned-api",
                   f"#include <{header}> pulls wall-clock/ambient-randomness "
                   "APIs onto the sim path; all time comes from "
                   "Simulation::now(), all randomness from common/rng.h")
    tokens = scan.tokens
    for i, tok in enumerate(tokens):
        if tok.kind != "id":
            continue
        name = tok.text
        if name == "chrono" and is_std_qualified(tokens, i):
            report(tok.line, "banned-api",
                   "std::chrono on the sim path — simulated time is "
                   "Simulation::now(), wall time is not reproducible")
            continue
        if name == "thread_local":
            report(tok.line, "banned-api",
                   "thread_local state breaks run isolation: parallel runs "
                   "sharing a worker thread would share it")
            continue
        if name in BANNED_CLOCK_IDENTIFIERS:
            report(tok.line, "banned-api",
                   f"{name} reads the wall clock; runs would no longer "
                   "replay bit-for-bit")
            continue
        if name in BANNED_RNG_IDENTIFIERS:
            report(tok.line, "banned-api",
                   f"{name} outside common/rng.h — every component draws "
                   "from an owned, seeded conscale::Rng")
            continue
        if name in BANNED_TIME_CALLS:
            if i + 1 >= len(tokens) or tokens[i + 1].text != "(":
                continue
            prev = tokens[i - 1] if i > 0 else Token("punct", ";", 0)
            if prev.text in (".", "->"):
                continue  # member call on a model object; not libc
            if prev.text == "::" and i >= 2 and tokens[i - 2].kind == "id" \
                    and tokens[i - 2].text != "std":
                continue  # SomeClass::time(...) — not the libc function
            # `double time() const` declares a member; a call site is
            # preceded by punctuation (= ( , ; { ) + ...) or `return`.
            if prev.kind == "id" and prev.text != "return":
                continue
            if prev.text in ("*", "&", ">"):
                continue  # tail of a declarator type
            report(tok.line, "banned-api",
                   f"call of {name}() — ambient time/randomness is banned "
                   "on the sim path")


def check_pointer_key(scan: FileScan, report) -> None:
    tokens = scan.tokens
    for i, tok in enumerate(tokens):
        if tok.kind != "id":
            continue
        container = tok.text
        if container in ORDERED_ASSOCIATIVE:
            if not is_std_qualified(tokens, i):
                continue
        elif container not in UNORDERED_CONTAINERS:
            continue
        if i + 1 >= len(tokens) or tokens[i + 1].text != "<":
            continue
        arg = first_template_arg(tokens, i + 1)
        if arg is None:
            continue
        if any(t.text == "*" for t in arg):
            key = " ".join(t.text for t in arg).replace(" *", "*")
            report(tok.line, "pointer-key",
                   f"std::{container} keyed by pointer type '{key}': "
                   "iteration order follows addresses, which follow "
                   "allocation history — key by a stable index instead")


def check_raw_new(scan: FileScan, report) -> None:
    tokens = scan.tokens
    for i, tok in enumerate(tokens):
        if tok.kind != "id":
            continue
        prev = tokens[i - 1].text if i > 0 else ""
        if tok.text == "new":
            if prev == "operator":
                continue
            report(tok.line, "raw-new",
                   "raw new expression — event-path allocation goes through "
                   "the simcore arena; model state belongs in containers or "
                   "make_unique")
        elif tok.text == "delete":
            if prev in ("=", "operator"):
                continue  # deleted special member / operator delete
            report(tok.line, "raw-new",
                   "raw delete expression — nothing on the sim path owns "
                   "raw heap pointers")


def check_unordered_iter(scan: FileScan, unordered_names, report) -> None:
    tokens = scan.tokens
    for i, tok in enumerate(tokens):
        # Iterator-pair loops: name.begin() / name.cbegin().
        if tok.kind == "id" and tok.text in ("begin", "cbegin"):
            if (i >= 2 and tokens[i - 1].text in (".", "->")
                    and tokens[i - 2].kind == "id"
                    and tokens[i - 2].text in unordered_names
                    and i + 1 < len(tokens) and tokens[i + 1].text == "("):
                report(tok.line, "unordered-iter",
                       f"iterating '{tokens[i - 2].text}' (declared "
                       "unordered) — hash order is not part of the "
                       "determinism contract; iterate a sorted view or "
                       "waive with a proof of order-independence")
            continue
        if tok.kind != "id" or tok.text != "for":
            continue
        if i + 1 >= len(tokens) or tokens[i + 1].text != "(":
            continue
        # Find the range-for ':' at parenthesis depth 1.
        depth = 0
        colon = None
        close = None
        for j in range(i + 1, min(i + 200, len(tokens))):
            t = tokens[j].text
            if t == "(":
                depth += 1
            elif t == ")":
                depth -= 1
                if depth == 0:
                    close = j
                    break
            elif t == ";" and depth == 1:
                break  # classic three-clause for
            elif t == ":" and depth == 1 and colon is None:
                colon = j
        if colon is None or close is None:
            continue
        range_expr = tokens[colon + 1:close]
        # A call in the range expression means a view/copy was taken
        # deliberately (e.g. sorted_keys(users_)) — not a direct iteration.
        if any(t.text == "(" for t in range_expr):
            continue
        for t in range_expr:
            if t.kind == "id" and t.text in unordered_names:
                report(tok.line, "unordered-iter",
                       f"range-for over '{t.text}' (declared unordered) — "
                       "hash order is not part of the determinism "
                       "contract; iterate a sorted view or waive with a "
                       "proof of order-independence")
                break


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------

def is_test_path(path: str) -> bool:
    parts = path.replace(os.sep, "/").split("/")
    return "tests" in parts or "test" in parts


def gather_files(paths):
    files = []
    for path in paths:
        if os.path.isfile(path):
            files.append(path)
        elif os.path.isdir(path):
            for root, dirs, names in os.walk(path):
                dirs.sort()
                for name in sorted(names):
                    if name.endswith(CXX_EXTENSIONS):
                        files.append(os.path.join(root, name))
        else:
            raise FileNotFoundError(path)
    # Deterministic order regardless of argument order.
    return sorted(dict.fromkeys(files))


def lint_files(files):
    """Lints `files`; returns (violations, waivers)."""
    scans = []
    for path in files:
        try:
            with open(path, encoding="utf-8", errors="replace") as f:
                text = f.read()
        except OSError as error:
            raise FileNotFoundError(f"{path}: {error}") from error
        scans.append(lex(text, path))

    # Header/source pairing for the unordered-name table: foo.cpp sees the
    # members foo.h declares (the common member-in-header, loop-in-source
    # shape). Names declared in the file itself always apply.
    names_by_stem = {}
    for scan in scans:
        stem = os.path.splitext(os.path.basename(scan.path))[0]
        names_by_stem.setdefault(stem, set()).update(
            collect_unordered_names(scan))

    violations = []
    all_waivers = []
    for scan in scans:
        waiver_index = {}
        for waiver in scan.waivers:
            waiver_index.setdefault((waiver.rule, waiver.line), waiver)
            all_waivers.append(waiver)

        def report(line, rule, message, scan=scan, waiver_index=waiver_index):
            # A waiver covers its own line and the line directly below it.
            waiver = waiver_index.get((rule, line)) or \
                waiver_index.get((rule, line - 1))
            if waiver is not None:
                waiver.used += 1
                return
            violations.append(Violation(scan.path, line, rule, message))

        for line, message in scan.bad_waivers:
            violations.append(Violation(scan.path, line, "bad-waiver",
                                        message))

        check_banned_api(scan, report)
        check_pointer_key(scan, report)
        check_raw_new(scan, report)

        if not is_test_path(scan.path):
            stem = os.path.splitext(os.path.basename(scan.path))[0]
            names = set(names_by_stem.get(stem, set()))
            names.update(collect_unordered_names(scan))
            check_unordered_iter(scan, names, report)

    for waiver in all_waivers:
        if waiver.used == 0:
            violations.append(Violation(
                waiver.path, waiver.line, "unused-waiver",
                f"waiver for '{waiver.rule}' suppresses nothing — delete it "
                "(stale waivers rot the audit surface)"))

    violations.sort(key=lambda v: (v.path, v.line, v.rule))
    return violations, all_waivers


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="detlint", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("paths", nargs="+",
                        help="files or directories to lint")
    parser.add_argument("--github", action="store_true",
                        help="emit GitHub Actions annotations")
    parser.add_argument("--list-waivers", action="store_true",
                        help="print every active waiver with its reason")
    args = parser.parse_args(argv)

    try:
        files = gather_files(args.paths)
    except FileNotFoundError as error:
        print(f"detlint: no such file or directory: {error}",
              file=sys.stderr)
        return 2
    if not files:
        print("detlint: no C++ sources under the given paths",
              file=sys.stderr)
        return 2

    try:
        violations, waivers = lint_files(files)
    except FileNotFoundError as error:
        print(f"detlint: {error}", file=sys.stderr)
        return 2

    if args.list_waivers:
        for waiver in sorted(waivers, key=lambda w: (w.path, w.line)):
            status = "used" if waiver.used else "UNUSED"
            print(f"{waiver.path}:{waiver.line}: waiver({waiver.rule}) "
                  f"[{status}] {waiver.reason}")

    for violation in violations:
        if args.github:
            print(f"::error file={violation.path},line={violation.line},"
                  f"title=detlint({violation.rule})::{violation.message}")
        else:
            print(f"{violation.path}:{violation.line}: [{violation.rule}] "
                  f"{violation.message}")

    used = sum(1 for w in waivers if w.used)
    print(f"detlint: {len(files)} files, {len(violations)} violation(s), "
          f"{used} active waiver(s)", file=sys.stderr)
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
