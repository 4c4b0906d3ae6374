#!/usr/bin/env python3
"""stpq_lint: project-specific static contract checks (DESIGN.md §15).

Enforces the invariants generic clang-tidy cannot express, on top of the
Clang thread-safety layer in src/util/thread_annotations.h:

  hot-alloc         Functions tagged STPQ_HOT — and everything they
                    transitively call inside the project — must not reach
                    operator new / malloc, std::make_unique/make_shared,
                    std::to_string, or construct an owning standard
                    container / string / stream as a local or temporary.
                    This is the §13 allocation-free warm-path contract,
                    checked without running the counting allocator.
  priority-queue    No std::priority_queue outside core/scratch.h; use the
                    scratch-borrowing BorrowedHeap (bit-identical pop
                    order, zero steady-state allocation).
  mutex-guard       Every std::mutex / stpq::Mutex member must be named in
                    at least one STPQ_GUARDED_BY / STPQ_PT_GUARDED_BY
                    relationship in its class, or carry an explicit
                    suppression explaining why no member can be guarded.
  raw-clock         No direct steady_clock/system_clock/
                    high_resolution_clock ::now() outside src/obs/ and
                    src/util/ — query timing flows through Span
                    (obs/trace.h), whose one clock-read pair feeds phase
                    self-time, cpu_ms and trace events alike; other
                    timing uses util/timer.h's Timer.
  nodiscard-status  Every public function declared in a header that
                    returns Status or Result<T> must be [[nodiscard]].

The frontend is a self-contained C++ lexer + scope tracker: no libclang,
no pip dependencies, driven by the CMake-exported compile_commands.json
(or an explicit --sources list, used by the fixture tests).  It
deliberately over-approximates — the hot-alloc call graph links calls by
name across the whole project — and pairs that with two release valves:

  * a committed findings baseline (tools/lint_baseline.json) holding the
    known legacy debt; CI fails on any finding not in it, and
    tools/check_lint_baseline.py refuses baseline growth;
  * inline suppressions: a comment `stpq-lint: allow(<rule>)` on the
    finding's line or the line above, which every reviewer can see and
    challenge.

Run locally:
  python3 tools/stpq_lint.py --compile-commands build/compile_commands.json
Machine-readable output:  --json report.json
Refresh the baseline:     --write-baseline tools/lint_baseline.json
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from collections import defaultdict
from dataclasses import dataclass, field

# --------------------------------------------------------------------------
# Lexing

KEYWORDS = {
    "if", "for", "while", "switch", "return", "sizeof", "alignof", "case",
    "do", "else", "new", "delete", "static_cast", "dynamic_cast",
    "reinterpret_cast", "const_cast", "throw", "catch", "decltype",
    "noexcept", "static_assert", "co_return", "co_await", "co_yield",
}

# Attribute-like macros from util/thread_annotations.h and util/attributes.h
# that may appear in declaration heads; those with parens have their
# argument group consumed as part of the attribute.
ATTR_MACROS = {
    "STPQ_HOT", "STPQ_COLD", "STPQ_CAPABILITY", "STPQ_SCOPED_CAPABILITY",
    "STPQ_GUARDED_BY", "STPQ_PT_GUARDED_BY", "STPQ_REQUIRES",
    "STPQ_ACQUIRE", "STPQ_RELEASE", "STPQ_TRY_ACQUIRE", "STPQ_EXCLUDES",
    "STPQ_ACQUIRED_BEFORE", "STPQ_ACQUIRED_AFTER", "STPQ_RETURN_CAPABILITY",
    "STPQ_ASSERT_CAPABILITY", "STPQ_NO_THREAD_SAFETY_ANALYSIS",
}

DECL_SPECIFIERS = {
    "static", "inline", "virtual", "constexpr", "consteval", "constinit",
    "explicit", "friend", "mutable", "extern", "thread_local", "typename",
    "const", "volatile", "class", "struct", "enum", "union", "using",
}

TOKEN_RE = re.compile(r"[A-Za-z_]\w*|::|\d[\w.]*|.", re.S)

SUPPRESS_RE = re.compile(r"stpq-lint:\s*allow\(([a-z\-_, ]+)\)")


def strip_comments_and_strings(text):
    """Returns text with comments and string/char literals blanked
    (newlines preserved so token line numbers survive)."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            if j == -1:
                break
            out.append(" " * (j - i))
            i = j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            out.append("".join(ch if ch == "\n" else " " for ch in text[i:j]))
            i = j
        elif c == '"':
            # Raw strings: R"delim( ... )delim"
            if i > 0 and text[i - 1] == "R" and (i < 2 or
                                                 not text[i - 2].isalnum()):
                m = re.match(r'"([^(\s]*)\(', text[i:])
                if m:
                    closer = ")" + m.group(1) + '"'
                    j = text.find(closer, i)
                    j = n if j == -1 else j + len(closer)
                    out.append('""')
                    out.append("".join(ch for ch in text[i:j] if ch == "\n"))
                    i = j
                    continue
            j = i + 1
            while j < n and text[j] != '"':
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            out.append('""' + "".join(ch for ch in text[i:j] if ch == "\n"))
            i = j
        elif c == "'":
            j = i + 1
            while j < n and text[j] != "'":
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            out.append("''")
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def drop_preprocessor(text):
    """Blanks preprocessor directives, including backslash continuations
    (macro bodies would otherwise confuse the scope tracker)."""
    lines = text.split("\n")
    i = 0
    while i < len(lines):
        if lines[i].lstrip().startswith("#"):
            j = i
            while j < len(lines) and lines[j].rstrip().endswith("\\"):
                lines[j] = ""
                j += 1
            if j < len(lines):
                lines[j] = ""
            i = j + 1
        else:
            i += 1
    return "\n".join(lines)


def tokenize(text):
    """Yields (token, line) with 1-based line numbers; whitespace skipped."""
    toks = []
    line = 1
    for m in TOKEN_RE.finditer(text):
        t = m.group(0)
        if t == "\n":
            line += 1
        elif not t.isspace():
            toks.append((t, line))
    return toks


# --------------------------------------------------------------------------
# Model

@dataclass
class Function:
    qualname: str
    name: str
    file: str
    line: int
    attrs: set = field(default_factory=set)
    body: list = field(default_factory=list)  # [(token, line)]
    is_definition: bool = False
    access: str = "public"
    return_tokens: list = field(default_factory=list)


@dataclass
class Member:
    class_qualname: str
    name: str
    file: str
    line: int
    type_tokens: list = field(default_factory=list)
    guarded_by: str = ""   # argument of STPQ_GUARDED_BY / PT_GUARDED_BY


@dataclass
class Finding:
    rule: str
    file: str
    line: int
    symbol: str
    message: str
    key: str = ""
    suppressed: bool = False
    baselined: bool = False


@dataclass
class SourceFile:
    path: str           # project-relative, '/'-separated
    suppressions: dict = field(default_factory=dict)  # line -> set(rules)
    functions: list = field(default_factory=list)
    members: list = field(default_factory=list)
    tokens: list = field(default_factory=list)


# --------------------------------------------------------------------------
# Parsing (scope tracking)

class Parser:
    """Extracts functions (with bodies and attributes) and class data
    members from one file's token stream.  Pragmatic by design: constructs
    it cannot classify are skipped as plain brace groups, which degrades
    to missed call-graph edges, never to crashes."""

    def __init__(self, path, toks):
        self.path = path
        self.toks = toks
        self.i = 0
        self.functions = []
        self.members = []

    def parse(self):
        self._scope([], in_class=False, access="public")
        return self.functions, self.members

    # -- helpers ----------------------------------------------------------

    def _peek(self, k=0):
        j = self.i + k
        return self.toks[j][0] if j < len(self.toks) else ""

    def _skip_group(self, open_ch, close_ch):
        """self.i is at `open_ch`; consumes through the matching close and
        returns the consumed tokens."""
        depth = 0
        out = []
        while self.i < len(self.toks):
            t, ln = self.toks[self.i]
            out.append((t, ln))
            self.i += 1
            if t == open_ch:
                depth += 1
            elif t == close_ch:
                depth -= 1
                if depth == 0:
                    break
        return out

    # -- declaration-head analysis ----------------------------------------

    @staticmethod
    def _head_attrs(head):
        """Returns ({attr names}, head without attribute tokens)."""
        attrs = set()
        clean = []
        i = 0
        while i < len(head):
            t, ln = head[i]
            if t in ATTR_MACROS:
                attrs.add(t)
                i += 1
                if i < len(head) and head[i][0] == "(":
                    depth = 0
                    args = []
                    while i < len(head):
                        tt = head[i][0]
                        if tt == "(":
                            depth += 1
                        elif tt == ")":
                            depth -= 1
                        else:
                            args.append(tt)
                        i += 1
                        if depth == 0:
                            break
                    attrs.add(t + "(" + "".join(args) + ")")
            elif t == "[" and i + 1 < len(head) and head[i + 1][0] == "[":
                depth = 0
                inner = []
                while i < len(head):
                    tt = head[i][0]
                    if tt == "[":
                        depth += 1
                    elif tt == "]":
                        depth -= 1
                    else:
                        inner.append(tt)
                    i += 1
                    if depth == 0:
                        break
                attrs.add("[[" + "".join(inner) + "]]")
            else:
                clean.append((t, ln))
                i += 1
        return attrs, clean

    @staticmethod
    def _function_name(clean_head):
        """Finds the declarator name: the identifier (with `A::B::` prefix,
        `operator@` handled) directly before the parameter-list '('.
        Returns (name, index_of_paren) or (None, -1)."""
        depth_angle = 0
        for idx, (t, _ln) in enumerate(clean_head):
            if t == "<":
                depth_angle += 1
            elif t == ">":
                depth_angle = max(0, depth_angle - 1)
            elif t == "(" and depth_angle == 0 and idx > 0:
                j = idx - 1
                name_parts = []
                if clean_head[j][0] == ">":  # e.g. Foo<int>::Bar( — rare
                    return None, -1
                # Walk back through an `ident (:: ident)*` chain, with an
                # optional leading '~' for destructors.
                expect_ident = True
                while j >= 0:
                    tj = clean_head[j][0]
                    if expect_ident and re.fullmatch(r"[A-Za-z_]\w*", tj):
                        name_parts.append(tj)
                        expect_ident = False
                        j -= 1
                    elif not expect_ident and tj == "::":
                        name_parts.append(tj)
                        expect_ident = True
                        j -= 1
                    elif not expect_ident and tj == "~":
                        name_parts.append(tj)
                        j -= 1
                        break
                    else:
                        break
                name = "".join(reversed(name_parts))
                if not name or name.split("::")[-1] in KEYWORDS:
                    return None, -1
                if j >= 0 and clean_head[j][0] == "operator":
                    name = "operator" + name
                return name, idx
        return None, -1

    # -- scope walker -----------------------------------------------------

    def _scope(self, namespace, in_class, access):
        """Parses declarations until the enclosing '}' (or EOF).
        `namespace` is the list of enclosing namespace/class names."""
        head = []
        while self.i < len(self.toks):
            t, ln = self.toks[self.i]
            if t == "}":
                self.i += 1
                return
            if t == ";":
                self._finish_declaration(head, namespace, in_class, access,
                                         is_definition=False)
                head = []
                self.i += 1
                continue
            if in_class and t in ("public", "private", "protected") \
                    and self._peek(1) == ":":
                access = t
                self.i += 2
                head = []
                continue
            if t == "{":
                self._open_brace(head, namespace, in_class, access)
                head = []
                continue
            if t == "=" and self._peek(1) in ("default", "delete"):
                # `= default;` / `= delete;` — drop so the ';' closes a
                # plain declaration.
                self.i += 2
                continue
            if t == ":" and not in_class and head and \
                    head[0][0] == "namespace":
                # `namespace A::B` is tokenized with '::', not ':'.
                pass
            head.append((t, ln))
            self.i += 1

    def _open_brace(self, head, namespace, in_class, access):
        toks = [t for t, _ in head]
        # namespace N { ... }   /  namespace { ... }
        if toks[:1] == ["namespace"]:
            name = "".join(toks[1:]) or "<anon>"
            self.i += 1
            self._scope(namespace + [name] if name != "<anon>" else namespace,
                        in_class=False, access="public")
            return
        # extern "C" { ... }
        if toks[:1] == ["extern"] and len(toks) <= 2:
            self.i += 1
            self._scope(namespace, in_class, access)
            return
        # enum [class] Name ... { ... }  — skip the enumerator list.
        if "enum" in toks[:3]:
            self._skip_group("{", "}")
            return
        # class/struct/union definition (possibly after template<...>).
        kw_idx = next((k for k, tt in enumerate(toks)
                       if tt in ("class", "struct", "union")), None)
        if kw_idx is not None and "(" not in toks:
            name = None
            for tt in toks[kw_idx + 1:]:
                if tt in ("final", ":"):
                    break
                if re.fullmatch(r"[A-Za-z_]\w*", tt) and \
                        tt not in ATTR_MACROS and tt != "alignas":
                    name = tt
            if name is None:
                self._skip_group("{", "}")
                return
            self.i += 1
            default_access = "private" if toks[kw_idx] == "class" else "public"
            self._scope(namespace + [name], in_class=True,
                        access=default_access)
            return
        # Function definition: a head containing a parameter list.
        attrs, clean = self._head_attrs(head)
        name, paren_idx = self._function_name(clean)
        if name is not None and self._looks_like_function(clean, paren_idx):
            body = self._skip_group("{", "}")
            fn = Function(
                qualname="::".join(namespace + [name]).replace("::::", "::"),
                name=name.split("::")[-1],
                file=self.path,
                line=head[0][1],
                attrs=attrs,
                body=body,
                is_definition=True,
                access=access,
                return_tokens=[t for t, _ in clean[:paren_idx]
                               if t not in DECL_SPECIFIERS][:8],
            )
            # Strip the parameter list and any constructor-initializer
            # tokens that leaked into the head from the body.
            self.functions.append(fn)
            return
        # Anything else (brace initializer, array init, lambda at
        # namespace scope, ...): treat as an opaque group attached to the
        # current declaration; parsing continues after it.
        group = self._skip_group("{", "}")
        # Keep initializer tokens visible to member parsing (e.g.
        # `std::atomic<uint64_t> buckets_[N]{};`).
        head.extend(group)

    def _looks_like_function(self, clean_head, paren_idx):
        """Distinguishes `T name(args) ... {` from control flow and
        initializers: requires a type-ish token before the name or a
        constructor-style name matching the enclosing class."""
        if paren_idx <= 0:
            return False
        before = [t for t, _ in clean_head[:paren_idx - 1]]
        tail = [t for t, _ in clean_head[paren_idx:]]
        # The parameter list must be the last paren group, optionally
        # followed by qualifiers (const, noexcept, ->Type, ctor-inits are
        # consumed by _open_brace's caller pattern below).
        return not any(t in ("if", "for", "while", "switch", "return")
                       for t in before + tail)

    def _finish_declaration(self, head, namespace, in_class, access,
                            is_definition):
        if not head:
            return
        attrs, clean = self._head_attrs(head)
        name, paren_idx = self._function_name(clean)
        if name is not None and paren_idx > 0:
            self.functions.append(Function(
                qualname="::".join(namespace + [name]).replace("::::", "::"),
                name=name.split("::")[-1],
                file=self.path,
                line=head[0][1],
                attrs=attrs,
                body=[],
                is_definition=False,
                access=access,
                return_tokens=[t for t, _ in clean[:paren_idx]
                               if t not in DECL_SPECIFIERS][:8],
            ))
            return
        if in_class and clean:
            self._record_member(head, attrs, clean, namespace)

    def _record_member(self, head, attrs, clean, namespace):
        """Parses a data-member declaration: type tokens, name, and any
        STPQ_GUARDED_BY argument (taken from the raw attr set)."""
        # Name = last identifier before '=', '[' or end.
        stop = len(clean)
        for k, (t, _ln) in enumerate(clean):
            if t in ("=", "["):
                stop = k
                break
        name = None
        name_line = head[0][1]
        for t, ln in reversed(clean[:stop]):
            if re.fullmatch(r"[A-Za-z_]\w*", t) and t not in DECL_SPECIFIERS:
                name = t
                name_line = ln
                break
        if name is None:
            return
        guarded = ""
        for a in attrs:
            m = re.match(r"STPQ(?:_PT)?_GUARDED_BY\((.+)\)$", a)
            if m:
                guarded = m.group(1)
        type_tokens = [t for t, _ln in clean[:stop] if t != name]
        self.members.append(Member(
            class_qualname="::".join(namespace),
            name=name,
            file=self.path,
            line=name_line,
            type_tokens=type_tokens,
            guarded_by=guarded,
        ))


# --------------------------------------------------------------------------
# Source discovery

CC_EXTS = (".cc", ".cpp", ".cxx")
H_EXTS = (".h", ".hh", ".hpp")


def discover_sources(args, root):
    """Returns absolute paths of files to analyze."""
    files = []
    if args.sources:
        for s in args.sources:
            if os.path.isdir(s):
                for dirpath, _dirs, names in sorted(os.walk(s)):
                    for nm in sorted(names):
                        if nm.endswith(CC_EXTS + H_EXTS):
                            files.append(os.path.join(dirpath, nm))
            else:
                files.append(s)
        return [os.path.abspath(f) for f in files]
    if not args.compile_commands:
        sys.exit("stpq_lint: pass --compile-commands build/"
                 "compile_commands.json or --sources <files>")
    with open(args.compile_commands, encoding="utf-8") as fh:
        db = json.load(fh)
    src_root = os.path.join(root, "src")
    seen = set()
    for entry in db:
        path = os.path.abspath(os.path.join(entry.get("directory", "."),
                                            entry["file"]))
        if path.startswith(src_root + os.sep) and path not in seen:
            seen.add(path)
            files.append(path)
    # The compilation database lists TUs; the contracts live mostly in
    # headers, so every project header rides along.
    for dirpath, _dirs, names in sorted(os.walk(src_root)):
        for nm in sorted(names):
            if nm.endswith(H_EXTS):
                path = os.path.join(dirpath, nm)
                if path not in seen:
                    seen.add(path)
                    files.append(path)
    return files


def load_file(path, root):
    raw = open(path, encoding="utf-8", errors="replace").read()
    rel = os.path.relpath(path, root).replace(os.sep, "/")
    sf = SourceFile(path=rel)
    for lineno, line in enumerate(raw.split("\n"), start=1):
        m = SUPPRESS_RE.search(line)
        if m:
            rules = {r.strip() for r in m.group(1).split(",") if r.strip()}
            sf.suppressions[lineno] = rules
    text = drop_preprocessor(strip_comments_and_strings(raw))
    sf.tokens = tokenize(text)
    sf.functions, sf.members = Parser(sf.path, sf.tokens).parse()
    return sf


# --------------------------------------------------------------------------
# Rules

ALLOC_CONTAINERS = {
    "vector", "string", "deque", "list", "forward_list", "map", "set",
    "multimap", "multiset", "unordered_map", "unordered_set",
    "unordered_multimap", "unordered_multiset", "function",
    "ostringstream", "istringstream", "stringstream", "queue",
    "priority_queue", "stack", "basic_string",
}

ALLOC_CALLS = {
    "malloc", "calloc", "realloc", "strdup", "aligned_alloc",
    "make_unique", "make_shared", "to_string",
}

CLOCKS = {"steady_clock", "system_clock", "high_resolution_clock"}


def body_alloc_sites(fn):
    """Yields (line, detail) for allocation constructs in a function body."""
    toks = fn.body
    n = len(toks)
    for i, (t, ln) in enumerate(toks):
        if t == "new":
            # `operator new` mentions and `new` in template args don't
            # occur in this codebase; treat every keyword use as a site.
            yield ln, "new"
        elif t in ALLOC_CALLS and i + 1 < n and toks[i + 1][0] == "(":
            yield ln, t
        elif t == "std" and i + 2 < n and toks[i + 1][0] == "::":
            tname = toks[i + 2][0]
            if tname not in ALLOC_CONTAINERS:
                continue
            j = i + 3
            if j < n and toks[j][0] == "<":
                depth = 0
                while j < n:
                    tt = toks[j][0]
                    if tt == "<":
                        depth += 1
                    elif tt == ">":
                        depth -= 1
                        if depth == 0:
                            j += 1
                            break
                    j += 1
            if j >= n:
                continue
            nxt = toks[j][0]
            # Reference/pointer bindings and nested-name uses
            # (std::vector<T>::iterator) don't construct.
            if nxt in ("&", "*", "::", ">", ",", ")", ";"):
                continue
            if re.fullmatch(r"[A-Za-z_]\w*", nxt) or nxt in ("(", "{"):
                yield ln, f"std::{tname}"


def rule_hot_alloc(files, findings):
    by_name = defaultdict(list)
    for sf in files:
        for fn in sf.functions:
            if fn.is_definition:
                by_name[fn.name].append(fn)
    # Attributes may sit on the header declaration while the body lives in
    # the .cc file: union attrs across same-qualname declarations.
    attrs_by_qual = defaultdict(set)
    for sf in files:
        for fn in sf.functions:
            attrs_by_qual[fn.qualname] |= fn.attrs
            # Header declarations inside `class X {}` carry the class in
            # qualname; out-of-line definitions spell `X::name`.  Union on
            # the trailing two components as well.
            short = "::".join(fn.qualname.split("::")[-2:])
            attrs_by_qual[short] |= fn.attrs

    def is_hot(fn):
        short = "::".join(fn.qualname.split("::")[-2:])
        return ("STPQ_HOT" in attrs_by_qual[fn.qualname]
                or "STPQ_HOT" in attrs_by_qual[short])

    roots = [fn for sf in files for fn in sf.functions
             if fn.is_definition and is_hot(fn)]
    # BFS over name-matched call edges; remember one witness path.
    hot = {}
    queue = []
    for fn in roots:
        if id(fn) not in hot:
            hot[id(fn)] = (fn, None)
            queue.append(fn)
    while queue:
        fn = queue.pop()
        callees = set()
        for k, (t, _ln) in enumerate(fn.body):
            if (re.fullmatch(r"[A-Za-z_]\w*", t) and t not in KEYWORDS
                    and k + 1 < len(fn.body) and fn.body[k + 1][0] == "("):
                callees.add(t)
        for name in callees:
            for callee in by_name.get(name, ()):
                if id(callee) not in hot and callee is not fn:
                    hot[id(callee)] = (callee, fn)
                    queue.append(callee)

    for fn, parent in hot.values():
        per_detail = defaultdict(int)
        for ln, detail in body_alloc_sites(fn):
            per_detail[detail] += 1
            ordinal = per_detail[detail]
            via = "" if parent is None else \
                f" (reached from STPQ_HOT via {parent.qualname})"
            findings.append(Finding(
                rule="hot-alloc", file=fn.file, line=ln,
                symbol=fn.qualname,
                message=f"{fn.qualname} is on the STPQ_HOT path{via} but "
                        f"allocates: {detail}",
                key=f"hot-alloc|{fn.file}|{fn.qualname}|{detail}#{ordinal}",
            ))


def rule_priority_queue(files, findings):
    for sf in files:
        if sf.path.endswith("core/scratch.h"):
            continue
        count = defaultdict(int)
        toks = sf.tokens
        for k, (t, ln) in enumerate(toks):
            if t == "priority_queue" and k >= 2 and toks[k - 1][0] == "::" \
                    and toks[k - 2][0] == "std":
                count[sf.path] += 1
                findings.append(Finding(
                    rule="priority-queue", file=sf.path, line=ln,
                    symbol=sf.path,
                    message="std::priority_queue outside core/scratch.h; "
                            "use BorrowedHeap over session scratch",
                    key=f"priority-queue|{sf.path}|#{count[sf.path]}",
                ))


def rule_mutex_guard(files, findings):
    guards_by_class = defaultdict(set)
    methods_requiring = defaultdict(set)
    for sf in files:
        for m in sf.members:
            if m.guarded_by:
                guards_by_class[m.class_qualname].add(m.guarded_by)
        for fn in sf.functions:
            cls = "::".join(fn.qualname.split("::")[:-1])
            for a in fn.attrs:
                mm = re.match(
                    r"STPQ_(?:REQUIRES|EXCLUDES|ACQUIRE|RELEASE|"
                    r"TRY_ACQUIRE|ASSERT_CAPABILITY|RETURN_CAPABILITY)"
                    r"\((.*)\)$", a)
                if mm:
                    for arg in mm.group(1).split(","):
                        arg = arg.strip().lstrip("!&")
                        if arg and arg not in ("true", "false"):
                            methods_requiring[cls].add(arg.split(".")[0])
    for sf in files:
        for m in sf.members:
            tt = m.type_tokens
            is_mutex = ("Mutex" in tt and "MutexLock" not in tt) or \
                ("mutex" in tt and "std" in tt)
            # References don't own the capability (MutexLock::mu_).
            if not is_mutex or "&" in tt:
                continue
            if m.name in guards_by_class[m.class_qualname]:
                continue
            findings.append(Finding(
                rule="mutex-guard", file=m.file, line=m.line,
                symbol=f"{m.class_qualname}::{m.name}",
                message=f"mutex member {m.class_qualname}::{m.name} has no "
                        "STPQ_GUARDED_BY relationship; annotate the members "
                        "it protects (or suppress with a reason)",
                key=f"mutex-guard|{m.file}|{m.class_qualname}::{m.name}",
            ))


def rule_raw_clock(files, findings):
    for sf in files:
        if sf.path.startswith(("src/obs/", "src/util/")):
            continue
        toks = sf.tokens
        count = defaultdict(int)
        for k, (t, ln) in enumerate(toks):
            if t in CLOCKS and k + 2 < len(toks) \
                    and toks[k + 1][0] == "::" and toks[k + 2][0] == "now":
                count[t] += 1
                findings.append(Finding(
                    rule="raw-clock", file=sf.path, line=ln,
                    symbol=sf.path,
                    message=f"direct {t}::now() outside obs/ and util/; "
                            "time query phases with Span (obs/trace.h) "
                            "and anything else with Timer, so every "
                            "reading stays attributable",
                    key=f"raw-clock|{sf.path}|{t}#{count[t]}",
                ))


def rule_nodiscard_status(files, findings):
    for sf in files:
        if not sf.path.endswith(H_EXTS):
            continue
        for fn in sf.functions:
            if fn.access != "public":
                continue
            rt = fn.return_tokens
            returns_status = rt[:1] == ["Status"] or \
                rt[:2] == ["stpq", "Status"] or \
                rt[:1] == ["Result"] or rt[:2] == ["stpq", "Result"]
            if not returns_status:
                continue
            if fn.name in ("Status", "Result"):  # constructors
                continue
            if "[[nodiscard]]" in fn.attrs:
                continue
            findings.append(Finding(
                rule="nodiscard-status", file=fn.file, line=fn.line,
                symbol=fn.qualname,
                message=f"public {fn.qualname} returns "
                        f"{'::'.join(rt[:1])} but is not [[nodiscard]]",
                key=f"nodiscard-status|{fn.file}|{fn.qualname}",
            ))


RULES = {
    "hot-alloc": rule_hot_alloc,
    "priority-queue": rule_priority_queue,
    "mutex-guard": rule_mutex_guard,
    "raw-clock": rule_raw_clock,
    "nodiscard-status": rule_nodiscard_status,
}


# --------------------------------------------------------------------------
# Driver

def apply_suppressions(files, findings):
    """A `stpq-lint: allow(rule)` comment suppresses findings on its own
    line and the line below; placed on (or right above) a function
    definition it covers every finding attributed to that function."""
    supp = {sf.path: sf.suppressions for sf in files}
    fn_lines = defaultdict(set)
    for sf in files:
        for fn in sf.functions:
            if fn.is_definition:
                fn_lines[(sf.path, fn.qualname)].add(fn.line)
    for f in findings:
        lines = {f.line, f.line - 1}
        for def_line in fn_lines.get((f.file, f.symbol), ()):
            lines |= {def_line, def_line - 1}
        for ln in lines:
            rules = supp.get(f.file, {}).get(ln, set())
            if f.rule in rules or "all" in rules:
                f.suppressed = True
    return findings


def main(argv=None):
    ap = argparse.ArgumentParser(
        description="stpq project linter (see tools/stpq_lint.py docstring)")
    ap.add_argument("--compile-commands",
                    help="CMake-exported compile_commands.json")
    ap.add_argument("--sources", nargs="*",
                    help="explicit files/dirs to scan (fixture tests)")
    ap.add_argument("--project-root", default=None,
                    help="repo root (default: parent of this script)")
    ap.add_argument("--baseline", default=None,
                    help="committed findings baseline JSON")
    ap.add_argument("--json", dest="json_out", default=None,
                    help="write the machine-readable report here")
    ap.add_argument("--write-baseline", default=None,
                    help="write the current finding keys as a new baseline")
    ap.add_argument("--rules", default=None,
                    help="comma-separated rule subset (default: all)")
    ap.add_argument("--allow-stale", action="store_true",
                    help="do not fail on baseline entries that no longer "
                         "occur")
    ap.add_argument("--list-rules", action="store_true")
    args = ap.parse_args(argv)

    if args.list_rules:
        for name in sorted(RULES):
            print(name)
        return 0

    root = os.path.abspath(args.project_root or
                           os.path.join(os.path.dirname(__file__), os.pardir))
    paths = discover_sources(args, root)
    files = [load_file(p, root) for p in paths]

    selected = sorted(RULES) if not args.rules else \
        [r.strip() for r in args.rules.split(",") if r.strip()]
    for r in selected:
        if r not in RULES:
            sys.exit(f"stpq_lint: unknown rule '{r}' "
                     f"(known: {', '.join(sorted(RULES))})")

    findings = []
    for r in selected:
        RULES[r](files, findings)
    findings.sort(key=lambda f: (f.file, f.line, f.rule, f.key))
    apply_suppressions(files, findings)

    baseline_keys = set()
    if args.baseline and os.path.exists(args.baseline):
        with open(args.baseline, encoding="utf-8") as fh:
            baseline_keys = set(json.load(fh).get("findings", []))
    for f in findings:
        if f.key in baseline_keys:
            f.baselined = True

    active = [f for f in findings if not f.suppressed]
    new = [f for f in active if not f.baselined]
    seen_keys = {f.key for f in active}
    stale = sorted(baseline_keys - seen_keys)

    if args.write_baseline:
        with open(args.write_baseline, "w", encoding="utf-8") as fh:
            json.dump({"version": 1,
                       "findings": sorted(f.key for f in active)},
                      fh, indent=1, sort_keys=True)
            fh.write("\n")

    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            json.dump({
                "version": 1,
                "rules": selected,
                "files_scanned": len(files),
                "findings": [vars(f) for f in findings],
                "new": len(new),
                "baselined": sum(f.baselined for f in active),
                "suppressed": sum(f.suppressed for f in findings),
                "stale_baseline_entries": stale,
            }, fh, indent=1, sort_keys=True)
            fh.write("\n")

    for f in new:
        print(f"{f.file}:{f.line}: [{f.rule}] {f.message}")
    if stale and not args.allow_stale:
        for k in stale:
            print(f"stale baseline entry (fixed? remove it): {k}")
    print(f"stpq_lint: {len(files)} files, {len(active)} findings "
          f"({len(new)} new, {sum(f.baselined for f in active)} baselined, "
          f"{sum(f.suppressed for f in findings)} suppressed, "
          f"{len(stale)} stale baseline entries)")
    if new:
        return 1
    if stale and not args.allow_stale:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
