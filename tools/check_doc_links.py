#!/usr/bin/env python3
"""Validate cross-references in the repo's Markdown documentation.

Checks, over every tracked *.md file (skipping build/ and third-party
directories):

  1. Relative Markdown links  [text](target)  resolve to an existing
     file or directory (external http(s)/mailto links are skipped).
  2. Anchor links  [text](FILE.md#anchor)  and  [text](#anchor)  match a
     heading in the target file (GitHub slug rules: lowercase, spaces
     to dashes, punctuation dropped, duplicate slugs suffixed -1, -2…).
  3. Inline-code path references  `src/...`, `bench/...`, `tests/...`,
     `tools/...`, `docs/...`, `examples/...`  point at real files.  A
     reference may carry a trailing  ::member  or  §/section suffix,
     which is ignored; an extensionless reference like
     `bench/perf_pipeline` names a built binary and resolves through
     its  .cpp  source.

Stdlib only; exits non-zero listing every broken reference.  Run from
anywhere inside the repo:

    python3 tools/check_doc_links.py
"""

import os
import re
import sys
import unicodedata

SKIP_DIRS = {".git", "build", "third_party", ".claude", "node_modules"}

# `path`-style references we can verify: must start with a known
# top-level source directory and look like a path (contains '/').
PATH_PREFIXES = ("src/", "bench/", "tests/", "tools/", "docs/", "examples/")

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
CODE_RE = re.compile(r"`([^`\n]+)`")
HEADING_RE = re.compile(r"^(#{1,6})\s+(.*)$")
FENCE_RE = re.compile(r"^(```|~~~)")


def repo_root():
    d = os.path.dirname(os.path.abspath(__file__))
    return os.path.dirname(d)


def markdown_files(root):
    out = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if d not in SKIP_DIRS]
        for name in filenames:
            if name.endswith(".md"):
                out.append(os.path.join(dirpath, name))
    return sorted(out)


def github_slug(text):
    """GitHub's heading-to-anchor slug: strip markup, lowercase,
    drop punctuation, spaces to dashes."""
    text = re.sub(r"`([^`]*)`", r"\1", text)          # inline code
    text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", text)  # links
    text = re.sub(r"[*_]", "", text)                   # emphasis
    text = text.strip().lower()
    out = []
    for ch in text:
        cat = unicodedata.category(ch)
        if ch == " " or ch == "-":
            out.append("-")
        elif cat.startswith(("L", "N")) or ch == "_":
            out.append(ch)
        # everything else (punctuation, symbols) is dropped
    return "".join(out)


def heading_anchors(path):
    """All anchors a file defines, with GitHub duplicate suffixing."""
    counts = {}
    anchors = set()
    in_fence = False
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if FENCE_RE.match(line):
                    in_fence = not in_fence
                    continue
                if in_fence:
                    continue
                m = HEADING_RE.match(line)
                if not m:
                    continue
                slug = github_slug(m.group(2))
                n = counts.get(slug, 0)
                counts[slug] = n + 1
                anchors.add(slug if n == 0 else f"{slug}-{n}")
    except OSError:
        pass
    return anchors


def strip_code_fences(text):
    """Remove fenced code blocks so sample snippets are not checked."""
    out, in_fence = [], False
    for line in text.splitlines():
        if FENCE_RE.match(line):
            in_fence = not in_fence
            continue
        if not in_fence:
            out.append(line)
    return "\n".join(out)


def check_file(md_path, root, anchor_cache):
    errors = []
    with open(md_path, encoding="utf-8") as fh:
        raw = fh.read()
    text = strip_code_fences(raw)
    base = os.path.dirname(md_path)
    rel = os.path.relpath(md_path, root)

    def anchors_of(path):
        if path not in anchor_cache:
            anchor_cache[path] = heading_anchors(path)
        return anchor_cache[path]

    # 1 + 2: markdown links and anchors.  Inline code is stripped first:
    # transform notation like `L[f](s)` would otherwise parse as a link.
    linkable = re.sub(r"`[^`\n]*`", "", text)
    for m in LINK_RE.finditer(linkable):
        target = m.group(1)
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        path_part, _, anchor = target.partition("#")
        if path_part:
            dest = os.path.normpath(os.path.join(base, path_part))
            if not os.path.exists(dest):
                errors.append(f"{rel}: broken link ({target})")
                continue
        else:
            dest = md_path
        if anchor and dest.endswith(".md"):
            if anchor.lower() not in anchors_of(dest):
                errors.append(f"{rel}: missing anchor ({target})")

    # 3: inline-code path references.
    for m in CODE_RE.finditer(text):
        ref = m.group(1).strip()
        if not ref.startswith(PATH_PREFIXES) or "/" not in ref:
            continue
        # Drop C++ member / section suffixes and glob-ish tails.
        ref = re.split(r"::|\s|§", ref)[0].rstrip(",;:")
        if not re.fullmatch(r"[\w./+-]+", ref) or "*" in ref:
            continue
        full = os.path.join(root, ref)
        # Extensionless references name built binaries
        # (`bench/perf_sim_scale`): accept them when the .cpp source exists.
        if os.path.exists(full):
            continue
        if not os.path.splitext(ref)[1] and os.path.exists(full + ".cpp"):
            continue
        errors.append(f"{rel}: missing path reference (`{ref}`)")

    return errors


def main():
    root = repo_root()
    anchor_cache = {}
    errors = []
    files = markdown_files(root)
    for md in files:
        errors.extend(check_file(md, root, anchor_cache))
    if errors:
        print(f"check_doc_links: {len(errors)} broken reference(s) "
              f"in {len(files)} markdown files:")
        for e in errors:
            print("  " + e)
        return 1
    print(f"check_doc_links: OK ({len(files)} markdown files, "
          f"0 broken references)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
