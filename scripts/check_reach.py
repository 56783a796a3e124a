#!/usr/bin/env python3
"""Fail when a src/ module is reached only from tests or bench_micro.

A module stays in src/ only if a protocol path, bench gate or example
exercises it. This walks `#include "..."` edges from the sources that
run: bench/*.cpp (except bench_micro.cpp, which times primitives for
their own sake), examples/*.cpp and perfbench/cpp/*.cpp. Reaching a
header also walks its paired .cpp, so a module's own dependencies
count. Every src/ header the walk misses is reported, unless ALLOWED
names it with a reason.

Usage: python3 scripts/check_reach.py [repo-root]
Exit status: 0 when every src/ header is reached or allowed, 1 otherwise.
"""
import re
import sys
from pathlib import Path

# Headers kept although no bench, example or perfbench source reaches
# them. Paths are relative to src/.
ALLOWED = {
    "mcss.hpp": "the umbrella header for applications; it includes "
                "every module, so it cannot serve as a reach seed",
    "protocol/micss.hpp": "the paper's MICSS baseline, checked against "
                          "ReMICSS by Integration.RemicssOutperformsMicssUnderLoss",
    "sss/xor_sharing.hpp": "the n-of-n sharing the MICSS baseline runs on",
    "workload/adaptive.hpp": "test-only adaptive control; keep or delete "
                             "is an open ROADMAP decision",
}

INCLUDE = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.M)


def seeds(root: Path) -> list[Path]:
    files = [p for p in sorted((root / "bench").glob("*.cpp"))
             if p.name != "bench_micro.cpp"]
    files += sorted((root / "examples").glob("*.cpp"))
    files += sorted((root / "perfbench" / "cpp").glob("*.cpp"))
    return files


def resolve(name: str, including: Path, src: Path) -> Path | None:
    for base in (including.parent, src):
        candidate = (base / name).resolve()
        if candidate.is_file():
            return candidate
    return None


def reached_headers(root: Path) -> set[Path]:
    src = (root / "src").resolve()
    todo = [p.resolve() for p in seeds(root)]
    seen: set[Path] = set()
    while todo:
        path = todo.pop()
        if path in seen:
            continue
        seen.add(path)
        for name in INCLUDE.findall(path.read_text(errors="replace")):
            target = resolve(name, path, src)
            if target is None:
                continue
            todo.append(target)
            paired = target.with_suffix(".cpp")
            if target.suffix == ".hpp" and paired.is_file():
                todo.append(paired)
    return {p for p in seen if p.suffix == ".hpp" and src in p.parents}


def main() -> int:
    root = Path(sys.argv[1] if len(sys.argv) > 1 else
                Path(__file__).resolve().parent.parent).resolve()
    src = root / "src"
    if not seeds(root):
        print(f"check_reach: no bench/example/perfbench sources under {root}",
              file=sys.stderr)
        return 1
    reached = {str(h.relative_to(src)) for h in reached_headers(root)}
    headers = {str(h.relative_to(src)) for h in src.rglob("*.hpp")}
    problems = [f"src/{name} is reached by no bench, example or perfbench "
                f"source" for name in sorted(headers - reached - ALLOWED.keys())]
    problems += [f"allowed entry src/{name} no longer exists"
                 for name in sorted(ALLOWED.keys() - headers)]
    problems += [f"allowed entry src/{name} is reached now; drop it from ALLOWED"
                 for name in sorted(ALLOWED.keys() & reached)]
    for problem in problems:
        print(f"check_reach: {problem}", file=sys.stderr)
    if problems:
        return 1
    print(f"check_reach: all src/ headers reached ({len(reached)}) "
          f"or allowed ({len(ALLOWED)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
