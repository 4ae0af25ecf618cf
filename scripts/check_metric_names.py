#!/usr/bin/env python
"""Lint: every metric name emitted under ``src/`` must be catalogued.

Greps the source tree for ``metrics.inc(``/``set_gauge(``/``observe(``
call sites with a *literal* first argument and fails when any emitted
name is missing from :data:`repro.obs.metrics.CATALOG` — the catalogue
backs the ``HELP`` text of the Prometheus export and the metric table in
``docs/observability.md`` (the docs-consistency test runs this check and
additionally requires every catalogued name to appear in the docs), so
an uncatalogued call site is a doc-drift bug by construction.

Also reports the reverse direction — catalogued names with no call site
— as *stale* entries; those fail the lint too, so deleting a metric
means deleting its catalogue row and doc row in the same change.

Finally, every catalogued name must have a *reader*: it must appear as
a string literal in a test, a benchmark, an example, ``perfbench/``,
the report renderer or the fleet SLO derivation
(:data:`READER_PATHS`). A metric that nothing reads answers no
operator question and goes, with its call sites.

Usage::

    python scripts/check_metric_names.py          # lint, exit 1 on drift
    python scripts/check_metric_names.py --list   # dump call sites

Importable pieces (used by ``tests/test_docs_consistency.py``):
:func:`find_metric_call_sites`, :func:`check_catalog` and
:func:`find_unread_metrics`.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from typing import Dict, List, NamedTuple, Tuple

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_ROOT = os.path.join(REPO_ROOT, "src")

#: Matches ``metrics.inc("name"``, ``metrics.set_gauge('name'`` and
#: ``metrics.observe("name"`` — literal names only; dynamic names are
#: deliberately not allowed for registry metrics.
CALL_SITE = re.compile(
    r"metrics\.(?P<method>inc|set_gauge|observe)\(\s*"
    r"(?P<quote>['\"])(?P<name>[^'\"]+)(?P=quote)"
)

#: Files and directories (relative to the repo root) whose Python
#: sources count as readers of a metric name.
READER_PATHS = (
    "tests",
    "perfbench",
    "benchmarks",
    "examples",
    os.path.join("src", "repro", "obs", "report.py"),
    os.path.join("src", "repro", "serving", "fleet.py"),
)


class CallSite(NamedTuple):
    path: str
    line: int
    method: str
    name: str


def find_metric_call_sites(root: str = SRC_ROOT) -> List[CallSite]:
    """All literal-name registry call sites under ``root``.

    Multi-line calls are handled by scanning whole-file text; the
    reported line number is where the ``metrics.<method>(`` opens.
    """
    sites: List[CallSite] = []
    for dirpath, _dirnames, filenames in sorted(os.walk(root)):
        for filename in sorted(filenames):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(dirpath, filename)
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
            for match in CALL_SITE.finditer(text):
                sites.append(
                    CallSite(
                        path=os.path.relpath(path, REPO_ROOT),
                        line=text.count("\n", 0, match.start()) + 1,
                        method=match.group("method"),
                        name=match.group("name"),
                    )
                )
    return sites


def check_catalog(
    catalog: Dict[str, str], sites: List[CallSite]
) -> Tuple[List[CallSite], List[str]]:
    """Returns ``(uncatalogued call sites, stale catalogue names)``."""
    emitted = {site.name for site in sites}
    missing = [site for site in sites if site.name not in catalog]
    stale = sorted(name for name in catalog if name not in emitted)
    return missing, stale


def find_unread_metrics(catalog: Dict[str, str]) -> List[str]:
    """Catalogued names that no reader names as a string literal."""
    texts = []
    for reader in READER_PATHS:
        root = os.path.join(REPO_ROOT, reader)
        paths = [root] if os.path.isfile(root) else [
            os.path.join(dirpath, name)
            for dirpath, _dirnames, filenames in os.walk(root)
            for name in filenames
            if name.endswith(".py")
        ]
        for path in paths:
            with open(path, "r", encoding="utf-8") as handle:
                texts.append(handle.read())
    text = "\n".join(texts)
    return sorted(
        name
        for name in catalog
        if f'"{name}"' not in text and f"'{name}'" not in text
    )


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--list", action="store_true", help="dump every call site found"
    )
    args = parser.parse_args(argv)

    sys.path.insert(0, SRC_ROOT)
    from repro.obs.metrics import CATALOG

    sites = find_metric_call_sites()
    if args.list:
        for site in sites:
            print(f"{site.path}:{site.line}: {site.method}({site.name!r})")
    missing, stale = check_catalog(CATALOG, sites)
    for site in missing:
        print(
            f"{site.path}:{site.line}: metric {site.name!r} "
            f"({site.method}) is not in repro.obs.metrics.CATALOG",
            file=sys.stderr,
        )
    for name in stale:
        print(
            f"CATALOG entry {name!r} has no call site under src/ "
            "(stale — remove it and its docs/observability.md row)",
            file=sys.stderr,
        )
    unread = find_unread_metrics(CATALOG)
    for name in unread:
        print(
            f"CATALOG entry {name!r} has no reader in "
            f"{', '.join(READER_PATHS)} (read it there, or delete the "
            "metric with its call sites)",
            file=sys.stderr,
        )
    if missing or stale or unread:
        return 1
    print(
        f"ok: {len(sites)} call sites, {len(CATALOG)} catalogued names, "
        "no drift"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
