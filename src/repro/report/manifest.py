"""Machine-readable provenance for a report run (``manifest.json``).

The manifest is what makes the artifact *verifiable*: it records the exact
experiment configuration (and its content key), the git revision of the
code that ran, the campaign counters, and — per figure — every RunSpec
cache key plus the evaluated trends, each with its measured value, bar,
margin and status.  A reader can re-run any single simulation from its
spec hash, or diff two manifests to see precisely what changed between
two reports.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
from typing import Optional

#: Bump when the manifest layout changes incompatibly.
MANIFEST_VERSION = 2


def git_provenance(cwd: Optional[str] = None) -> dict:
    """Best-effort git revision info; never raises.

    Args:
        cwd: directory to run git in (defaults to this package's checkout,
            so the manifest describes the *code*, not the caller's cwd).

    Returns:
        ``{"commit": sha-or-None, "dirty": bool-or-None}``.
    """
    if cwd is None:
        cwd = os.path.dirname(os.path.abspath(__file__))
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=cwd, capture_output=True,
            text=True, timeout=10, check=True).stdout.strip()
        status = subprocess.run(
            ["git", "status", "--porcelain"], cwd=cwd, capture_output=True,
            text=True, timeout=10, check=True).stdout.strip()
        return {"commit": commit, "dirty": bool(status)}
    except Exception:  # git missing, not a checkout, timeout, ...
        return {"commit": None, "dirty": None}


def build_manifest(*, scale: float, jobs: int, formats: list[str],
                   cache_dir: Optional[str], config_dict: dict,
                   config_key: str, campaign_counters: dict,
                   figures: list[dict]) -> dict:
    """Assemble the manifest dict.

    Args:
        scale: trace-scale factor the campaign ran at.
        jobs: worker-pool width.
        formats: page formats rendered (``html``/``md``).
        cache_dir: on-disk campaign cache, if one was used.
        config_dict: the canonical ``GPUConfig.to_dict()`` baseline every
            figure starts from (figure-specific overrides live in the
            per-spec cache keys).
        config_key: the baseline config's content key.
        campaign_counters: executed / cache_hits / memo_hits counters.
        figures: per-figure entries (number, slug, title, status, trends,
            cache_keys, pages).
    """
    return {
        "version": MANIFEST_VERSION,
        "generator": "repro report",
        "paper": "conf_isca_ZhaoA0WJE19 (ISCA'19, adaptive memory-side "
                 "last-level GPU caching)",
        "scale": scale,
        "jobs": jobs,
        "formats": list(formats),
        "cache_dir": cache_dir,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git": git_provenance(),
        "config": {"cache_key": config_key, "baseline": config_dict},
        "campaign": dict(campaign_counters),
        "figures": figures,
    }


def write_manifest(manifest: dict, path: str) -> None:
    """Write the manifest JSON (stable key order, human-diffable)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
