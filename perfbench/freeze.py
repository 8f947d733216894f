#!/usr/bin/env python3
"""Regenerate the frozen outputs in ``perfbench/expected/`` from the program.

    PYTHONPATH=src python3 perfbench/freeze.py

Only for a change that is meant to alter results: the sweep file must
still hash to ``worker.DIGEST`` (the reproduction's frozen digest), so a
new digest also needs ``DIGEST`` updated by hand.  Takes about 40 s.
"""

from __future__ import annotations

import hashlib
import json

import worker


def main() -> None:
    from repro.harness import run_sweep

    checks = {}
    for name, src in worker.corpus_sources():
        diags, outcome = worker.check_once(src)
        checks[name] = worker.check_verdict(src, diags, outcome)
    (worker.BENCH / "expected" / "check.json").write_text(
        json.dumps(checks, indent=1, sort_keys=True) + "\n"
    )

    payload = run_sweep(workers=1, use_cache=False).to_json().encode("utf-8")
    (worker.BENCH / "expected" / "sweep.json").write_bytes(payload)
    digest = hashlib.sha256(payload).hexdigest()
    print(f"sweep digest {digest}"
          + ("" if digest == worker.DIGEST else " (differs from DIGEST)"))


if __name__ == "__main__":
    main()
