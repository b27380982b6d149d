"""The engine's verdict bytes over generated sessions, pinned by one digest.

The sessions of ``generators.verification_session`` seeds 0-149 are replayed
through ``Session.submit_action``, and every verdict's sorted-key JSON is
hashed, one line each.  Nothing here depends on the interpreter beyond the
standard library, so the digest must be the same on every Python the project
supports; these tests import neither pytest nor click and also run as a
plain script::

    PYTHONPATH=src python3 tests/test_verdict_stream.py
"""

from __future__ import annotations

import hashlib
import json
import random
from datetime import date, datetime

from intentguard.engine import Session

import generators

CLOCK = datetime(2025, 3, 14, 12, 0, 0)
TODAY = date(2025, 3, 14)

# sha256 of every verdict's sorted-key JSON, one line each, over the sessions
# of ``generators.verification_session`` seeds 0-149.  A change that alters
# the verdict bytes must record the new digest and say why in CHANGES.md.
VERDICT_STREAM_SHA256 = "ef0da0bac386df0765e0f6849da93ca34976e9242cc09acae21a313fee32af84"


def test_generated_verdict_stream_is_byte_identical():
    digest = hashlib.sha256()
    verdicts = 0
    for seed in range(150):
        schema, spec, events = generators.verification_session(random.Random(seed), TODAY)
        session = Session(spec, schema, CLOCK)
        for event in events:
            verdict = session.submit_action(event)
            digest.update(json.dumps(verdict.to_json_dict(), sort_keys=True).encode("utf-8") + b"\n")
            verdicts += 1
            if session.done:
                break
    assert verdicts == 3435
    assert digest.hexdigest() == VERDICT_STREAM_SHA256


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
            print("passed", name)
