"""Concurrency stress: many clients, overlapping keys, exactly-once.

Eight threads blast the same three specs at one server in shuffled
orders with assorted priorities — the adversarial version of a campaign
fleet sharing a service.  The invariants that must hold regardless of
interleaving:

* every spec executes **exactly once** (24 submissions, 3 executions);
* every client that submitted a key can fetch its result;
* each result is byte-identical to a direct in-process run of the same
  spec (``execute_spec`` parity — the service adds zero noise).
"""

import json
import random
import threading

from repro.experiments.campaign import execute_spec, spec_from_mix

TINY = 0.02

#: Three overlapping workloads: two singles and a heterogeneous pair.
MIXES = (
    "VA:static-shared",
    "VA:static-private",
    "GEMM:static-shared+SN:static-private",
)

THREADS = 8


def _canon(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True)


def test_overlapping_submissions_execute_exactly_once(job_server_factory,
                                                      tmp_path):
    specs = {mix: spec_from_mix(mix, scale=TINY, max_kernels=1)
             for mix in MIXES}
    keys = {mix: spec.cache_key() for mix, spec in specs.items()}
    assert len(set(keys.values())) == len(MIXES), "distinct keys expected"

    harness = job_server_factory(cache_dir=str(tmp_path / "cache"),
                                 workers=2)
    errors = []
    fetched = {}  # (thread, mix) -> result payload
    barrier = threading.Barrier(THREADS)

    def storm(tid: int) -> None:
        rng = random.Random(tid)
        client = harness.client(f"client-{tid}")
        try:
            barrier.wait(timeout=30)  # maximal submission overlap
            order = list(MIXES)
            rng.shuffle(order)
            ids = {}
            for mix in order:
                reply = client.submit_mix(mix, scale=TINY, max_kernels=1,
                                          priority=rng.randint(0, 9))
                assert reply["id"] == keys[mix], \
                    "wire id must be the content key"
                ids[mix] = reply["id"]
            for mix, job_id in ids.items():
                fetched[(tid, mix)] = client.wait(job_id, timeout=300)
        except Exception as exc:  # pragma: no cover - the failure signal
            errors.append((tid, exc))

    threads = [threading.Thread(target=storm, args=(tid,))
               for tid in range(THREADS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=360)
    assert not errors, errors
    assert len(fetched) == THREADS * len(MIXES)

    # Exactly-once per content key, no matter the interleaving.
    stats = harness.client().stats()["jobs"]
    assert stats["executed"] == len(MIXES)
    assert stats["submitted"] == THREADS * len(MIXES)
    assert stats["coalesced"] == THREADS * len(MIXES) - len(MIXES)
    assert stats["errors"] == 0

    # Every thread saw the same bytes, and those bytes are exactly what
    # a direct, serverless run of the spec produces.
    for mix, spec in specs.items():
        direct = _canon(execute_spec(spec).to_dict())
        for tid in range(THREADS):
            assert _canon(fetched[(tid, mix)]) == direct, (mix, tid)
