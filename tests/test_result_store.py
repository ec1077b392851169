"""ResultStore hardening: atomic publication, quarantine, concurrency.

The on-disk result cache is shared by concurrent campaigns *and* the job
server's worker fleet, so its two durability rules get pinned here:
records appear atomically (a reader never sees a torn file), and a
record that somehow *is* corrupt gets quarantined — moved aside, not
re-parsed forever and not silently deleted.
"""

import json
import os
import threading

import pytest

from repro.experiments.campaign import CACHE_VERSION, Campaign, RunSpec
from repro.experiments.store import QUARANTINE_DIR, ResultStore
from repro.gpu.system import RunResult

KEY = "k" * 64


def _result_dict() -> dict:
    """A small, valid RunResult payload (no simulation needed)."""
    return RunResult(
        workload="VA", mode="shared", cycles=10.0, instructions=20.0,
        ipc=2.0, llc_accesses=5, llc_hits=4, llc_misses=1,
        llc_miss_rate=0.2, llc_response_flits=25.0, llc_response_rate=2.5,
        l1_miss_rate=0.1, dram_reads=1, dram_writes=0,
        dram_bytes=128.0).to_dict()


# ------------------------------------------------------------ round trips
def test_store_load_round_trip(tmp_path):
    store = ResultStore(str(tmp_path))
    payload = _result_dict()
    store.store(KEY, {"benchmark": "VA"}, payload)
    loaded = store.load(KEY)
    assert loaded is not None
    assert loaded.to_dict() == payload
    assert (store.hits, store.misses, store.quarantined) == (1, 0, 0)


def test_disabled_store_is_inert():
    store = ResultStore(None)
    store.store(KEY, None, _result_dict())  # no-op, no crash
    assert store.load(KEY) is None
    assert store.path(KEY) is None
    assert store.quarantine(KEY) is None


def test_missing_key_is_a_plain_miss(tmp_path):
    store = ResultStore(str(tmp_path))
    assert store.load(KEY) is None
    assert store.misses == 1
    assert not os.path.exists(str(tmp_path / QUARANTINE_DIR))


def test_keys_that_are_paths_miss_and_touch_nothing(tmp_path):
    """A key is a file name inside the cache: one that climbs out, is
    absolute or is otherwise not a plain name misses without reading,
    moving or writing any file (a corrupt-looking file outside the cache
    must not be quarantined into it)."""
    cache = tmp_path / "cache"
    store = ResultStore(str(cache))
    victim = tmp_path / "victim.json"
    victim.write_text("not a record", encoding="utf-8")
    outside = tmp_path / "outside.json"
    outside.write_text(json.dumps({"version": CACHE_VERSION, "spec": None,
                                   "result": _result_dict()}),
                       encoding="utf-8")
    keys = ("../victim", str(tmp_path / "outside"), "", ".", "..",
            "sub/key", "k\0")
    for key in keys:
        assert store.path(key) is None, key
        assert store.quarantine_path(key) is None, key
        assert store.load(key) is None, key
        assert store.quarantine(key) is None, key
        with pytest.raises(ValueError):
            store.store(key, None, _result_dict())
    assert (store.hits, store.misses, store.quarantined) == (0, len(keys), 0)
    assert victim.read_text(encoding="utf-8") == "not a record"
    assert json.loads(outside.read_text(encoding="utf-8"))["result"] \
        == _result_dict()
    assert os.listdir(cache) == []
    # Plain keys, the 64-hex content keys among them, still round-trip.
    for key in (KEY, "abc", "..k"):
        store.store(key, None, _result_dict())
        assert store.load(key).to_dict() == _result_dict()


# ------------------------------------------------------------- quarantine
def test_undecodable_record_is_quarantined(tmp_path):
    store = ResultStore(str(tmp_path))
    path = store.path(KEY)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{"version": 4, "result": {"trunc')  # torn mid-write
    assert store.load(KEY) is None
    assert not os.path.exists(path), "corrupt record left in place"
    qpath = store.quarantine_path(KEY)
    assert os.path.exists(qpath), "corrupt record not preserved"
    assert store.quarantined == 1
    # The key now misses cleanly (no re-parse of garbage) and a fresh
    # store overwrites nothing in quarantine.
    assert store.load(KEY) is None
    store.store(KEY, None, _result_dict())
    assert store.load(KEY) is not None


def test_wrong_shape_json_is_quarantined(tmp_path):
    store = ResultStore(str(tmp_path))
    with open(store.path(KEY), "w", encoding="utf-8") as fh:
        json.dump([1, 2, 3], fh)  # valid JSON, not a record
    assert store.load(KEY) is None
    assert os.path.exists(store.quarantine_path(KEY))


def test_corrupt_result_payload_is_quarantined(tmp_path):
    """A record whose result does not decode into a RunResult is corrupt
    even though the JSON itself parses."""
    store = ResultStore(str(tmp_path))
    record = {"version": CACHE_VERSION, "spec": None,
              "result": {"workload": "VA"}}  # missing every other field
    with open(store.path(KEY), "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    assert store.load(KEY) is None
    assert os.path.exists(store.quarantine_path(KEY))
    assert store.quarantined == 1


def test_stale_version_misses_but_is_not_quarantined(tmp_path):
    """A well-formed record from an older CACHE_VERSION is retired, not
    corrupt: it reads as a miss and stays where it is until overwritten."""
    store = ResultStore(str(tmp_path))
    record = {"version": CACHE_VERSION - 1, "spec": None,
              "result": _result_dict()}
    with open(store.path(KEY), "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    assert store.load(KEY) is None
    assert os.path.exists(store.path(KEY))
    assert store.quarantined == 0


def test_quarantine_overwrites_previous_quarantined_record(tmp_path):
    store = ResultStore(str(tmp_path))
    for garbage in ("first", "second"):
        with open(store.path(KEY), "w", encoding="utf-8") as fh:
            fh.write(garbage)
        assert store.load(KEY) is None
    with open(store.quarantine_path(KEY), encoding="utf-8") as fh:
        assert fh.read() == "second"
    assert store.quarantined == 2


# ------------------------------------------------------------ concurrency
def test_concurrent_writers_and_readers_never_see_torn_records(tmp_path):
    """N writer threads hammering one key while readers load it: every
    load is either a miss or a fully valid record — atomic `os.replace`
    publication means no reader ever decodes a partial write (which
    would show up here as a quarantine)."""
    store = ResultStore(str(tmp_path))
    payload = _result_dict()
    errors = []
    stop = threading.Event()

    def writer():
        try:
            for _ in range(200):
                store.store(KEY, {"n": 1}, payload)
        except Exception as exc:  # pragma: no cover - the failure signal
            errors.append(exc)

    def reader():
        local = ResultStore(str(tmp_path))
        try:
            while not stop.is_set():
                loaded = local.load(KEY)
                if loaded is not None:
                    assert loaded.to_dict() == payload
            assert local.quarantined == 0, "reader saw a torn record"
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    writers = [threading.Thread(target=writer) for _ in range(4)]
    readers = [threading.Thread(target=reader) for _ in range(4)]
    for t in readers + writers:
        t.start()
    for t in writers:
        t.join()
    stop.set()
    for t in readers:
        t.join()
    assert not errors
    assert store.load(KEY) is not None
    # No orphaned temp files left behind by the atomic-write dance.
    leftovers = [n for n in os.listdir(tmp_path) if n.endswith(".tmp")]
    assert leftovers == []


# ------------------------------------------------- campaign integration
def test_campaign_quarantines_corrupt_entry_and_reruns(tmp_path):
    """The campaign path inherits the quarantine behavior: a corrupt
    cache entry is moved aside and the spec re-executes."""
    cache = str(tmp_path / "cache")
    spec = RunSpec.single("VA", "shared", scale=0.05)
    Campaign(cache_dir=cache).result(spec)
    path = os.path.join(cache, f"{spec.cache_key()}.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("not json at all")
    campaign = Campaign(cache_dir=cache)
    res = campaign.result(spec)
    assert campaign.executed == 1
    assert res.ipc > 0
    assert campaign.store.quarantined == 1
    qpath = os.path.join(cache, QUARANTINE_DIR,
                         f"{spec.cache_key()}.json")
    assert os.path.exists(qpath)
    # The re-run repopulated the cache: a third campaign hits.
    warm = Campaign(cache_dir=cache)
    warm.result(spec)
    assert warm.executed == 0
    assert warm.cache_hits == 1
