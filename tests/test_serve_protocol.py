"""Protocol fuzz suite for the ingestion service (repro.serve).

Hypothesis drives a *live* service over real loopback sockets through
the harness in :mod:`repro.serve.testing` and holds the wire contract:

- every complete frame — arbitrary bytes, arbitrary JSON, or a valid
  command — gets exactly one well-formed JSON response line, with
  failures drawn from the closed :data:`repro.serve.ERROR_CODES`
  vocabulary;
- the connection only ever closes after a ``bad-frame`` response (the
  one case where the frame boundary is untrustworthy);
- the service never deadlocks: every read in the harness carries a
  deadline, so a wedge fails the test as a timeout instead of hanging;
- accepted commands are *differentially replayable*: the same inserts
  applied to an in-process :class:`~repro.monitor.ItemBatchMonitor`
  produce bit-identical ``QUERY`` answers.

All generation is derandomized so the suite is deterministic in CI.
"""

import dataclasses
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ItemBatchMonitor, count_window
from repro.serve import ERROR_CODES, OPS, TenantConfig
from repro.serve.testing import LineClient, ServiceThread

#: One derandomized profile for the whole suite (CI determinism).
FUZZ = settings(max_examples=60, deadline=None, derandomize=True)

#: Engine shape shared by the service fixture and the differential
#: reference monitor.
CONFIG = TenantConfig(window_length=64, memory="16KB", seed=3)

_FRESH_TENANT = itertools.count()


@pytest.fixture(scope="module")
def hosted():
    with ServiceThread(default_config=CONFIG, max_tenants=100_000) as h:
        yield h


def fresh_tenant() -> str:
    return f"fuzz-{next(_FRESH_TENANT)}"


# Arbitrary JSON values (for frames that parse but may violate the
# field contract).
json_values = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=10,
)

json_objects = st.dictionaries(
    st.sampled_from(["op", "tenant", "key", "keys", "times", "t", "x"]),
    json_values, max_size=5)

# Raw garbage: any bytes, newlines stripped so one send is one frame.
garbage = st.binary(min_size=1, max_size=200).map(
    lambda b: b.replace(b"\n", b" ").replace(b"\r", b" "))

# Lone surrogates (category Cs) are valid JSON string content, so they
# are valid keys too. Bools are JSON values but not keys: a command
# carrying one answers bad-request and leaves the tenant unchanged.
text_keys = st.text(
    alphabet=st.characters(codec="utf-8", exclude_characters="\x00")
    | st.characters(categories=["Cs"]),
    min_size=1, max_size=12)
keys = text_keys | st.integers() | st.booleans()

# Any JSON number a client may send as a time: unbounded ints, including
# ones past float range, and every finite float.
stamps = st.one_of(
    st.integers(),
    st.integers(min_value=2**1024) | st.integers(max_value=-2**1024),
    st.floats(allow_nan=False, allow_infinity=False))

# A valid command script against one tenant (count window: no times).
commands = st.lists(
    st.one_of(
        st.tuples(st.just("INSERT"), keys),
        st.tuples(st.just("INSERT_BATCH"),
                  st.lists(keys, min_size=1, max_size=20)),
        st.tuples(st.just("QUERY"), keys),
    ),
    min_size=1, max_size=40)


def is_valid(payload):
    """Whether a command's key (or every batch key) is a wire key."""
    batch = payload if isinstance(payload, list) else [payload]
    return not any(isinstance(key, bool) for key in batch)


def assert_bad_request(response):
    assert response["ok"] is False, response
    assert response["error"]["code"] == "bad-request", response


def assert_well_formed(response):
    """The core fuzz assertion: a response honours the wire contract."""
    assert isinstance(response, dict)
    assert isinstance(response.get("ok"), bool)
    if response["ok"]:
        assert response.get("op") in OPS
    else:
        error = response["error"]
        assert error["code"] in ERROR_CODES
        assert isinstance(error["message"], str) and error["message"]
        assert isinstance(error["retryable"], bool)


class TestArbitraryInput:
    @given(frame=garbage)
    @FUZZ
    def test_any_bytes_answer_well_formed_or_bad_frame_close(
            self, hosted, frame):
        with LineClient.for_service(hosted) as client:
            client.send_raw(frame + b"\n")
            response = client.recv_line()
            # Exactly one response per complete frame — the server
            # never closes without answering.
            assert response is not None
            assert_well_formed(response)
            if not response["ok"] \
                    and response["error"]["code"] == "bad-frame":
                # After unparseable bytes the server must hang up.
                assert client.recv_line() is None
            else:
                # Otherwise the connection survives: a follow-up PING
                # answers (also the no-deadlock liveness probe).
                assert client.request({"op": "PING"})["ok"] is True

    @given(obj=json_objects)
    @FUZZ
    def test_any_json_object_answers_typed_and_stays_open(
            self, hosted, obj):
        with LineClient.for_service(hosted) as client:
            response = client.request(obj)
            assert_well_formed(response)
            # A parseable object line is never a framing error, so the
            # connection must stay usable.
            assert response.get("ok") \
                or response["error"]["code"] != "bad-frame"
            assert client.request({"op": "PING"})["ok"] is True

    @given(frames=st.lists(json_objects, min_size=1, max_size=8))
    @FUZZ
    def test_pipelining_answers_every_frame_in_order(self, hosted, frames):
        raw = [json.dumps(f).encode("utf-8") + b"\n" for f in frames]
        with LineClient.for_service(hosted) as client:
            responses = client.request_lines(raw)
            assert len(responses) == len(frames)
            for response in responses:
                assert_well_formed(response)


def on_the_wire(payload):
    """The payload as the server decodes it from its JSON frame.

    JSON joins an adjacent lone high and low surrogate into one
    character, so a drawn key can reach the server as a different key.
    """
    return json.loads(json.dumps(payload))


class TestDifferentialReplay:
    @given(script=commands)
    @FUZZ
    def test_served_answers_match_in_process_monitor(self, hosted, script):
        tenant = fresh_tenant()
        reference = ItemBatchMonitor(
            count_window(CONFIG.window_length), memory=CONFIG.memory,
            seed=CONFIG.seed)
        with LineClient.for_service(hosted) as client:
            for op, payload in script:
                valid = is_valid(payload)
                wire = on_the_wire(payload)
                if op == "INSERT":
                    response = client.request(
                        {"op": op, "tenant": tenant, "key": payload})
                    if valid:
                        reference.observe(wire)
                elif op == "INSERT_BATCH":
                    response = client.request(
                        {"op": op, "tenant": tenant, "keys": payload})
                    if valid:
                        reference.observe_many(wire)
                else:
                    response = client.request(
                        {"op": op, "tenant": tenant, "key": payload})
                    if valid:
                        report = reference.report(wire)
                        assert response["active"] == report.active
                        assert response["size"] == report.size
                        assert response["span"] == report.span
                        assert response["begin"] == report.begin
                if valid:
                    assert response["ok"] is True, response
                else:
                    assert_bad_request(response)
            stats = client.request({"op": "STATS", "tenant": tenant})
            accepted = [(op, p) for op, p in script if is_valid(p)]
            inserted = sum(1 for op, _ in accepted if op == "INSERT") \
                + sum(len(p) for op, p in accepted if op == "INSERT_BATCH")
            assert stats["tenant"]["items"] == inserted

    @given(script=commands)
    @FUZZ
    def test_rejected_batches_are_all_or_nothing(self, hosted, script):
        # A count-based tenant rejects timestamps; the rejection must
        # leave no trace, so the accepted remainder replays exactly.
        tenant = fresh_tenant()
        reference = ItemBatchMonitor(
            count_window(CONFIG.window_length), memory=CONFIG.memory,
            seed=CONFIG.seed)
        with LineClient.for_service(hosted) as client:
            for op, payload in script:
                if not is_valid(payload):
                    field = "keys" if op == "INSERT_BATCH" else "key"
                    assert_bad_request(client.request(
                        {"op": op, "tenant": tenant, field: payload}))
                elif op == "INSERT_BATCH":
                    bad = client.request(
                        {"op": op, "tenant": tenant, "keys": payload,
                         "times": [1.0] * len(payload)})
                    assert bad["ok"] is False
                    assert bad["error"]["code"] == "time-error"
                    good = client.request(
                        {"op": op, "tenant": tenant, "keys": payload})
                    assert good["ok"] is True
                    reference.observe_many(on_the_wire(payload))
                elif op == "INSERT":
                    assert client.request(
                        {"op": op, "tenant": tenant,
                         "key": payload})["ok"] is True
                    reference.observe(on_the_wire(payload))
                else:
                    response = client.request(
                        {"op": "QUERY", "tenant": tenant, "key": payload})
                    report = reference.report(on_the_wire(payload))
                    assert response["size"] == report.size
                    assert response["active"] == report.active


class TestBatchCap:
    """A frame of exactly ``max_batch`` keys is one batch; one more is
    refused whole."""

    MAX_BATCH = 256
    _fresh = itertools.count()

    @pytest.fixture(scope="class")
    def capped(self):
        config = dataclasses.replace(CONFIG, max_batch=self.MAX_BATCH)
        with ServiceThread(default_config=config,
                           max_tenants=100_000) as h:
            yield h

    def frame(self, prefix, size):
        # Distinct and never sent before, so every key is hashed fresh;
        # round-tripped through JSON, which joins an adjacent surrogate
        # pair into one character, so the reference sees the served key.
        return [json.loads(json.dumps(f"{prefix}{next(self._fresh)}"))
                for _ in range(size)]

    @given(prefix=text_keys)
    @settings(max_examples=8, deadline=None, derandomize=True)
    def test_cap_sized_frame_is_accepted_and_one_more_moves_nothing(
            self, capped, prefix):
        tenant = fresh_tenant()
        exact = self.frame(prefix, self.MAX_BATCH)
        over = self.frame(prefix, self.MAX_BATCH + 1)
        reference = ItemBatchMonitor(
            count_window(CONFIG.window_length), memory=CONFIG.memory,
            seed=CONFIG.seed)
        for key in exact:
            reference.observe(key)
        with LineClient.for_service(capped) as client:
            accepted = client.request(
                {"op": "INSERT_BATCH", "tenant": tenant, "keys": exact})
            assert accepted["ok"] is True, accepted
            assert accepted["count"] == self.MAX_BATCH
            refused = client.request(
                {"op": "INSERT_BATCH", "tenant": tenant, "keys": over})
            assert refused["ok"] is False, refused
            assert refused["error"]["code"] == "admission"
            stats = client.request({"op": "STATS", "tenant": tenant})
            assert stats["tenant"]["items"] == self.MAX_BATCH
            answers = client.request_lines([
                json.dumps({"op": "QUERY", "tenant": tenant,
                            "key": key}).encode("utf-8") + b"\n"
                for key in exact + over])
        assert len(answers) == len(exact) + len(over)
        for key, answer in zip(exact + over, answers):
            report = reference.report(key)
            assert answer["ok"] is True, answer
            assert (answer["active"], answer["size"], answer["span"],
                    answer["begin"]) == (report.active, report.size,
                                         report.span, report.begin), key


class TestFullKeyDomain:
    """Int keys anywhere in the JSON integer domain, not just int64."""

    EDGE_KEYS = [2**63, 2**64 - 1, -2**63 - 1, 2**70]

    def test_out_of_int64_batch_is_accepted_and_hashed_like_scalars(
            self, hosted):
        tenant = fresh_tenant()
        with LineClient.for_service(hosted) as client:
            response = client.request({"op": "INSERT_BATCH",
                                       "tenant": tenant,
                                       "keys": self.EDGE_KEYS})
            assert response["ok"] is True, response
            assert response["count"] == len(self.EDGE_KEYS)
            for key in self.EDGE_KEYS:
                answer = client.request(
                    {"op": "QUERY", "tenant": tenant, "key": key})
                assert answer["ok"] is True, answer
                assert answer["active"] is True
                assert answer["size"] == 1
        served = hosted.service.tenants.peek(tenant).monitor
        # Each key's scalar cells are the ones the batch made live.
        bloom = served.activeness
        for key in self.EDGE_KEYS:
            assert np.all(bloom.clock.values[bloom.deriver.indexes(key)] > 0)
        # And the whole served state equals a scalar-fed monitor's.
        reference = ItemBatchMonitor(
            count_window(CONFIG.window_length), memory=CONFIG.memory,
            seed=CONFIG.seed)
        for key in self.EDGE_KEYS:
            reference.observe(key)
        for mine, theirs in zip(served._sketches, reference._sketches):
            assert np.array_equal(mine.clock.values, theirs.clock.values)


    def test_lone_surrogate_key_is_hashed_not_an_internal_error(
            self, hosted):
        tenant = fresh_tenant()
        key = "\ud800x"
        with LineClient.for_service(hosted) as client:
            response = client.request({"op": "INSERT_BATCH",
                                       "tenant": tenant,
                                       "keys": [key, key, "y"]})
            assert response["ok"] is True, response
            answer = client.request(
                {"op": "QUERY", "tenant": tenant, "key": key})
        assert answer["ok"] is True, answer
        assert answer["key"] == key
        assert answer["active"] is True
        assert answer["size"] == 2


class TestTimeDomain:
    """Times anywhere in the JSON number domain answer typed errors."""

    @pytest.fixture(scope="class")
    def timed(self):
        config = TenantConfig(window_length=10.0, window_kind="time",
                              memory="16KB", seed=3)
        with ServiceThread(default_config=config,
                           max_tenants=100_000) as h:
            yield h

    @pytest.mark.parametrize("field", ["t", "times"])
    def test_json_int_past_float_range_is_a_bad_request(self, timed, field):
        huge = 10**400
        frame = ({"op": "INSERT", "tenant": fresh_tenant(), "key": "k",
                  "t": huge} if field == "t" else
                 {"op": "INSERT_BATCH", "tenant": fresh_tenant(),
                  "keys": ["j", "k"], "times": [1.0, huge]})
        with LineClient.for_service(timed) as client:
            response = client.request(frame)
            assert response["ok"] is False
            assert response["error"]["code"] == "bad-request", response
            assert "finite" in response["error"]["message"]
            assert client.request({"op": "PING"})["ok"] is True

    @pytest.mark.parametrize("times", [[4.0, 5.0], [6.0, 5.5]],
                             ids=["backwards", "decreasing-within"])
    def test_out_of_order_batch_is_a_time_error_and_moves_nothing(
            self, timed, times):
        tenant = fresh_tenant()
        with LineClient.for_service(timed) as client:
            first = {"op": "INSERT_BATCH", "tenant": tenant,
                     "keys": ["j", "k"], "times": [5.0, 5.0]}
            assert client.request(first)["ok"] is True
            stats = {"op": "STATS", "tenant": tenant}
            before = client.request(stats)
            response = client.request({**first, "times": times})
            assert response["ok"] is False
            assert response["error"]["code"] == "time-error", response
            assert client.request(stats) == before

    @given(stamp=stamps)
    @FUZZ
    def test_any_time_is_accepted_or_typed_and_tenant_keeps_serving(
            self, timed, stamp):
        tenant = fresh_tenant()
        with LineClient.for_service(timed) as client:
            for frame in ({"op": "INSERT_BATCH", "tenant": tenant,
                           "keys": ["j", "k"], "times": [stamp, stamp]},
                          {"op": "INSERT", "tenant": tenant, "key": "k",
                           "t": stamp}):
                response = client.request(frame)
                assert_well_formed(response)
                if not response["ok"]:
                    assert response["error"]["code"] in (
                        "bad-request", "time-error"), response
            # An out-of-range time moved nothing: a later valid time
            # still ingests and answers.
            later = {"op": "INSERT", "tenant": tenant, "key": "z", "t": 1.0}
            if response["ok"]:
                later["t"] = float(stamp)
            assert client.request(later)["ok"] is True
            answer = client.request({"op": "QUERY", "tenant": tenant,
                                     "key": "z"})
            assert answer["ok"] is True and answer["active"] is True


class TestFraming:
    def test_mid_frame_disconnect_leaves_service_healthy(self, hosted):
        victim = LineClient.for_service(hosted)
        victim.disconnect_mid_frame(b'{"op": "INSERT", "tenant": "t", ')
        with LineClient.for_service(hosted) as client:
            assert client.request({"op": "PING"})["ok"] is True

    def test_oversized_frame_answers_bad_frame_and_closes(self):
        with ServiceThread(default_config=CONFIG,
                           max_frame_bytes=1024) as small:
            with LineClient.for_service(small) as client:
                client.send_raw(b'{"op": "' + b"A" * 4096 + b'"}\n')
                response = client.recv_line()
                assert response["ok"] is False
                assert response["error"]["code"] == "bad-frame"
                assert client.recv_line() is None

    def test_empty_line_is_a_bad_frame(self, hosted):
        with LineClient.for_service(hosted) as client:
            client.send_raw(b"\n")
            response = client.recv_line()
            assert response["ok"] is False
            assert response["error"]["code"] == "bad-frame"
