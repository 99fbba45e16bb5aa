"""Chaos suite: the distributed substrate under seeded fault schedules.

Every run is reproducible: fault policies and backoff jitter draw from
seeded RNGs, so a failing schedule can be replayed bit for bit.  The
acceptance bar (see ISSUE 1): under 10% drop / 5% duplicate / 5% corrupt,
Bloomjoin and Summary-Cache runs must complete with exact results via
retry + fallback, with *every* injected corrupt frame detected by
checksum — zero silent acceptances.
"""

import random
import tracemalloc

import pytest

from repro.apps.bloomjoin import (
    bloomjoin,
    exact_grouped_join_count,
    resilient_bloomjoin,
    resilient_spectral_bloomjoin_count,
    spectral_bloomjoin_count,
)
from repro.apps.summary_cache import build_mesh
from repro.core.sbf import SpectralBloomFilter
from repro.core.serialize import dump_sbf
from repro.db.faults import DROP, OK, FaultPolicy, FaultyNetwork
from repro.db.relation import Relation
from repro.db.site import Network, two_sites
from repro.db.transport import (
    DeliveryFailed,
    ReliableChannel,
    open_envelope,
    seal_envelope,
)
from repro.filters.bloom import BloomFilter
from repro.storage.backends import ArrayBackend, make_backend


def chaos_policy(seed):
    """The ISSUE 1 acceptance schedule: 10% drop, 5% dup, 5% corrupt."""
    return FaultPolicy(drop=0.10, duplicate=0.05, corrupt=0.05, seed=seed)


def make_relations(seed, n_left=120, n_right=150):
    rng = random.Random(seed)
    r1 = Relation("R1", ("a", "b"),
                  [(rng.randrange(40), i) for i in range(n_left)])
    r2 = Relation("R2", ("a", "c"),
                  [(rng.randrange(60), 1000 + i) for i in range(n_right)])
    return r1, r2


class TestFaultPolicy:
    def test_same_seed_same_schedule(self):
        a = FaultPolicy(drop=0.3, duplicate=0.2, corrupt=0.2, seed=17)
        b = FaultPolicy(drop=0.3, duplicate=0.2, corrupt=0.2, seed=17)
        assert [a.decide() for _ in range(200)] == \
            [b.decide() for _ in range(200)]

    def test_probability_validation(self):
        with pytest.raises(ValueError):
            FaultPolicy(drop=-0.1)
        with pytest.raises(ValueError):
            FaultPolicy(corrupt=1.5)
        with pytest.raises(ValueError):
            FaultPolicy(drop=0.6, duplicate=0.6)

    def test_corrupt_flips_exactly_one_bit(self):
        policy = FaultPolicy(seed=3)
        frame = bytes(range(32))
        mutated = policy.corrupt_bytes(frame)
        assert len(mutated) == len(frame)
        diff = [a ^ b for a, b in zip(frame, mutated)]
        assert sum(bin(d).count("1") for d in diff) == 1

    def test_all_ok_without_faults(self):
        policy = FaultPolicy(seed=5)
        assert all(policy.decide() == OK for _ in range(100))

    def test_certain_drop(self):
        policy = FaultPolicy(drop=1.0, seed=6)
        assert all(policy.decide() == DROP for _ in range(50))


class TestFaultyNetwork:
    def test_drop_in_replacement_without_policies(self):
        net = FaultyNetwork()
        arrivals = net.transmit("a", "b", "frame", b"hello")
        assert arrivals == [b"hello"]
        assert net.total_bits == len(b"hello") * 8
        assert all(count == 0 for count in net.faults.values())

    def test_drop(self):
        net = FaultyNetwork(FaultPolicy(drop=1.0, seed=1))
        assert net.transmit("a", "b", "frame", b"data") == []
        assert net.faults["drops"] == 1
        assert net.total_bits == 32  # the attempt still burned wire

    def test_duplicate_charges_both_copies(self):
        net = FaultyNetwork(FaultPolicy(duplicate=1.0, seed=1))
        arrivals = net.transmit("a", "b", "frame", b"data")
        assert arrivals == [b"data", b"data"]
        assert net.faults["duplicates"] == 1
        assert net.total_bits == 2 * 32

    def test_corrupt_delivers_damaged_frame(self):
        net = FaultyNetwork(FaultPolicy(corrupt=1.0, seed=2))
        original = bytes(64)
        (arrival,) = net.transmit("a", "b", "frame", original)
        assert arrival != original
        assert len(arrival) == len(original)
        assert net.faults["corruptions"] == 1

    def test_delay_reorders_frames(self):
        net = FaultyNetwork()
        net.set_policy("a", "b", FaultPolicy(delay=1.0, seed=3))
        assert net.transmit("a", "b", "frame", b"first") == []
        assert net.pending_delayed("a", "b") == 1
        net.set_policy("a", "b", None)
        arrivals = net.transmit("a", "b", "frame", b"second")
        assert arrivals == [b"second", b"first"]  # late and out of order

    def test_label_specific_policy(self):
        net = FaultyNetwork()
        net.set_policy("a", "b", FaultPolicy(drop=1.0, seed=4),
                       label="synopsis")
        assert net.transmit("a", "b", "synopsis", b"x") == []
        assert net.transmit("a", "b", "tuples", b"y") == [b"y"]

    def test_policies_are_per_direction(self):
        net = FaultyNetwork()
        net.set_policy("a", "b", FaultPolicy(drop=1.0, seed=5))
        assert net.transmit("a", "b", "frame", b"x") == []
        assert net.transmit("b", "a", "frame", b"y") == [b"y"]

    def test_non_bytes_frames_rejected(self):
        net = FaultyNetwork()
        with pytest.raises(TypeError):
            net.transmit("a", "b", "frame", {"not": "bytes"})


class TestEnvelope:
    def test_roundtrip(self):
        envelope = seal_envelope(7, b"payload")
        assert open_envelope(envelope) == (7, b"payload")

    def test_every_bitflip_detected(self):
        envelope = seal_envelope(1, bytes(range(64)))
        for position in range(len(envelope) * 8):
            mutated = bytearray(envelope)
            mutated[position // 8] ^= 1 << (position % 8)
            assert open_envelope(bytes(mutated)) is None

    def test_truncation_detected(self):
        envelope = seal_envelope(1, b"abcdef")
        for cut in range(len(envelope)):
            assert open_envelope(envelope[:cut]) is None


class TestReliableChannel:
    def test_clean_network_single_attempt(self):
        net = Network()
        channel = ReliableChannel(net, "a", "b", seed=1)
        assert channel.send("frame", b"payload") == b"payload"
        assert channel.stats.attempts == 1
        assert channel.stats.retries == 0
        assert channel.stats.delivered == 1

    def test_retries_through_losses(self):
        net = FaultyNetwork(FaultPolicy(drop=0.5, seed=11))
        channel = ReliableChannel(net, "a", "b", max_retries=20, seed=11)
        for i in range(20):
            payload = f"message {i}".encode()
            assert channel.send("frame", payload) == payload
        assert channel.stats.delivered == 20
        assert channel.stats.retries > 0
        assert channel.stats.timeouts == channel.stats.retries
        assert channel.stats.backoff_seconds > 0

    def test_backoff_sleep_hook_is_optional_and_deterministic(self):
        # Default sleep=None: backoff is simulated (accounted, never
        # slept) so chaos runs replay instantly and identically.  A real
        # deployment injects sleep=time.sleep; here a recorder proves the
        # hook receives exactly the accounted pauses — capped exponential
        # growth with seeded jitter.
        naps: list[float] = []
        net = FaultyNetwork(FaultPolicy(drop=0.5, seed=11))
        channel = ReliableChannel(net, "a", "b", max_retries=20, seed=11,
                                  sleep=naps.append)
        for i in range(20):
            payload = f"message {i}".encode()
            assert channel.send("frame", payload) == payload
        assert len(naps) == channel.stats.retries
        assert sum(naps) == pytest.approx(channel.stats.backoff_seconds)
        assert all(nap <= channel.max_backoff * 1.5 for nap in naps)
        # Same seeds, no hook: identical schedule, nothing slept.
        net2 = FaultyNetwork(FaultPolicy(drop=0.5, seed=11))
        silent = ReliableChannel(net2, "a", "b", max_retries=20, seed=11)
        for i in range(20):
            silent.send("frame", f"message {i}".encode())
        assert silent.stats.backoff_seconds == \
            pytest.approx(channel.stats.backoff_seconds)

    def test_corruption_always_detected_never_accepted(self):
        net = FaultyNetwork(FaultPolicy(corrupt=1.0, seed=12))
        channel = ReliableChannel(net, "a", "b", max_retries=3, seed=12)
        with pytest.raises(DeliveryFailed):
            channel.send("frame", b"precious")
        assert channel.stats.corrupt_detected == channel.stats.attempts == 4
        assert channel.stats.delivered == 0
        assert channel.stats.gave_up == 1

    def test_duplicates_deduplicated(self):
        net = FaultyNetwork(FaultPolicy(duplicate=1.0, seed=13))
        channel = ReliableChannel(net, "a", "b", seed=13)
        assert channel.send("frame", b"one") == b"one"
        assert channel.send("frame", b"two") == b"two"
        assert channel.stats.delivered == 2
        assert channel.stats.duplicates_ignored == 2

    def test_delayed_retry_copy_is_deduplicated(self):
        # delay=1.0: every attempt is held back and flushed during the
        # next transmit, so a retry receives the previous attempt's copy
        # (same sequence number) alongside its own held slot.
        net = FaultyNetwork()
        net.set_policy("a", "b", FaultPolicy(delay=1.0, seed=14))
        channel = ReliableChannel(net, "a", "b", max_retries=4, seed=14)
        assert channel.send("frame", b"first") == b"first"
        assert channel.stats.delivered == 1
        assert channel.stats.retries >= 1
        # The extra identical-seq copies were never double-processed.
        assert channel.stats.duplicates_ignored == 0
        assert channel.stats.stale_frames == 0

    def test_stale_copy_of_failed_send_counted(self):
        # seq 0's only attempt is held back and its send gives up; the
        # held copy then surfaces during seq 1's send and must be
        # recognised as stale, not delivered as seq 1's payload.
        net = FaultyNetwork()
        net.set_policy("a", "b", FaultPolicy(delay=1.0, seed=15))
        channel = ReliableChannel(net, "a", "b", max_retries=0, seed=15)
        with pytest.raises(DeliveryFailed):
            channel.send("frame", b"doomed")
        net.set_policy("a", "b", None)
        assert channel.send("frame", b"healthy") == b"healthy"
        assert channel.stats.stale_frames == 1

    def test_gave_up_raises_with_stats(self):
        net = FaultyNetwork(FaultPolicy(drop=1.0, seed=16))
        channel = ReliableChannel(net, "a", "b", max_retries=2, seed=16)
        with pytest.raises(DeliveryFailed) as excinfo:
            channel.send("frame", b"never")
        assert excinfo.value.stats.attempts == 3
        assert excinfo.value.stats.gave_up == 1

    def test_validator_rejection_retries(self):
        net = Network()
        channel = ReliableChannel(net, "a", "b", max_retries=2, seed=17)
        seen = []

        def picky(payload):
            seen.append(payload)
            if len(seen) == 1:
                raise ValueError("not convinced")

        assert channel.send("frame", b"data", validator=picky) == b"data"
        assert channel.stats.corrupt_detected == 1
        assert channel.stats.retries == 1
        assert channel.stats.delivered == 1

    def test_deterministic_replay(self):
        def run():
            net = FaultyNetwork(chaos_policy(21))
            channel = ReliableChannel(net, "a", "b", max_retries=10,
                                      seed=21)
            for i in range(30):
                channel.send("frame", f"m{i}".encode())
            return channel.stats.as_dict(), dict(net.faults)

        assert run() == run()

    def test_configuration_validation(self):
        net = Network()
        with pytest.raises(ValueError):
            ReliableChannel(net, "a", "b", max_retries=-1)
        with pytest.raises(ValueError):
            ReliableChannel(net, "a", "b", base_backoff=0)
        with pytest.raises(ValueError):
            ReliableChannel(net, "a", "b", jitter=-0.5)

    def test_a_long_send_loop_keeps_constant_state(self):
        # The network keeps running totals, never the frames, and the
        # channel remembers a window of sequence numbers, never all of
        # them: 20,000 more sends retain next to nothing (a kept frame
        # alone costs over 100 bytes).
        net = FaultyNetwork(FaultPolicy(drop=0.05, duplicate=0.05,
                                        delay=0.05, seed=23))
        channel = ReliableChannel(net, "a", "b", max_retries=20, seed=23)

        def sends(n):
            for _ in range(n):
                assert channel.send("frame", b"payload") == b"payload"

        tracemalloc.start()
        try:
            sends(1000)
            before = tracemalloc.get_traced_memory()[0]
            sends(20_000)
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert after - before < 64 * 1024
        assert len(channel._seen) <= 65
        assert net.rounds == channel.stats.attempts + net.faults["duplicates"]
        assert net.breakdown() == {"frame": net.total_bits}
        assert channel.stats.duplicates_ignored > 0
        assert channel.stats.delivered == 21_000

    def test_backoff_is_capped(self):
        net = Network()
        channel = ReliableChannel(net, "a", "b", base_backoff=1.0,
                                  max_backoff=4.0, jitter=0.0, seed=1)
        assert channel._backoff(1) == 1.0
        assert channel._backoff(3) == 4.0
        assert channel._backoff(10) == 4.0


@pytest.mark.chaos
class TestChaosBloomjoin:
    """The acceptance-criteria schedule: exact answers despite chaos."""

    def run_join(self, *, channel_options=None):
        net = FaultyNetwork(chaos_policy(42))
        site1, site2, _ = two_sites(net)
        r1, r2 = make_relations(1)
        site1.store(r1)
        site2.store(r2)
        joined, report = resilient_bloomjoin(
            site1, "R1", site2, "R2", "a", m=2048, k=4, seed=3,
            channel_options=channel_options or {"max_retries": 10})
        return net, r1, r2, joined, report

    def test_exact_join_under_chaos(self):
        net, r1, r2, joined, report = self.run_join()
        expected = r1.join(r2, "a")
        assert sorted(joined.rows) == sorted(expected.rows)
        assert report["fallback"] is False
        # The schedule actually injected faults.
        assert sum(net.faults.values()) > 0

    def test_every_corrupt_frame_detected(self):
        # A single join ships only a couple of frames; run many joins over
        # one chaotic network so the 5% corruption rate actually fires.
        net = FaultyNetwork(chaos_policy(42))
        site1, site2, _ = two_sites(net)
        detected = 0
        for round_number in range(25):
            r1, r2 = make_relations(round_number)
            site1.relations.clear()
            site2.relations.clear()
            site1.store(r1)
            site2.store(r2)
            joined, report = resilient_bloomjoin(
                site1, "R1", site2, "R2", "a", m=2048, k=4,
                seed=round_number, channel_options={"max_retries": 10})
            assert sorted(joined.rows) == sorted(r1.join(r2, "a").rows)
            detected += (report["synopsis_channel"].corrupt_detected
                         + report["tuple_channel"].corrupt_detected)
        assert net.faults["corruptions"] > 0
        assert detected == net.faults["corruptions"]  # zero silent accepts

    def test_delivery_metrics_exposed(self):
        net, _r1, _r2, _joined, report = self.run_join()
        stats = report["synopsis_channel"].merge(report["tuple_channel"])
        assert stats.attempts >= 2
        assert stats.delivered == 2  # synopsis leg + tuple leg
        if net.faults["drops"] or net.faults["corruptions"]:
            assert stats.retries > 0

    def test_fallback_to_full_tuple_shipping(self):
        net = FaultyNetwork()
        net.set_policy("site1", "site2", FaultPolicy(drop=1.0, seed=7))
        site1, site2, _ = two_sites(net)
        r1, r2 = make_relations(2)
        site1.store(r1)
        site2.store(r2)
        joined, report = resilient_bloomjoin(
            site1, "R1", site2, "R2", "a", m=1024, k=4, seed=4,
            channel_options={"max_retries": 2})
        assert report["fallback"] is True
        assert report["synopsis_channel"].gave_up == 1
        # Correct answer, more traffic — and the traffic is visible.
        assert sorted(joined.rows) == sorted(r1.join(r2, "a").rows)
        assert net.breakdown().get("fallback-tuples", 0) > 0

    def test_matches_clean_network_run(self):
        _net, r1, r2, joined, _report = self.run_join()
        clean1, clean2, _ = two_sites()
        clean1.store(r1)
        clean2.store(r2)
        baseline = bloomjoin(clean1, "R1", clean2, "R2", "a", m=2048,
                             k=4, seed=3)
        assert sorted(joined.rows) == sorted(baseline.rows)


@pytest.mark.chaos
class TestChaosSpectralBloomjoin:
    def test_counts_match_clean_run_and_bound_truth(self):
        net = FaultyNetwork(chaos_policy(43))
        site1, site2, _ = two_sites(net)
        r1, r2 = make_relations(3)
        site1.store(r1)
        site2.store(r2)
        counts, report = resilient_spectral_bloomjoin_count(
            site1, "R1", site2, "R2", "a", m=4096, k=4, seed=5,
            channel_options={"max_retries": 10})
        assert report["fallback"] is False
        clean1, clean2, _ = two_sites()
        clean1.store(r1)
        clean2.store(r2)
        baseline = spectral_bloomjoin_count(clean1, "R1", clean2, "R2",
                                            "a", m=4096, k=4, seed=5)
        assert counts == baseline  # intact synopsis => identical estimates
        exact = exact_grouped_join_count(r1, r2, "a")
        for value, true_count in exact.items():
            assert counts.get(value, 0) >= true_count  # one-sided

    def test_fallback_gives_exact_counts(self):
        net = FaultyNetwork()
        net.set_policy("site2", "site1", FaultPolicy(drop=1.0, seed=8),
                       label="sbf")
        site1, site2, _ = two_sites(net)
        r1, r2 = make_relations(4)
        site1.store(r1)
        site2.store(r2)
        counts, report = resilient_spectral_bloomjoin_count(
            site1, "R1", site2, "R2", "a", m=2048, k=4, seed=6,
            channel_options={"max_retries": 1})
        assert report["fallback"] is True
        assert counts == exact_grouped_join_count(r1, r2, "a")
        assert net.breakdown().get("fallback-tuples", 0) > 0


@pytest.mark.chaos
class TestChaosSummaryCache:
    def build_chaos_mesh(self, seed=44, spectral=False):
        net = FaultyNetwork(chaos_policy(seed))
        proxies = build_mesh(["p1", "p2", "p3"], m=2048, k=4, seed=1,
                             spectral=spectral, network=net,
                             max_retries=10)
        p1, p2, p3 = proxies
        for i in range(50):
            p2.store(f"doc{i}")
        for i in range(40, 90):
            p3.store(f"doc{i}")
        for proxy in proxies:
            proxy.publish()
        return net, proxies

    def test_routing_correct_under_chaos(self):
        _net, (p1, _p2, _p3) = self.build_chaos_mesh()
        assert p1.lookup("doc10") == ("p2", "doc10")
        assert p1.lookup("doc80") == ("p3", "doc80")
        assert p1.lookup("nowhere") is None

    def test_every_corrupt_summary_frame_detected(self):
        # Keep the mesh publishing so the 5% corruption rate fires often.
        net, proxies = self.build_chaos_mesh(seed=45)
        for round_number in range(15):
            proxies[round_number % 3].store(f"extra{round_number}")
            for proxy in proxies:
                proxy.publish()
        detected = sum(stats.corrupt_detected
                       for proxy in proxies
                       for stats in proxy.channel_stats().values())
        assert net.faults["corruptions"] > 0
        assert detected == net.faults["corruptions"]

    def test_spectral_routing_under_chaos(self):
        net = FaultyNetwork(chaos_policy(46))
        proxies = build_mesh(["a", "b", "c"], m=4096, k=4, seed=3,
                             spectral=True, network=net, max_retries=10)
        a, b, c = proxies
        b.store("hot")
        for _ in range(10):
            c.store("hot")
        for proxy in proxies:
            proxy.publish()
        source, _obj = a.lookup("hot")
        assert source == "c"  # popularity-aware routing survived chaos

    def test_undeliverable_summary_serves_last_good(self):
        net = FaultyNetwork()
        proxies = build_mesh(["p1", "p2"], m=1024, k=3, seed=2,
                             network=net, max_retries=1)
        p1, p2 = proxies
        p2.store("old-doc")
        p2.publish()  # clean: p1 gets a good summary
        p2.store("new-doc")
        net.set_policy("p2", "p1", FaultPolicy(drop=1.0, seed=9))
        outcome = p2.publish()
        assert outcome["failed"] == 1
        assert p2.publish_failures == 1
        assert p1.staleness["p2"] == 1
        # Served from the last good summary: old doc still routable,
        # new doc invisible (missed remote hit, not an error).
        assert p1.lookup("old-doc") == ("p2", "old-doc")
        assert p1.lookup("new-doc") is None
        # Recovery: once the channel heals, staleness resets.
        net.set_policy("p2", "p1", None)
        p2.publish()
        assert p1.staleness["p2"] == 0
        assert p1.lookup("new-doc") == ("p2", "new-doc")

    def test_corrupt_summary_rejected_not_trusted(self):
        proxies = build_mesh(["p1", "p2"], m=512, k=3, seed=4)
        p1, p2 = proxies
        p2.store("thing")
        p2.publish()
        good = p1.peer_summaries["p2"]
        # Hand the receiver a bit-flipped Bloom frame directly.
        from repro.core.serialize import dump_bloom
        frame = bytearray(dump_bloom(p2.build_summary()))
        frame[len(frame) // 2] ^= 0x10
        assert p1.receive_summary("p2", bytes(frame)) is False
        assert p1.summaries_rejected == 1
        assert p1.staleness["p2"] == 1
        assert p1.peer_summaries["p2"] is good  # last good still serving


class TestIntegrityAudit:
    @pytest.mark.parametrize("method", ["ms", "mi", "rm", "trm"])
    def test_clean_filters_pass(self, method):
        sbf = SpectralBloomFilter(512, 4, method=method, seed=5)
        rng = random.Random(5)
        for _ in range(600):
            sbf.insert(rng.randrange(100))
        assert sbf.check_integrity() == []

    def test_clean_after_deletions(self):
        sbf = SpectralBloomFilter(512, 4, method="rm", seed=6)
        for x in range(100):
            sbf.insert(x, 3)
        for x in range(50):
            sbf.delete(x, 2)
        assert sbf.check_integrity() == []

    def test_tampered_total_count_flagged(self):
        sbf = SpectralBloomFilter(256, 3, seed=7)
        sbf.update({"a": 4, "b": 2})
        sbf.total_count += 5
        assert any("counter sum" in issue
                   for issue in sbf.check_integrity())

    def test_tampered_counters_flagged(self):
        sbf = SpectralBloomFilter(256, 3, method="rm", seed=8)
        for x in range(200):
            sbf.insert(x)
        # The audit tolerates a sub-k surplus (join products round their
        # total_count down to sum // k), so tamper beyond it.
        sbf.counters.set(17, sbf.counters.get(17) + sbf.k)
        assert any("primary counter sum" in issue
                   for issue in sbf.check_integrity())

    def test_deflated_counter_flagged_exactly(self):
        sbf = SpectralBloomFilter(256, 3, seed=8)
        for x in range(200):
            sbf.insert(x)
        lowered = next(i for i in range(sbf.m) if sbf.counters.get(i) > 0)
        sbf.counters.set(lowered, sbf.counters.get(lowered) - 1)
        assert any("counter sum" in issue
                   for issue in sbf.check_integrity())

    def test_tampered_secondary_flagged(self):
        sbf = SpectralBloomFilter(256, 3, method="rm", seed=9)
        for x in range(300):
            sbf.insert(x)
        sbf.method.secondary.total_count += 1
        assert any("rm secondary" in issue
                   for issue in sbf.check_integrity())

    def test_missing_marker_flagged(self):
        sbf = SpectralBloomFilter(128, 3, method="rm", seed=10)
        sbf.insert("x")
        sbf.method.marker = None
        assert any("marker" in issue for issue in sbf.check_integrity())

    def test_mismatched_marker_flagged(self):
        sbf = SpectralBloomFilter(128, 3, method="rm", seed=11)
        sbf.insert("x")
        sbf.method.marker = BloomFilter(64, 3, seed=11)
        assert any("marker" in issue for issue in sbf.check_integrity())

    def test_join_product_passes(self):
        a = SpectralBloomFilter(600, 4, seed=12)
        b = SpectralBloomFilter(600, 4, seed=12)
        a.update({"j1": 2, "j2": 3})
        b.update({"j1": 4, "zz": 1})
        assert (a * b).check_integrity() == []

    def test_union_passes(self):
        a = SpectralBloomFilter(400, 4, method="rm", seed=13)
        b = SpectralBloomFilter(400, 4, method="rm", seed=13)
        for x in range(100):
            a.insert(x)
            b.insert(x + 50)
        assert (a + b).check_integrity() == []


class TestMakeBackendValidation:
    def test_instance_with_options_is_loud(self):
        backend = ArrayBackend(64)
        with pytest.raises(ValueError, match="options"):
            make_backend(backend, 64, refresh_threshold=3)

    def test_instance_passthrough_still_works(self):
        backend = ArrayBackend(64)
        assert make_backend(backend, 64) is backend

    def test_wrong_size_instance_still_rejected(self):
        with pytest.raises(ValueError):
            make_backend(ArrayBackend(32), 64)
