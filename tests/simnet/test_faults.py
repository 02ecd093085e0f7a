"""Fault-model tests: composition semantics, the loss models as fault
stages, and NIC egress integration."""

import pytest

from repro.simnet.engine import MS, SEC, US
from repro.simnet.faults import (
    DelayJitter, Duplicate, FaultPipeline, LinkFlap, Reorder, seeded_chaos,
)
from repro.simnet.loss import BernoulliLoss, ExplicitLoss
from repro.simnet.packet import Frame
from repro.transport.ip import IpStack
from repro.transport.udp import UdpStack


class _Payload:
    PROTO = "x"


def _frame(size=1000):
    return Frame(src=0, dst=1, payload=_Payload(), payload_size=size)


# ----------------------------------------------------------------------
# Loss models: fault stages with the uniform seen/dropped counters
# ----------------------------------------------------------------------

class TestLossModelUniformity:
    @pytest.mark.parametrize("make", [
        lambda: BernoulliLoss(0.5, seed=1),
        lambda: ExplicitLoss([2, 4]),
    ], ids=["BernoulliLoss", "ExplicitLoss"])
    def test_every_model_counts_seen_and_dropped(self, make):
        model = make()
        f = _frame()
        out = [model.admit(f, 0) for _ in range(50)]
        assert all(o in ([], [(0, f)]) for o in out)  # drop or pass, nothing else
        assert model.seen == 50
        assert model.dropped == out.count([])
        assert model.stats() == {"seen": 50, "dropped": model.dropped}

    def test_explicit_loss_seen_counter(self):
        model = ExplicitLoss([1, 3])
        decisions = [not model.admit(_frame(), 0) for _ in range(4)]
        assert decisions == [True, False, True, False]
        assert model.seen == 4 and model.dropped == 2


# ----------------------------------------------------------------------
# Fault models
# ----------------------------------------------------------------------

class TestFaultModels:
    def test_loss_model_is_a_pipeline_stage(self):
        loss = ExplicitLoss([2])
        pipe = FaultPipeline(loss, Reorder(prob=1.0, hold_ns=100, seed=1))
        f = _frame()
        assert pipe.admit(f, 0) == [(100, f)]
        assert pipe.admit(f, 0) == []
        assert pipe.admit(f, 0) == [(100, f)]
        assert pipe.seen == 3 and pipe.dropped == 1
        assert loss.seen == 3 and loss.dropped == 1
        assert pipe.stats() == {"seen": 3, "dropped": 1, "reordered": 2}

    def test_reorder_holds_selected_frames(self):
        fault = Reorder(prob=1.0, hold_ns=300 * US, seed=1)
        f = _frame()
        assert fault.admit(f, 0) == [(300 * US, f)]
        assert fault.reordered == 1
        fault = Reorder(prob=0.0, hold_ns=300 * US)
        assert fault.admit(f, 0) == [(0, f)]

    def test_duplicate_emits_two_copies(self):
        fault = Duplicate(prob=1.0, seed=1)
        f = _frame()
        assert fault.admit(f, 0) == [(0, f), (0, f)]
        assert fault.duplicated == 1

    def test_delay_jitter_bounds(self):
        fault = DelayJitter(jitter_ns=100, seed=2)
        delays = [fault.admit(_frame(), 0)[0][0] for _ in range(200)]
        assert all(0 <= d <= 100 for d in delays)
        assert fault.delayed == sum(1 for d in delays if d)
        assert len(set(delays)) > 10  # spread over the range

    def test_link_flap_windows(self):
        flap = LinkFlap([(10 * MS, 15 * MS)])
        f = _frame()
        assert flap.admit(f, 9 * MS) == [(0, f)]
        assert flap.admit(f, 12 * MS) == []
        assert flap.admit(f, 15 * MS) == [(0, f)]  # up bound is exclusive
        assert flap.dropped == 1

    def test_flap_validation(self):
        with pytest.raises(ValueError):
            LinkFlap([(5, 5)])
        with pytest.raises(ValueError):
            LinkFlap([(-1, 5)])


class TestFaultPipeline:
    def test_delays_accumulate_across_stages(self):
        pipe = FaultPipeline(
            Reorder(prob=1.0, hold_ns=100, seed=1),
            Reorder(prob=1.0, hold_ns=50, seed=2),
        )
        f = _frame()
        assert pipe.admit(f, 0) == [(150, f)]

    def test_drop_short_circuits(self):
        dup = Duplicate(prob=1.0, seed=1)
        pipe = FaultPipeline(ExplicitLoss([1]), dup)
        assert pipe.admit(_frame(), 0) == []
        assert pipe.dropped == 1
        assert dup.seen == 0  # never reached

    def test_duplicate_then_loss_can_halve(self):
        # Both copies offered to the second stage independently.
        pipe = FaultPipeline(Duplicate(prob=1.0, seed=1), ExplicitLoss([1]))
        f = _frame()
        assert pipe.admit(f, 0) == [(0, f)]  # one copy dropped, one lives

    def test_empty_pipeline_rejected(self):
        with pytest.raises(ValueError):
            FaultPipeline()

    def test_seeded_chaos_builder(self):
        pipe = seeded_chaos(
            seed=7,
            loss=BernoulliLoss(0.05, seed=7),
            reorder_prob=0.1,
            reorder_hold_ns=1000,
            dup_prob=0.1,
            jitter_ns=100,
            flap_windows=[(0, 10)],
        )
        assert len(pipe.stages) == 5
        with pytest.raises(ValueError):
            seeded_chaos(seed=1)


# ----------------------------------------------------------------------
# NIC egress integration
# ----------------------------------------------------------------------

class TestNicIntegration:
    def _udp_pair(self, tb):
        socks = []
        for h in tb.hosts:
            ip = IpStack(h)
            udp = UdpStack(h, ip)
            socks.append(udp.socket(5000))
        return socks

    def test_duplication_delivers_two_copies(self, zero_testbed):
        a, b = self._udp_pair(zero_testbed)
        zero_testbed.set_egress_faults(0, Duplicate(prob=1.0, seed=1))
        got = []
        b.on_datagram = lambda d, src: got.append(d)
        a.sendto(b"twice", (1, 5000))
        zero_testbed.sim.run(until=1 * SEC)
        assert got == [b"twice", b"twice"]
        assert zero_testbed.hosts[0].port.dup_frames == 1

    def test_flap_drops_and_counts(self, zero_testbed):
        a, b = self._udp_pair(zero_testbed)
        zero_testbed.set_egress_faults(0, LinkFlap([(0, 10 * MS)]))
        got = []
        b.on_datagram = lambda d, src: got.append(d)
        a.sendto(b"lost", (1, 5000))
        zero_testbed.sim.run(until=1 * SEC)
        assert got == []
        assert zero_testbed.hosts[0].port.drops_fault == 1

    def test_held_frames_arrive_later_and_reorder(self, zero_testbed):
        a, b = self._udp_pair(zero_testbed)
        # Hold exactly the first frame; a later send overtakes it.
        zero_testbed.set_egress_faults(0, Reorder(prob=1.0, hold_ns=1 * MS, seed=1))
        got = []
        b.on_datagram = lambda d, src: got.append((d, zero_testbed.sim.now))
        a.sendto(b"first", (1, 5000))

        def send_second():
            zero_testbed.set_egress_faults(0, None)  # unimpeded
            a.sendto(b"second", (1, 5000))

        zero_testbed.sim.schedule(100 * US, send_second)
        zero_testbed.sim.run(until=1 * SEC)
        assert [d for d, _ in got] == [b"second", b"first"]
        assert got[1][1] >= 1 * MS
        assert zero_testbed.hosts[0].port.held_frames == 1
