"""Input/output controller behaviour: round-robin, skipping, backpressure,
and the blocking/nonblocking addressing modes."""

from repro.memory import (
    ChannelSystem,
    EchoPu,
    MemoryConfig,
    RatePu,
    SinkPu,
)


def quiet(**overrides):
    base = dict(refresh_interval=0, bank_gap_every=0)
    base.update(overrides)
    return MemoryConfig().replace(**base)


class TestInputController:
    def test_all_streams_fully_delivered(self):
        cfg = quiet()
        pus = [SinkPu(1000 + 64 * i) for i in range(5)]
        system = ChannelSystem(cfg, pus)
        system.run(max_cycles=100_000)
        for pu in pus:
            assert pu.input_remaining == 0

    def test_round_robin_is_fair(self):
        cfg = quiet()
        pus = [SinkPu(1 << 14) for _ in range(8)]
        system = ChannelSystem(cfg, pus)
        system.run_for(2000)
        delivered = [pu.input_delivered for pu in pus]
        assert max(delivered) - min(delivered) <= cfg.burst_bytes

    def test_finished_streams_skipped(self):
        cfg = quiet()
        # one tiny stream among big ones: the controller must keep
        # feeding the others after it finishes
        pus = [SinkPu(128)] + [SinkPu(1 << 14) for _ in range(3)]
        system = ChannelSystem(cfg, pus)
        system.run_for(3000)
        assert pus[0].input_remaining == 0
        assert all(pu.input_delivered > 1024 for pu in pus[1:])

    def test_blocking_addressing_waits_on_slow_pu(self):
        # The paper's default is blocking because PUs "generally process
        # input at roughly the same rate"; when they don't, the blocking
        # unit throttles everyone to the slowest PU.
        cfg = quiet(input_blocking=True)
        pus = [RatePu(1 << 14, vcycles_per_token=64)] + [
            SinkPu(1 << 14) for _ in range(7)
        ]
        system = ChannelSystem(cfg, pus)
        system.run_for(8000)
        fast = min(pu.input_delivered for pu in pus[1:])
        assert fast <= pus[0].input_delivered + 2 * cfg.burst_bytes

    def test_nonblocking_addressing_isolates_slow_pu(self):
        cfg = quiet(input_blocking=False)
        pus = [RatePu(1 << 14, vcycles_per_token=64)] + [
            SinkPu(1 << 14) for _ in range(7)
        ]
        system = ChannelSystem(cfg, pus)
        system.run_for(8000)
        fast = min(pu.input_delivered for pu in pus[1:])
        assert fast > 2 * pus[0].input_delivered

    def test_sync_addressing_serializes(self):
        sync = quiet(burst_registers=1, async_addressing=False)
        async_ = quiet(burst_registers=1)
        results = {}
        for name, cfg in (("sync", sync), ("async", async_)):
            pus = [SinkPu(1 << 14) for _ in range(4)]
            system = ChannelSystem(cfg, pus)
            stats = system.run_for(4000)
            results[name] = stats.bytes_in
        assert results["async"] > 1.5 * results["sync"]

    def test_burst_registers_scale_throughput(self):
        results = {}
        for r in (1, 16):
            cfg = quiet(burst_registers=r)
            pus = [SinkPu(1 << 16) for _ in range(32)]
            system = ChannelSystem(cfg, pus)
            stats = system.run_for(4000)
            results[r] = stats.bytes_in
        assert results[16] > 8 * results[1]


class TestOutputController:
    def test_echo_outputs_everything(self):
        cfg = quiet()
        pus = [EchoPu(3000) for _ in range(4)]
        system = ChannelSystem(cfg, pus)
        stats = system.run(max_cycles=100_000)
        assert stats.bytes_out == 4 * 3000

    def test_partial_final_burst_flushed(self):
        cfg = quiet()
        pus = [EchoPu(100)]  # under one burst
        system = ChannelSystem(cfg, pus)
        stats = system.run(max_cycles=50_000)
        assert stats.bytes_out == 100

    def test_per_pu_output_regions_do_not_interleave(self):
        cfg = quiet()
        n, size = 4, 600
        data = bytearray(n * size + n * 1024)
        bases, out_bases = [], []
        offset = 0
        streams = []
        for i in range(n):
            stream = bytes([i + 1]) * size
            streams.append(stream)
            bases.append(offset)
            data[offset:offset + size] = stream
            offset += size
        for i in range(n):
            out_bases.append(offset)
            offset += 1024
        pus = [EchoPu(size) for _ in range(n)]
        system = ChannelSystem(cfg, pus, data=data, stream_bases=bases,
                               out_bases=out_bases)
        system.run(max_cycles=100_000)
        for i in range(n):
            region = bytes(data[out_bases[i]:out_bases[i] + size])
            assert region == streams[i]

    def test_nonblocking_skips_filtering_pus(self):
        # One PU produces no output; nonblocking addressing must still
        # drain the others promptly.
        cfg = quiet(output_blocking=False)
        pus = [SinkPu(1 << 14)] + [EchoPu(1 << 14) for _ in range(3)]
        system = ChannelSystem(cfg, pus)
        system.run_for(4000)
        assert sum(pu.output_taken for pu in pus[1:]) > 3000

    def test_blocking_stalls_on_skewed_output(self):
        # The paper's rationale for nonblocking output addressing: with
        # one filter-like PU, blocking mode throttles everyone.
        results = {}
        for blocking in (False, True):
            cfg = quiet(output_blocking=blocking)
            pus = [
                RatePu(1 << 14, vcycles_per_token=1,
                       output_ratio=0.001)
            ] + [EchoPu(1 << 14) for _ in range(3)]
            system = ChannelSystem(cfg, pus)
            system.run_for(6000)
            results[blocking] = sum(pu.output_taken for pu in pus)
        assert results[False] > 2 * results[True]

    def test_scan_skips_only_pus_with_nothing_pending(self):
        # The addressing scan passes over a PU whose emitted bytes are
        # all taken without asking it; such a PU must be ineligible.
        cfg = quiet()
        pus = [
            SinkPu(1 << 12),
            EchoPu(1 << 12),
            RatePu(1 << 12, vcycles_per_token=2, output_ratio=0.3),
            EchoPu(100),
        ]
        system = ChannelSystem(cfg, pus)
        oc = system.output_controller
        skipped = 0
        while not system.drained() and system.cycle < 20_000:
            now = system.cycle
            for idx, pu in enumerate(pus):
                if pu.output_bytes_total == pu.output_taken:
                    skipped += 1
                    assert oc._eligible(idx, now) is None
            system.step()
        assert system.drained()
        assert skipped
