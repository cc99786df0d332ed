"""The Fleet output controller (paper Section 5).

Symmetric to the input controller: a round-robin addressing unit submits
write addresses ahead of time, and ``r`` burst registers are filled in
parallel from the PUs' narrow output buffers before their beats are pushed
onto the AXI write data channel in address order.

The addressing unit is *nonblocking* by default (the paper's choice):
PUs that have no full burst ready are skipped, because filtering
applications produce output at wildly different rates. The blocking
ablation waits on each PU in turn — the test suite and the ablation bench
show how skewed output rates stall it.

Each PU writes to its own region of the output buffer, so no output from
different PUs ever interleaves within a region (the paper's contiguous
per-PU output layout).
"""

from collections import deque


class _OutRegister:
    __slots__ = ("busy_until", "fill_end", "tag", "payload", "pushed",
                 "submit_cycle")

    def __init__(self):
        self.busy_until = 0
        self.fill_end = None
        self.tag = None
        self.payload = None
        self.pushed = False
        self.submit_cycle = 0  # when this burst's write address was issued


class OutputController:
    """Drains every PU's output stream into one DRAM channel."""

    #: Round-robin positions the addressing unit advances per cycle.
    SCAN_PER_CYCLE = 8

    def __init__(self, config, dram, pus, region_bases=None,
                 region_bytes=None, obs=None):
        self.config = config
        self.dram = dram
        self.pus = pus
        self._obs = obs  # ChannelObservation or None (hooks skipped)
        self.region_bases = region_bases or [0] * len(pus)
        self.bytes_written = [0] * len(pus)  # per-PU output cursor
        self._rr = 0
        self._registers = [
            _OutRegister() for _ in range(config.burst_registers)
        ]
        self._order = deque()  # registers in write-address order
        self._watched = deque()  # (register, cumulative-beat target)
        self._pushed_beats_total = 0
        self.bytes_accepted = 0

    # -- addressing + fill ---------------------------------------------------------
    def _eligible(self, idx, now):
        """Does PU ``idx`` have a burst (or final partial burst) to write?"""
        pu = self.pus[idx]
        available = pu.output_available(now)
        if available >= self.config.burst_bytes:
            return min(available, self.config.burst_bytes)
        if pu.output_finished(now) and available > 0:
            return available
        return None

    def submit_addresses(self, now):
        """Issue one write address and start filling a burst register;
        returns whether a write was submitted."""
        if not self.dram.write_addr_ready():
            return False
        register = self._free_register(now)
        if register is None:
            return False
        pus = self.pus
        n = len(pus)
        # The addressing unit checks PUs round-robin, a few per cycle (the
        # hardware checks one; allowing a small factor keeps the model from
        # under-serving very large PU counts).
        for _ in range(min(n, self.SCAN_PER_CYCLE)):
            idx = self._rr
            pu = pus[idx]
            # A PU whose every emitted byte is taken has none available
            # (the common case: sink PUs never emit).
            if pu.output_bytes_total != pu.output_taken:
                nbytes = self._eligible(idx, now)
                if nbytes is not None:
                    break
            if self.config.output_blocking and not self._skippable(idx, now):
                # Blocking ablation: wait for this PU, don't look further.
                return False
            self._rr = (self._rr + 1) % n
        else:
            return False
        pu = self.pus[idx]
        payload = pu.take_output(now, nbytes)
        beats = (nbytes + self.config.bus_bytes - 1) // self.config.bus_bytes
        addr = self.region_bases[idx] + self.bytes_written[idx]
        tag = (idx, nbytes, beats)
        self.dram.submit_write(addr, beats, tag=tag)
        self.bytes_written[idx] += nbytes
        self.bytes_accepted += nbytes
        port_bytes = self.config.port_width_bits // 8
        fill_cycles = (nbytes + port_bytes - 1) // port_bytes
        register.tag = tag
        register.fill_end = now + fill_cycles
        register.payload = payload
        register.pushed = False
        register.busy_until = None  # until its beats are transferred
        register.submit_cycle = now
        self._order.append(register)
        self._rr = (idx + 1) % len(self.pus)
        if self._obs is not None:
            self._obs.pu_output(idx, nbytes)
        return True

    def _skippable(self, idx, now):
        """In blocking mode, a PU is only skipped once it can produce no
        further output at all."""
        pu = self.pus[idx]
        return pu.output_finished(now) and pu.output_available(now) == 0

    def _free_register(self, now):
        for register in self._registers:
            if register.tag is None and (
                register.busy_until is None or register.busy_until <= now
            ):
                return register
        return None

    # -- data push ------------------------------------------------------------------------
    def push_data(self, now):
        """Once the head register (in address order) has finished filling,
        hand its beats to the AXI write data channel; returns whether any
        register's beats were pushed."""
        pushed_any = False
        while self._order:
            register = self._order[0]
            if register.pushed or register.fill_end > now:
                return pushed_any
            idx, nbytes, beats = register.tag
            for beat in range(beats):
                payload = None
                if register.payload is not None:
                    lo = beat * self.config.bus_bytes
                    payload = register.payload[lo:lo + self.config.bus_bytes]
                self.dram.push_write_beat(register.tag, payload)
            register.pushed = True
            # The register stays occupied until the bus has transferred
            # its beats; the DRAM consumes write data in order, so a
            # cumulative beat count identifies when that happens.
            self._pushed_beats_total += beats
            self._watched.append((register, self._pushed_beats_total))
            self._order.popleft()
            pushed_any = True
        return pushed_any

    def release(self, now):
        """Free registers whose beats the bus has transferred; returns
        whether any register was released."""
        released = False
        while self._watched and self.dram.write_beats >= self._watched[0][1]:
            register, _ = self._watched.popleft()
            if self._obs is not None:
                idx, nbytes, _beats = register.tag
                self._obs.write_burst_done(
                    idx, nbytes, register.submit_cycle, now
                )
            register.tag = None
            register.payload = None
            register.fill_end = None
            register.busy_until = now
            released = True
        return released

    # -- event-driven support -------------------------------------------------
    def idle_jump_info(self, now):
        """Assuming :meth:`submit_addresses` just did nothing at ``now``,
        how far does ``_rr`` advance on each idle cycle?

        Unlike the input controller, the output scan mutates state even
        when it submits nothing — it walks the round-robin pointer past
        ineligible PUs — so an idle cycle is not state-free and skipping
        it must reproduce the walk. Returns the per-cycle ``_rr`` delta
        (constant across the idle window), or ``None`` when idle cycles
        are not uniform and fast-forwarding is unsafe.
        """
        if not self.dram.write_addr_ready() or self._free_register(
            now
        ) is None:
            return 0  # the scan does not run at all
        n = len(self.pus)
        # The scan runs every cycle. If any PU anywhere is eligible, a
        # later scan position could reach it mid-window and submit — the
        # window is not provably idle.
        for idx, pu in enumerate(self.pus):
            if pu.output_bytes_total == pu.output_taken:
                continue  # no output pending anywhere, now or later
            if self._eligible(idx, now) is not None:
                return None
        if self.config.output_blocking:
            if self._skippable(self._rr, now):
                # Still stepping past skippable PUs; the per-cycle walk
                # length changes as it goes, so don't jump yet.
                return None
            return 0  # parked at a non-skippable PU
        return min(n, self.SCAN_PER_CYCLE)

    def next_event_after(self, now):
        """Earliest cycle after ``now`` at which this controller's (or its
        PUs') time-gated conditions can change, or ``None``.

        Register ``fill_end``/``busy_until`` gate pushing and reuse; a
        PU's ``free_at`` gates ``output_finished`` and each output
        chunk's availability time gates ``output_available``.
        """
        candidates = []
        for register in self._registers:
            if register.busy_until is not None and register.busy_until > now:
                candidates.append(register.busy_until)
            if register.fill_end is not None and register.fill_end > now:
                candidates.append(register.fill_end)
        for pu in self.pus:
            if pu.free_at > now:
                candidates.append(pu.free_at)
            if pu.output_bytes_total == pu.output_taken:
                continue  # no chunk left, so none yet to appear
            chunk_at = pu.next_output_at(now)
            if chunk_at is not None:
                candidates.append(chunk_at)
        return min(candidates) if candidates else None

    @property
    def finished(self):
        """All pushed data transferred and no register still occupied."""
        return not self._order and not self._watched
