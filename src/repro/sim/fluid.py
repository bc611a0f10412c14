"""Hybrid fluid/packet fidelity tier — analytic advancement of bulk flows.

The paper's phenomena (ECN marking, incast loss, protection-mode
asymmetries) happen *near congestion events*; between them a long-lived
TCP flow on a quiescent path is analytically predictable. This module
exploits that: in ``fidelity="hybrid"`` mode, an established bulk flow
whose path is exclusively its own and whose bottleneck queue sits well
below the marking/drop threshold is *promoted* to fluid fidelity — its
cwnd growth, delivered bytes and queue contribution are computed in
closed form one RTT-round at a time, with **no packets simulated at
all** — and *demoted* back to packet fidelity the moment the model
predicts the standing queue would cross a guard band below the
threshold, a new flow shows up anywhere in the simulation, a congestion
event (RTO / fast retransmit / ECE cut) fires, or any real packet
arrives on one of its queues.

Correctness contract (enforced by ``repro smoke fluid`` and the armed
invariant checkers):

* **ledger consistency** — the fluid path creates and absorbs no
  packets, so the packet-conservation checker's ledger is untouched;
  queue counters are credited with *equal* arrivals and departures (and
  bytes), which keeps every counter equation of the queue-accounting
  checker valid, and the occupancy integrals receive the closed-form
  standing-queue contribution;
* **sequence-space consistency** — the sender is advanced with
  ``snd_una == snd_nxt`` (zero flight) and emits a ``tcp.cwnd`` trace
  sample per round, so the TCP checker's monotonicity and flight
  equations hold;
* **determinism** — promotion, per-round recurrence and demotion are
  pure functions of simulator state, so repeated hybrid runs are
  bit-identical;
* **packet-mode isolation** — with ``fidelity="packet"`` no manager is
  constructed and every hook reduces to a single attribute test, so
  packet-mode results are bit-identical to pre-fluid builds.

Promotion protocol (drain-then-promote): an eligible flow first enters a
*hold* — new transmissions stop while in-flight data drains normally
(the pipe keeps delivering, so the hold costs well under one RTT of
goodput). Once every byte is cumulatively acknowledged the flow carries
**zero** packets anywhere in the network, the receiver has no
out-of-order state and no delayed-ACK pending, and the fluid recurrence
starts from a clean slate. Demotion is the reverse: a *paced refill*
re-injects one segment per bottleneck serialization time until a full
window is out (never a window-sized burst, which would instantly
overflow the very queue whose quiescence we were modeling), then normal
ACK clocking resumes.

Per-round recurrence (all quantities derived from the sender's live
state; mirrors :mod:`repro.tcp.cc` exactly):

* ``w = min(cwnd, rwnd, remaining)``; ``segs = ceil(w / mss)``;
  ``acks = ceil(segs / delack_segments)``
* standing queue ``q = max(0, segs - BDP_pkts)`` at the bottleneck;
  round duration ``rtt = base_rtt + q * seg_wire * 8 / C``
* slow start: ``cwnd += w`` capped at ``ssthresh``; congestion
  avoidance: ``cwnd += mss^2 / cwnd`` per cumulative ACK
* DCTCP: ``alpha *= (1 - g)`` per round (a round is one window), with
  the per-window accumulators reset so demotion restarts them cleanly.

The model demotes *before* a round whose predicted transient occupancy
(standing queue, plus the full window's worth of burst in slow start)
would reach ``guard_band × threshold`` of the bottleneck queue — i.e.
the flow is back at packet fidelity strictly before the AQM would have
acted on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.errors import ConfigError
from repro.net.packet import IP_TCP_HEADER_BYTES, PURE_ACK_BYTES, Packet

__all__ = ["FluidParams", "FluidManager"]


@dataclass(frozen=True)
class FluidParams:
    """Policy knobs for the hybrid fidelity tier.

    Attributes
    ----------
    guard_band:
        Fraction of the bottleneck queue's marking/drop threshold the
        modeled occupancy may reach before the flow is demoted back to
        packet fidelity. Lower = more conservative (more packet time).
    min_flow_bytes:
        Flows with fewer remaining bytes than this never promote —
        short/RPC flows stay packet-level, as the paper's phenomena
        live there.
    cooldown_s:
        Quarantine after any congestion signal (ECE cut, fast
        retransmit, RTO) or demotion before the flow may promote again.
    eval_backoff_s:
        Minimum spacing between eligibility evaluations per flow (the
        full check walks paths and scans for competing flows).
    max_hops:
        Path-walk safety bound.
    """

    guard_band: float = 0.5
    min_flow_bytes: int = 128 * 1460
    cooldown_s: float = 0.010
    eval_backoff_s: float = 0.002
    max_hops: int = 16

    def validate(self) -> "FluidParams":
        """Raise :class:`ConfigError` on nonsensical values; return self."""
        if not (0.0 < self.guard_band <= 1.0):
            raise ConfigError(f"guard_band must be in (0, 1] ({self})")
        if self.min_flow_bytes <= 0:
            raise ConfigError(f"min_flow_bytes must be positive ({self})")
        if self.cooldown_s < 0 or self.eval_backoff_s < 0:
            raise ConfigError(f"times must be >= 0 ({self})")
        return self


class _Path:
    """Resolved static path of one flow (forward data + reverse ACKs)."""

    __slots__ = (
        "fwd_ports", "rev_ports", "queues", "port_ids",
        "bottleneck_rate", "bottleneck_queue", "seg_wire",
        "base_rtt", "data_oneway_s", "ack_oneway_s",
        "bdp_pkts", "guard_pkts", "refill_tick_s",
        "listener", "rstate",
    )


class _FlowState:
    """Per-sender fluid bookkeeping (mode machine)."""

    __slots__ = ("mode", "path", "next_eval", "cooldown_until",
                 "last_cuts", "round_handle", "refill_handle",
                 "refill_sent", "round_plan")

    def __init__(self) -> None:
        self.mode = "idle"  # idle -> hold -> fluid -> refill -> idle
        self.path: Optional[_Path] = None
        self.next_eval = 0.0
        self.cooldown_until = 0.0
        self.last_cuts = 0
        self.round_handle = None
        self.refill_handle = None
        self.refill_sent = 0
        self.round_plan = None


class FluidManager:
    """Owns promotion/demotion and the per-round fluid recurrence.

    Construct one per hybrid run *before any traffic* — senders created
    afterwards self-register through ``sim.fluid``. Packet-mode runs
    never construct one, so every endpoint hook is a no-op.

    Parameters
    ----------
    sim:
        The simulator; ``sim.fluid`` is set to this manager.
    network:
        The built :class:`~repro.net.network.Network` (for host lookup).
    params:
        Optional :class:`FluidParams` override.
    latency_credit:
        Optional ``credit(latency_s, n, data=...)`` callable (see
        :meth:`~repro.stats.collect.LatencyCollector.credit`) that
        receives the closed-form per-packet latencies of fluid rounds so
        the run's latency metrics stay comparable with packet mode.
    """

    def __init__(self, sim, network, params: Optional[FluidParams] = None,
                 latency_credit=None):
        self.sim = sim
        self.network = network
        self.params = (params if params is not None else FluidParams()).validate()
        self._latency_credit = latency_credit
        self._hosts = {h.node_id: h for h in network.hosts}
        self._states: Dict[object, _FlowState] = {}
        self._pressure_owner: Dict[int, object] = {}
        # Observability counters (land under manifest["fluid"]).
        self._adopted = 0
        self._promotions = 0
        self._demotions: Dict[str, int] = {}
        self._rounds = 0
        self._fluid_bytes = 0
        self._fluid_packets = 0
        self._fluid_completions = 0
        sim.fluid = self

    # -- registration --------------------------------------------------------

    def adopt(self, sender) -> None:
        """Register a new sender; any new flow demotes every fluid flow.

        Called from ``TcpSender.__init__`` *before* the SYN can be
        emitted, so the fluid flows are back at packet fidelity before
        the newcomer's first packet touches any queue.
        """
        for s, st in list(self._states.items()):
            if st.mode == "fluid":
                self._demote(s, st, "new_flow")
            elif st.mode == "hold":
                self._release(s, st)
        self._states[sender] = _FlowState()
        self._adopted += 1

    def on_flow_done(self, sender) -> None:
        """Sender completed or failed; drop all fluid state for it."""
        st = self._states.pop(sender, None)
        if st is None:
            return
        if st.round_handle is not None:
            st.round_handle.cancel()
            st.round_handle = None
        if st.refill_handle is not None:
            st.refill_handle.cancel()
            st.refill_handle = None
        self._clear_pressure(st)
        sender._fluid_wait = False

    # -- endpoint hooks ------------------------------------------------------

    def on_ack(self, sender) -> None:
        """Per-cumulative-ACK hook: drives the hold/promote machine."""
        st = self._states.get(sender)
        if st is None:
            return
        cuts = sender.stats.cwnd_cuts
        now = self.sim.now
        mode = st.mode
        if mode == "hold":
            if (cuts != st.last_cuts or sender.in_recovery
                    or sender.dup_acks):
                st.last_cuts = cuts
                st.cooldown_until = now + self.params.cooldown_s
                self._release(sender, st)
            elif sender.snd_una >= sender.snd_nxt:
                self._promote(sender, st)
            return
        if mode == "refill":
            if cuts != st.last_cuts or sender.in_recovery or sender.dup_acks:
                st.last_cuts = cuts
                st.cooldown_until = now + self.params.cooldown_s
                if st.refill_handle is not None:
                    st.refill_handle.cancel()
                    st.refill_handle = None
                self._release(sender, st)
            return
        if mode != "idle":
            return
        if cuts != st.last_cuts:
            # A congestion episode happened since we last looked.
            st.last_cuts = cuts
            st.cooldown_until = now + self.params.cooldown_s
            return
        if now < st.cooldown_until or now < st.next_eval:
            return
        if self._eligible(sender, st):
            st.mode = "hold"
            sender._fluid_wait = True
        else:
            st.next_eval = now + self.params.eval_backoff_s

    def on_congestion(self, sender) -> None:
        """RTO fired: abandon any hold/refill so recovery runs normally."""
        st = self._states.get(sender)
        if st is None:
            return
        st.last_cuts = sender.stats.cwnd_cuts
        st.cooldown_until = self.sim.now + self.params.cooldown_s
        mode = st.mode
        if mode == "refill" and st.refill_handle is not None:
            st.refill_handle.cancel()
            st.refill_handle = None
        if mode == "fluid":
            # Unreachable in normal operation (a fluid flow has no
            # packets, hence no timers), but stay safe.
            if st.round_handle is not None:
                st.round_handle.cancel()
                st.round_handle = None
            self._clear_pressure(st)
        if mode != "idle":
            self._release(sender, st)

    # -- eligibility ---------------------------------------------------------

    def _resolve_path(self, sender) -> Optional[_Path]:
        """Walk routing for both directions; None if not modelable."""
        from repro.tcp.endpoint import TcpListener

        dst_host = self._hosts.get(sender.dst)
        if dst_host is None:
            return None
        src_id = sender.host.node_id
        fwd = self._walk(sender.host, dst_host, Packet(
            src=src_id, sport=sender.sport,
            dst=sender.dst, dport=sender.dport))
        if fwd is None:
            return None
        rev = self._walk(dst_host, sender.host, Packet(
            src=sender.dst, sport=sender.dport,
            dst=src_id, dport=sender.sport))
        if rev is None:
            return None
        receiver = dst_host._receivers.get(sender.dport)
        listener = getattr(receiver, "__self__", None)
        if not isinstance(listener, TcpListener):
            return None
        rstate = listener.flows.get((src_id, sender.sport))
        if rstate is None:
            return None

        p = _Path()
        p.fwd_ports = tuple(fwd)
        p.rev_ports = tuple(rev)
        p.queues = tuple(port.qdisc for port in fwd + rev)
        p.port_ids = frozenset(id(port) for port in fwd + rev)
        p.seg_wire = sender._mss + IP_TCP_HEADER_BYTES
        rate = min(port.rate_bps for port in fwd)
        p.bottleneck_rate = rate
        for port in fwd:  # first min-rate hop: where bursts pile up
            if port.rate_bps == rate:
                p.bottleneck_queue = port.qdisc
                break
        p.data_oneway_s = sum(
            p.seg_wire * 8.0 / port.rate_bps + port.delay_s for port in fwd)
        p.ack_oneway_s = sum(
            PURE_ACK_BYTES * 8.0 / port.rate_bps + port.delay_s
            for port in rev)
        p.base_rtt = p.data_oneway_s + p.ack_oneway_s
        p.bdp_pkts = rate * p.base_rtt / 8.0 / p.seg_wire
        th = p.bottleneck_queue.fluid_threshold_packets(rate)
        p.guard_pkts = self.params.guard_band * th
        p.refill_tick_s = p.seg_wire * 8.0 / rate
        p.listener = listener
        p.rstate = rstate
        return p

    def _walk(self, from_host, to_host, probe):
        """Follow routing from ``from_host`` to ``to_host``; list of ports."""
        from repro.net.switch import Switch

        ports = []
        port = from_host.uplink
        for _ in range(self.params.max_hops):
            ports.append(port)
            peer = port.peer
            if peer is to_host:
                return ports
            if not isinstance(peer, Switch):
                return None
            if peer.ecmp_per_packet:
                # route_for would consume round-robin state; per-packet
                # spraying is un-modelable anyway (no static path).
                return None
            port = peer.route_for(probe)
            if port is None:
                return None
        return None

    def _eligible(self, sender, st: _FlowState) -> bool:
        p = self.params
        if (sender.state != "established" or sender.in_recovery
                or sender.dup_acks):
            return False
        if sender.cc.fluid_model is None:
            return False  # no analytic round law for this policy (CUBIC, …)
        if sender.nbytes - sender.snd_una < p.min_flow_bytes:
            return False
        path = st.path
        if path is None:
            path = self._resolve_path(sender)
            if path is None:
                return False
            st.path = path
        if path.guard_pkts < 2.0:
            return False  # threshold too shallow to ever model safely
        # Exclusive path: no other live flow may share any port, in
        # either direction (its data or ACKs would see our virtual
        # queue as empty).
        for other, ost in self._states.items():
            if other is sender or other.state in ("done", "failed"):
                continue
            opath = ost.path
            if opath is None:
                opath = self._resolve_path(other)
                if opath is None:
                    return False  # unknown competitor: stay conservative
                ost.path = opath
            if not path.port_ids.isdisjoint(opath.port_ids):
                return False
        rs = path.rstate
        if rs.ooo or rs.ece_latch or rs.ce_state:
            return False
        return True

    # -- promotion -----------------------------------------------------------

    def _promote(self, sender, st: _FlowState) -> None:
        """Hold drained (zero flight) — enter fluid fidelity."""
        path = st.path
        rs = path.rstate
        clean = (not rs.ooo and not rs.ece_latch and not rs.ce_state
                 and rs.rcv_nxt == sender.snd_una)
        if clean:
            for q in path.queues:
                if len(q):
                    clean = False
                    break
        if not clean:
            st.cooldown_until = self.sim.now + self.params.cooldown_s
            self._release(sender, st)
            return
        if rs.delack_handle is not None:
            rs.delack_handle.cancel()
            rs.delack_handle = None
        rs.segs_since_ack = 0
        sender._cancel_rto()
        st.mode = "fluid"
        self._promotions += 1
        for q in path.queues:
            # Any real packet arriving on the exclusive path is a
            # demotion trigger (qlen >= 1 right after its append).
            q._pressure_th = 1
            q._pressure_cb = self._on_pressure
            self._pressure_owner[id(q)] = sender
        self._schedule_round(sender, st)

    def _on_pressure(self, qdisc, now: float) -> None:
        owner = self._pressure_owner.get(id(qdisc))
        if owner is None:
            return
        st = self._states.get(owner)
        if st is not None and st.mode == "fluid":
            self._demote(owner, st, "pressure")

    def _clear_pressure(self, st: _FlowState) -> None:
        path = st.path
        if path is None:
            return
        for q in path.queues:
            if id(q) in self._pressure_owner:
                del self._pressure_owner[id(q)]
                q._pressure_th = float("inf")
                q._pressure_cb = None

    def _release(self, sender, st: _FlowState) -> None:
        """Back to packet fidelity bookkeeping (caller resumes sending)."""
        st.mode = "idle"
        st.next_eval = self.sim.now + self.params.eval_backoff_s
        sender._fluid_wait = False

    # -- the fluid recurrence ------------------------------------------------

    def _schedule_round(self, sender, st: _FlowState) -> None:
        """Plan one RTT round from live state, or demote if unsafe."""
        path = st.path
        cc = sender.cc
        mss = sender._mss
        remaining = sender.nbytes - sender.snd_una
        wnd = int(min(cc.cwnd, sender._rwnd))
        w = wnd if wnd < remaining else remaining
        if w <= 0:
            self._demote(sender, st, "window")
            return
        segs = -(-w // mss)
        q_pkts = segs - path.bdp_pkts
        if q_pkts < 0.0:
            q_pkts = 0.0
        slow_start = cc.cwnd < cc.ssthresh
        # Transient occupancy estimate: the standing queue, plus (in slow
        # start) the window's worth of burst the unpaced doubling injects
        # above the drain rate within the round.
        transient = q_pkts + (segs if slow_start else 1.0)
        if transient >= path.guard_pkts:
            self._demote(sender, st, "guard_band")
            return
        q_delay = q_pkts * path.seg_wire * 8.0 / path.bottleneck_rate
        rtt = path.base_rtt + q_delay
        delack = sender.config.delack_segments
        acks = -(-segs // delack) if delack > 1 else segs
        st.round_plan = (w, segs, acks, q_pkts, q_delay, slow_start, rtt)
        st.round_handle = self.sim.schedule(
            rtt, lambda: self._apply_round(sender))

    def _apply_round(self, sender) -> None:
        """Commit one planned round: sender, receiver, queues, latency."""
        st = self._states.get(sender)
        if st is None or st.mode != "fluid":
            return
        st.round_handle = None
        w, segs, acks, q_pkts, q_delay, slow_start, rtt = st.round_plan
        st.round_plan = None
        now = self.sim.now
        path = st.path
        cc = sender.cc
        mss = sender._mss

        # Sender sequence space: the whole window was sent and acked.
        una = sender.snd_una + w
        sender.snd_una = una
        sender.snd_nxt = una
        sender.stats.data_packets_sent += segs

        # Congestion-window law, mirroring repro.tcp.cc exactly.
        if slow_start:
            cc.cwnd += w
            if cc.cwnd > cc.ssthresh:
                cc.cwnd = cc.ssthresh
        else:
            mss_sq = float(mss * mss)
            for _ in range(acks):
                cc.cwnd += mss_sq / cc.cwnd
        if cc.fluid_model == "dctcp":
            # DCTCP: one round == one window with zero marked bytes.
            cc.alpha *= 1.0 - cc.g
            cc.reset_observation_window()

        # Receiver state advances in lockstep (in-order, no marks).
        rs = path.rstate
        rs.rcv_nxt = una
        rs.bytes_received = una
        rs.last_acked = una
        rs.data_packets += segs
        listener = path.listener
        if listener.on_progress is not None:
            listener.on_progress(rs.key, rs)

        # Queue counter credits: equal arrivals and departures keep every
        # counter equation valid; the bottleneck also gets the standing
        # queue's occupancy integral and sojourn-time contribution.
        wire_bytes = w + segs * IP_TCP_HEADER_BYTES
        ect = sender._ecn_negotiated
        bq = path.bottleneck_queue
        seg_wire = path.seg_wire
        for q in path.fwd_ports:
            qd = q.qdisc
            if qd is bq:
                qd.credit_fluid(segs, wire_bytes, delay_s=q_delay * segs,
                                occupancy_pkt_s=q_pkts * rtt,
                                occupancy_byte_s=q_pkts * seg_wire * rtt,
                                ect=ect)
            else:
                qd.credit_fluid(segs, wire_bytes, ect=ect)
        ack_bytes = acks * PURE_ACK_BYTES
        for q in path.rev_ports:
            q.qdisc.credit_fluid(acks, ack_bytes, ack=True)

        # Closed-form per-packet latencies for the run's latency metrics.
        lc = self._latency_credit
        if lc is not None:
            lc(path.data_oneway_s + q_delay, segs)
            lc(path.ack_oneway_s, acks, data=False)

        self._rounds += 1
        self._fluid_bytes += w
        self._fluid_packets += segs
        if sender._tracer is not None:
            sender._trace_cwnd("fluid")

        if una >= sender.nbytes:
            self._fluid_completions += 1
            self._clear_pressure(st)
            st.mode = "idle"
            sender._fluid_wait = False
            sender._complete()  # pops our state via on_flow_done
        else:
            self._schedule_round(sender, st)

    # -- demotion ------------------------------------------------------------

    def _demote(self, sender, st: _FlowState, reason: str) -> None:
        """Leave fluid fidelity and start the paced window refill."""
        if st.round_handle is not None:
            st.round_handle.cancel()
            st.round_handle = None
        st.round_plan = None
        self._clear_pressure(st)
        self._demotions[reason] = self._demotions.get(reason, 0) + 1
        st.cooldown_until = self.sim.now + self.params.cooldown_s
        st.last_cuts = sender.stats.cwnd_cuts
        st.mode = "refill"
        st.refill_sent = 0
        sender._arm_rto()
        self._refill_tick(sender)

    def _refill_tick(self, sender) -> None:
        """Send one segment per bottleneck serialization time.

        Refilling at (roughly) the drain rate rebuilds the flight
        without the window-sized burst a plain ``_try_send`` would
        inject into a queue whose whole limit may be smaller than cwnd.
        """
        st = self._states.get(sender)
        if st is None or st.mode != "refill":
            return
        st.refill_handle = None
        if sender.state != "established":
            self._release(sender, st)
            return
        wnd = int(min(sender.cc.cwnd, sender._rwnd))
        snd_nxt = sender.snd_nxt
        if (st.refill_sent >= wnd or snd_nxt >= sender.nbytes
                or snd_nxt - sender.snd_una >= wnd):
            self._release(sender, st)
            sender._try_send()
            return
        n = sender._send_segment(
            snd_nxt, retransmit=snd_nxt < sender._no_sample_below)
        if n <= 0:
            self._release(sender, st)
            sender._try_send()
            return
        sender.snd_nxt = snd_nxt + n
        st.refill_sent += n
        st.refill_handle = self.sim.schedule(
            st.path.refill_tick_s, lambda: self._refill_tick(sender))

    # -- reporting -----------------------------------------------------------

    def summary(self) -> Dict[str, object]:
        """JSON-serialisable block for ``manifest["fluid"]``."""
        return {
            "flows_adopted": self._adopted,
            "promotions": self._promotions,
            "demotions": dict(sorted(self._demotions.items())),
            "rounds": self._rounds,
            "fluid_bytes": self._fluid_bytes,
            "fluid_packets": self._fluid_packets,
            "fluid_completions": self._fluid_completions,
        }
