//! The RNIC device model: ties the QP state machines, the ETS scheduler,
//! DCQCN and the quirk models together behind a frames-in/actions-out
//! interface.
//!
//! [`Rnic`] is deliberately *not* a simulation node: it is a pure state
//! machine driven by `on_frame` / `on_timer` / `post_send`, returning
//! [`Action`]s (frames to emit, timers to arm, completions to deliver).
//! `lumina-gen` adapts it onto the discrete-event engine; unit and property
//! tests drive it directly with hand-built timelines.

use crate::counters::Counters;
use crate::dcqcn::{DcqcnParams, NotificationPoint, ReactionPoint};
use crate::ets::{EtsConfig, EtsScheduler, TxCandidate};
use crate::profile::DeviceProfile;
use crate::qp::{Qp, QpConfig, QpState, ReadRespJob, RecvProgress};
use crate::quirks;
use crate::slab::QpSlab;
use crate::timeout::TimeoutPolicy;
use crate::verbs::{Completion, CompletionStatus, Verb, WorkRequest};
use lumina_packet::Frame;
use lumina_packet::aeth::AethSyndrome;
use lumina_packet::builder::{ack_frame, cnp_frame, nack_frame, DataPacketBuilder};
use lumina_packet::frame::{icrc_check, RoceFrame};
use lumina_packet::opcode::{read_response_opcode, send_opcode, write_opcode, Opcode};
use lumina_packet::reth::Reth;
use lumina_packet::{Aeth, Ecn, MacAddr};
use lumina_sim::SimTime;
use lumina_telemetry::{tev, Telemetry};
use std::collections::VecDeque;

/// Effects the device asks its host to carry out.
#[derive(Debug, Clone)]
pub enum Action {
    /// Put a frame on the wire now.
    Emit(Frame),
    /// Arm a timer; the token comes back through [`Rnic::on_timer`].
    ArmTimer {
        /// Absolute firing time.
        at: SimTime,
        /// Opaque token.
        token: u64,
    },
    /// Deliver a completion to the application.
    Complete(Completion),
}

/// Timer token encoding: `kind << 56 | qpn << 32 | extra`.
pub mod token {
    /// Egress scheduler wheel tick.
    pub const TX_WHEEL: u8 = 1;
    /// Retransmission timeout (extra = epoch).
    pub const TIMEOUT: u8 = 2;
    /// Responder NACK generation delay elapsed.
    pub const NACK_GEN: u8 = 3;
    /// Requester NACK reaction delay elapsed.
    pub const NACK_REACT: u8 = 4;
    /// Requester read slow path (implied NAK) elapsed.
    pub const READ_OOO: u8 = 5;
    /// Responder read-retransmission reaction delay elapsed.
    pub const READ_REACT: u8 = 6;
    /// DCQCN alpha-update timer (extra = epoch).
    pub const DCQCN_ALPHA: u8 = 7;
    /// DCQCN rate-increase timer (extra = epoch).
    pub const DCQCN_RATE: u8 = 8;
    /// APM slow-path service completion.
    pub const APM_SERVICE: u8 = 9;

    /// Pack a token.
    pub fn pack(kind: u8, qpn: u32, extra: u32) -> u64 {
        debug_assert!(qpn < (1 << 24));
        (kind as u64) << 56 | (qpn as u64) << 32 | extra as u64
    }

    /// Unpack a token into `(kind, qpn, extra)`.
    pub fn unpack(t: u64) -> (u8, u32, u32) {
        ((t >> 56) as u8, ((t >> 32) & 0xff_ffff) as u32, t as u32)
    }
}

/// The RNIC device model.
pub struct Rnic {
    /// Behavioral profile (which NIC this is).
    pub profile: DeviceProfile,
    /// Hardware counters.
    pub counters: Counters,
    /// DCQCN parameters shared by all QPs of this device.
    pub dcqcn_params: DcqcnParams,
    local_mac: MacAddr,
    /// QPN-sorted QPs with the active bitset the TX scheduler walks.
    qps: QpSlab,
    np: NotificationPoint,
    ets: EtsScheduler,
    port_free: SimTime,
    tx_armed_at: Option<SimTime>,
    rr_cursor: usize,
    /// Read-recovery slow-path engine (the CX4 Lx noisy-neighbor model):
    /// recoveries in flight (running + queued).
    pending_recoveries: usize,
    /// Per-context next-free times; recoveries beyond the pool queue here.
    recovery_slots: Vec<SimTime>,
    /// Once the context pool overflows, the whole RX pipeline stays
    /// stalled until every pending recovery drains (the wedge behind the
    /// §6.2.2 collapse).
    stall_wedged: bool,
    apm_queue: VecDeque<Frame>,
    apm_busy: bool,
    next_qpn: u32,
    /// Telemetry sink (disabled until the host adapter wires one in).
    tel: Telemetry,
    /// Simulation node id this device reports under.
    tel_node: u32,
    /// Misbehavior plane (absent by default: a well-behaved device
    /// consults no RNG on any emission path). See [`crate::quirks`].
    pub(crate) quirks: Option<crate::quirks::QuirkPlane>,
}

/// Chainable constructor for a fully configured [`Rnic`]: telemetry and
/// the misbehavior plane are injected at creation, so a built device never
/// needs post-hoc mutation from its host node.
pub struct RnicBuilder {
    rnic: Rnic,
}

impl RnicBuilder {
    /// Attach a telemetry sink; the device journals its decision points
    /// (CNPs, timeouts, Go-back-N rollbacks, retransmissions) under
    /// `node`, the engine node id the device will be registered as.
    pub fn telemetry(mut self, tel: Telemetry, node: u32) -> Self {
        self.rnic.tel = tel;
        self.rnic.tel_node = node;
        self
    }

    /// Attach a misbehavior plane (see [`crate::quirks`]). Without one, a
    /// device never consults an RNG on any emission path.
    pub fn quirks(mut self, plane: crate::quirks::QuirkPlane) -> Self {
        self.rnic.quirks = Some(plane);
        self
    }

    /// Finish the device.
    pub fn build(self) -> Rnic {
        self.rnic
    }
}

impl Rnic {
    /// Build a device from a profile and ETS configuration. The profile's
    /// work-conservation bug overrides the configuration (a buggy NIC
    /// cannot be configured into correctness).
    pub fn new(profile: DeviceProfile, mut ets_cfg: EtsConfig, local_mac: MacAddr) -> Rnic {
        ets_cfg.work_conserving = ets_cfg.work_conserving && profile.ets_work_conserving;
        let ets = EtsScheduler::new(ets_cfg, profile.port_bandwidth, 4096.0);
        let recovery_slots = vec![
            SimTime::ZERO;
            profile
                .noisy_neighbor
                .as_ref()
                .map(|m| m.recovery_contexts)
                .unwrap_or(0)
        ];
        let dcqcn_params = profile.dcqcn.clone();
        Rnic {
            profile,
            counters: Counters::default(),
            dcqcn_params,
            local_mac,
            qps: QpSlab::default(),
            np: NotificationPoint::default(),
            ets,
            port_free: SimTime::ZERO,
            tx_armed_at: None,
            rr_cursor: 0,
            pending_recoveries: 0,
            recovery_slots,
            stall_wedged: false,
            apm_queue: VecDeque::new(),
            apm_busy: false,
            next_qpn: 0,
            tel: Telemetry::disabled(),
            tel_node: 0,
            quirks: None,
        }
    }

    /// Start building a fully configured device: profile + ETS first, then
    /// optional telemetry sink and misbehavior plane, fixed at creation.
    /// Replaces the old post-hoc `set_telemetry` mutation path.
    pub fn builder(profile: DeviceProfile, ets_cfg: EtsConfig, local_mac: MacAddr) -> RnicBuilder {
        RnicBuilder {
            rnic: Rnic::new(profile, ets_cfg, local_mac),
        }
    }

    /// The attached telemetry sink (disabled by default).
    pub fn telemetry(&self) -> &Telemetry {
        &self.tel
    }

    /// Allocate a fresh QPN for this device, randomized the way real RNICs
    /// randomize QPNs at runtime (§3.2). Deterministic given the RNG.
    pub fn alloc_qpn(&mut self, rng: &mut lumina_sim::SimRng) -> u32 {
        // Randomize the high bits, keep a serial low part for uniqueness.
        let qpn = (rng.bits24() & 0xffff00) | (self.next_qpn & 0xff);
        self.next_qpn += 1;
        qpn
    }

    /// Install a fully configured QP.
    pub fn create_qp(&mut self, cfg: QpConfig) {
        let qpn = cfg.local.qpn;
        let mut qp = Qp::new(cfg);
        if qp.cfg.dcqcn_rp {
            qp.rp = Some(ReactionPoint::new(
                self.profile.port_bandwidth,
                self.dcqcn_params.clone(),
            ));
        }
        assert!(self.qps.insert(qpn, qp), "duplicate QPN {qpn:#x}");
    }

    /// Borrow a QP (tests, metrics).
    pub fn qp(&self, qpn: u32) -> Option<&Qp> {
        self.qps.get(qpn)
    }

    /// Mutably borrow a QP (test setup). Marks the QP active, so work
    /// given to it here is seen by the transmit scheduler.
    pub fn qp_mut(&mut self, qpn: u32) -> Option<&mut Qp> {
        self.qps.get_mut(qpn)
    }

    /// All local QPNs.
    pub fn qpns(&self) -> Vec<u32> {
        self.qps.qpns().to_vec()
    }

    /// QP slots visited by transmit scans so far: a host-independent
    /// measure of scheduling work. Deliberately not in [`Counters`], so
    /// reports do not depend on how the scheduler finds its candidates.
    pub fn tx_scan_visits(&self) -> u64 {
        self.qps.scan_visits()
    }

    /// Post a send-queue work request.
    pub fn post_send(&mut self, qpn: u32, wr: WorkRequest, now: SimTime) -> Vec<Action> {
        let mut actions = Vec::new();
        let Some(qp) = self.qps.get_mut(qpn) else {
            panic!("post_send on unknown QP {qpn:#x}");
        };
        if qp.state == QpState::Error {
            actions.push(Action::Complete(Completion {
                wr_id: wr.wr_id,
                qpn,
                status: CompletionStatus::WrFlushed,
                time: now,
                is_recv: false,
                len: wr.len,
            }));
            return actions;
        }
        qp.push_wqe(wr);
        self.arm_timeout_if_needed(qpn, now, &mut actions);
        self.tx_kick(now, &mut actions);
        actions
    }

    /// Post a receive WQE (Send/Recv traffic).
    pub fn post_recv(&mut self, qpn: u32, wr_id: u64, len: u32) {
        self.qps
            .get_mut(qpn)
            .expect("post_recv on unknown QP")
            .recv_queue
            .push_back((wr_id, len));
    }

    /// True while the shared pipeline is stalled (CX4 Lx noisy-neighbor
    /// model, §6.2.2): the recovery-context pool overflowed and has not
    /// fully drained yet.
    pub fn pipeline_stalled(&self) -> bool {
        self.stall_wedged
    }

    /// Admit one read-recovery into the slow-path engine. Returns the time
    /// its processing completes (when the re-read request is emitted).
    /// On devices with the shared-context model, recoveries are serviced
    /// by a fixed pool of contexts; overflowing the pool wedges the RX
    /// pipeline until all pending recoveries drain.
    fn enter_read_recovery(&mut self, now: SimTime) -> SimTime {
        let gen = self.profile.nack_gen_read;
        if self.recovery_slots.is_empty() {
            return now + gen;
        }
        self.pending_recoveries += 1;
        if self.pending_recoveries > self.recovery_slots.len() {
            self.stall_wedged = true;
        }
        let mut idx = 0;
        for i in 1..self.recovery_slots.len() {
            if self.recovery_slots[i] < self.recovery_slots[idx] {
                idx = i;
            }
        }
        let start = self.recovery_slots[idx].max(now);
        let fire = start + gen;
        self.recovery_slots[idx] = fire;
        fire
    }

    fn read_recovery_done(&mut self) {
        if !self.recovery_slots.is_empty() {
            self.pending_recoveries = self.pending_recoveries.saturating_sub(1);
            if self.pending_recoveries == 0 {
                self.stall_wedged = false;
            }
        }
    }

    // ------------------------------------------------------------------
    // RX path
    // ------------------------------------------------------------------

    /// A frame arrived from the wire.
    pub fn on_frame(&mut self, raw: Frame, now: SimTime) -> Vec<Action> {
        let mut actions = Vec::new();
        self.counters.rx_packets += 1;

        if self.pipeline_stalled() {
            self.counters.rx_discards_phy += 1;
            return actions;
        }

        let Ok(frame) = RoceFrame::parse_frame(&raw) else {
            // Not RoCE or malformed; a real NIC would hand it to the host
            // stack. We drop it.
            return actions;
        };
        if !icrc_check(&raw) {
            self.counters.rx_icrc_errors += 1;
            return actions;
        }

        // APM slow path (§6.2.3): request packets carrying MigReq = 0 on an
        // unresolved connection queue behind a slow service loop; overflow
        // is discarded.
        if let Some(apm) = self
            .profile
            .apm_slowpath_on_migreq0
            .as_ref()
            .filter(|_| !frame.bth.mig_req && frame.bth.opcode.is_request())
        {
            let unresolved = self
                .qps
                .get(frame.bth.dest_qp)
                .map(|qp| !qp.apm_resolved)
                .unwrap_or(false);
            if unresolved {
                if self.apm_queue.len() >= apm.queue_capacity {
                    self.counters.rx_discards_phy += 1;
                } else {
                    self.apm_queue.push_back(raw);
                    if !self.apm_busy {
                        self.apm_busy = true;
                        actions.push(Action::ArmTimer {
                            at: now + apm.service_time,
                            token: token::pack(token::APM_SERVICE, 0, 0),
                        });
                    }
                }
                return actions;
            }
        }

        self.process_frame(frame, now, &mut actions);
        actions
    }

    fn process_frame(&mut self, frame: RoceFrame, now: SimTime, actions: &mut Vec<Action>) {
        let qpn = frame.bth.dest_qp;
        if !self.qps.contains(qpn) {
            return; // unknown QP: silently dropped
        }

        // ECN: any CE-marked data packet makes this device a DCQCN
        // notification point for the flow.
        if frame.ipv4.ecn.is_ce() && frame.bth.opcode.is_data() {
            self.counters.np_ecn_marked_roce_packets += 1;
            self.maybe_send_cnp(qpn, &frame, now, actions);
        }

        // Spurious-CNP quirk: congestion-notify on data that carries no
        // CE mark at all.
        if frame.bth.opcode.is_data() && self.quirks.is_some() {
            let fire = self
                .quirks
                .as_mut()
                .is_some_and(quirks::QuirkPlane::spurious_cnp);
            if fire {
                self.emit_unsolicited_cnp(qpn, now, actions);
            }
        }

        match frame.bth.opcode {
            Opcode::Cnp => self.rx_cnp(qpn, now, actions),
            op if op.is_request() => self.responder_rx(qpn, &frame, now, actions),
            op if op.is_response() => self.requester_rx(qpn, &frame, now, actions),
            _ => {}
        }
        self.tx_kick(now, actions);
    }

    fn maybe_send_cnp(
        &mut self,
        qpn: u32,
        frame: &RoceFrame,
        now: SimTime,
        actions: &mut Vec<Action>,
    ) {
        let qp = &self.qps[qpn];
        if !qp.cfg.dcqcn_np {
            return;
        }
        let interval =
            NotificationPoint::effective_interval(&self.profile, qp.cfg.min_time_between_cnps);
        let key = NotificationPoint::limiter_key(self.profile.cnp_mode, frame.ipv4.src, qpn);
        if self.np.on_ce_packet(key, now, interval) {
            // Suppressed-CNP quirk: the limiter approved this CNP, the
            // device eats it anyway. Neither wire nor counter sees it.
            if let Some(q) = self.quirks.as_mut() {
                if q.suppress_cnp() {
                    return;
                }
            }
            self.counters.record_cnp_sent(&self.profile.counter_bugs);
            tev!(self.tel, now.as_nanos(), self.tel_node, "rnic", "cnp.tx", qpn = qpn);
            let qp = &self.qps[qpn];
            let mut cnp = cnp_frame(qp.cfg.local.ip, qp.cfg.remote.ip, qp.cfg.remote.qpn);
            cnp.eth.src = self.local_mac;
            cnp.eth.dst = qp.cfg.remote_mac;
            cnp.udp.src_port = qp.cfg.udp_src_port;
            self.emit_ctrl(cnp, actions);
        }
    }

    /// Quirk path: a CNP no CE mark asked for. Counted like a real one
    /// so the device's counters stay consistent with its wire behavior
    /// — the *protocol* is what misbehaves here, not the bookkeeping.
    fn emit_unsolicited_cnp(&mut self, qpn: u32, now: SimTime, actions: &mut Vec<Action>) {
        self.counters.record_cnp_sent(&self.profile.counter_bugs);
        tev!(self.tel, now.as_nanos(), self.tel_node, "rnic", "cnp.tx", qpn = qpn);
        let qp = &self.qps[qpn];
        let mut cnp = cnp_frame(qp.cfg.local.ip, qp.cfg.remote.ip, qp.cfg.remote.qpn);
        cnp.eth.src = self.local_mac;
        cnp.eth.dst = qp.cfg.remote_mac;
        cnp.udp.src_port = qp.cfg.udp_src_port;
        self.emit_ctrl(cnp, actions);
    }

    fn rx_cnp(&mut self, qpn: u32, now: SimTime, actions: &mut Vec<Action>) {
        self.counters.rp_cnp_handled += 1;
        tev!(self.tel, now.as_nanos(), self.tel_node, "rnic", "cnp.rx", qpn = qpn);
        let qp = self.qps.get_mut(qpn).unwrap();
        if let Some(rp) = qp.rp.as_mut() {
            rp.on_cnp();
            if !qp.dcqcn_timers_armed {
                qp.dcqcn_timers_armed = true;
                qp.dcqcn_timer_epoch = qp.dcqcn_timer_epoch.wrapping_add(1);
                let e = qp.dcqcn_timer_epoch;
                actions.push(Action::ArmTimer {
                    at: now + self.dcqcn_params.alpha_timer,
                    token: token::pack(token::DCQCN_ALPHA, qpn, e),
                });
                actions.push(Action::ArmTimer {
                    at: now + self.dcqcn_params.rate_timer,
                    token: token::pack(token::DCQCN_RATE, qpn, e),
                });
            }
        }
    }

    // ---- Responder ----

    fn responder_rx(
        &mut self,
        qpn: u32,
        frame: &RoceFrame,
        now: SimTime,
        actions: &mut Vec<Action>,
    ) {
        let qp = self.qps.get_mut(qpn).unwrap();
        if qp.state == QpState::Error {
            return;
        }
        let lin = qp.remote_lin_from_wire(qp.epsn_lin, frame.bth.psn);
        let epsn = qp.epsn_lin as i64;

        // New-round detection (the responder-side mirror of the injector's
        // ITER rule): an arriving PSN not larger than the last arrival
        // means the sender went back — the current out-of-sequence episode
        // is over, and continued OOO deserves a fresh NACK.
        if frame.bth.opcode.is_data() {
            if let Some(last) = qp.resp_last_arrived {
                if lin <= last as i64 {
                    qp.nack_state = false;
                }
            }
            if lin >= 0 {
                qp.resp_last_arrived = Some(lin as u64);
            }
        }

        if lin == epsn {
            qp.nack_state = false;
            let op = frame.bth.opcode;
            match op {
                Opcode::RdmaReadRequest => {
                    let dma_len = frame.ext.reth.map(|r| r.dma_len).unwrap_or(0);
                    let npkts = qp.cfg.packets_for(dma_len) as u64;
                    let base = qp.epsn_lin;
                    qp.epsn_lin += npkts;
                    qp.msn = qp.msn.wrapping_add(1) & 0xff_ffff;
                    qp.read_jobs.push_back(ReadRespJob {
                        next_lin: base,
                        end_lin: base + npkts,
                        msg_base_lin: base,
                        msg_end_lin: base + npkts,
                        msg_len: dma_len,
                    });
                }
                op2 if op2.has_payload() => {
                    qp.epsn_lin += 1;
                    self.counters.rx_bytes += frame.payload.len() as u64;
                    let is_send = matches!(
                        op2,
                        Opcode::SendFirst
                            | Opcode::SendMiddle
                            | Opcode::SendLast
                            | Opcode::SendLastImm
                            | Opcode::SendOnly
                            | Opcode::SendOnlyImm
                    );
                    if is_send {
                        if op2.is_first() && qp.recv_progress.is_none() {
                            if let Some((wr_id, _len)) = qp.recv_queue.pop_front() {
                                qp.recv_progress = Some(RecvProgress { bytes: 0, wr_id });
                            } else {
                                // No receive posted: a real responder sends
                                // RNR NAK; the traffic generator always
                                // pre-posts, so just account it.
                                qp.recv_progress = Some(RecvProgress {
                                    bytes: 0,
                                    wr_id: u64::MAX,
                                });
                            }
                        }
                        if let Some(p) = qp.recv_progress.as_mut() {
                            p.bytes += frame.payload.len() as u32;
                        }
                    }
                    if op2.is_last() {
                        qp.msn = qp.msn.wrapping_add(1) & 0xff_ffff;
                        if is_send {
                            if let Some(p) = qp.recv_progress.take() {
                                if p.wr_id != u64::MAX {
                                    actions.push(Action::Complete(Completion {
                                        wr_id: p.wr_id,
                                        qpn,
                                        status: CompletionStatus::Success,
                                        time: now,
                                        is_recv: true,
                                        len: p.bytes,
                                    }));
                                }
                            }
                        }
                    }
                    if op2.is_last() || frame.bth.ack_req {
                        self.emit_ack_for(qpn, lin as u64, actions);
                    }
                }
                _ => {}
            }
        } else if lin > epsn {
            // Out-of-order arrival: Go-back-N NACK, once per episode.
            self.counters.out_of_sequence += 1;
            if !qp.nack_state {
                qp.nack_state = true;
                qp.nack_scheduled = true;
                actions.push(Action::ArmTimer {
                    at: now + self.profile.nack_gen_write,
                    token: token::pack(token::NACK_GEN, qpn, 0),
                });
            }
        } else {
            // Duplicate.
            self.counters.duplicate_request += 1;
            if frame.bth.opcode == Opcode::RdmaReadRequest {
                // Re-executed duplicate read = the retransmission path.
                // The responder takes its read reaction latency before the
                // retransmitted responses start flowing (Figure 9b).
                let dma_len = frame.ext.reth.map(|r| r.dma_len).unwrap_or(0);
                let npkts = qp.cfg.packets_for(dma_len) as u64;
                let start = lin as u64;
                // Find the original message bounds for opcode selection:
                // the retransmitted range ends where the original did.
                let msg_end = start + npkts;
                let pkts_beyond = (qp.epsn_lin - start) as u32;
                qp.delayed_read_jobs.push_back(ReadRespJob {
                    next_lin: start,
                    end_lin: msg_end,
                    msg_base_lin: start,
                    msg_end_lin: msg_end,
                    msg_len: dma_len,
                });
                let delay = self.profile.nack_react_read(pkts_beyond);
                actions.push(Action::ArmTimer {
                    at: now + delay,
                    token: token::pack(token::READ_REACT, qpn, 0),
                });
            } else if frame.bth.opcode.is_data() {
                // Duplicate write/send: acknowledge what we have.
                let ack_lin = qp.epsn_lin.saturating_sub(1);
                self.emit_ack_for(qpn, ack_lin, actions);
            }
        }
    }

    fn emit_ack_for(&mut self, qpn: u32, lin: u64, actions: &mut Vec<Action>) {
        let mut lin = lin;
        let mut msn = self.qps[qpn].msn;
        if let Some(q) = self.quirks.as_mut() {
            match q.ack_fate(qpn) {
                quirks::AckFate::Deliver => {}
                // A swallowed or coalesced ACK is simply never emitted;
                // the requester recovers via a later cumulative ACK or
                // its retransmission timeout.
                quirks::AckFate::Drop | quirks::AckFate::Coalesce => return,
            }
            lin = lin.wrapping_add(q.ack_psn_skew());
            msn = q.msn_override(msn);
        }
        let qp = &self.qps[qpn];
        let mut ack = ack_frame(
            qp.cfg.local.ip,
            qp.cfg.remote.ip,
            qp.cfg.remote.qpn,
            qp.remote_wire_psn(lin),
            AethSyndrome::Ack { credit: 31 },
            msn,
        );
        ack.eth.src = self.local_mac;
        ack.eth.dst = qp.cfg.remote_mac;
        ack.udp.src_port = qp.cfg.udp_src_port;
        ack.bth.mig_req = self.profile.mig_req_bit;
        self.emit_ctrl(ack, actions);
    }

    // ---- Requester ----

    fn requester_rx(
        &mut self,
        qpn: u32,
        frame: &RoceFrame,
        now: SimTime,
        actions: &mut Vec<Action>,
    ) {
        let op = frame.bth.opcode;
        if op == Opcode::Acknowledge {
            let syndrome = frame.ext.aeth.map(|a| a.syndrome);
            match syndrome {
                Some(AethSyndrome::Ack { .. }) => {
                    self.rx_ack(qpn, frame.bth.psn, now, actions);
                }
                Some(AethSyndrome::Nak(lumina_packet::NakCode::PsnSequenceError)) => {
                    self.rx_seq_nak(qpn, frame.bth.psn, now, actions);
                }
                _ => {}
            }
        } else if op.is_read_response() {
            self.rx_read_response(qpn, frame, now, actions);
        }
    }

    fn rx_ack(&mut self, qpn: u32, wire_psn: u32, now: SimTime, actions: &mut Vec<Action>) {
        let qp = self.qps.get_mut(qpn).unwrap();
        let lin = qp.lin_from_wire(qp.snd_una_lin, wire_psn);
        if lin < qp.snd_una_lin as i64 {
            return; // stale ACK
        }
        qp.max_acked_lin = qp.max_acked_lin.max(lin as u64 + 1);
        self.advance_una_from_acks(qpn, now, actions);
    }

    /// Advance `snd_una` as far as cumulative ACKs allow: freely through
    /// Write/Send packets, but never across an incomplete Read (reads
    /// complete via their responses; the withheld ACK progress is
    /// re-applied here once the responses arrive).
    fn advance_una_from_acks(&mut self, qpn: u32, now: SimTime, actions: &mut Vec<Action>) {
        let qp = self.qps.get_mut(qpn).unwrap();
        let mut new_una = qp
            .max_acked_lin
            .min(qp.snd_nxt_lin)
            .max(qp.snd_una_lin);
        for m in qp.msgs.iter() {
            if m.verb == Verb::Read
                && !m.completed
                && m.base_lin >= qp.snd_una_lin
                && m.base_lin < new_una
            {
                new_una = m.base_lin;
            }
        }
        if new_una > qp.snd_una_lin {
            qp.snd_una_lin = new_una;
            if qp.send_ptr_lin < new_una {
                qp.send_ptr_lin = new_una;
            }
            // The consecutive-timeout count (which drives the adaptive
            // schedule, §6.3) resets only when nothing is left in flight:
            // duplicate-ACK progress during a Go-back-N round does not
            // restart the backoff for the still-missing tail.
            if qp.snd_una_lin == qp.snd_nxt_lin {
                qp.consecutive_timeouts = 0;
            }
            self.complete_through(qpn, now, actions);
            self.rearm_or_clear_timeout(qpn, now, actions);
        }
    }

    fn rx_seq_nak(&mut self, qpn: u32, wire_psn: u32, now: SimTime, actions: &mut Vec<Action>) {
        self.counters.packet_seq_err += 1;
        let qp = self.qps.get_mut(qpn).unwrap();
        let e_lin = qp.lin_from_wire(qp.snd_una_lin, wire_psn);
        if e_lin < qp.snd_una_lin as i64 {
            return;
        }
        let e_lin = e_lin as u64;
        // The NACK implicitly acknowledges everything before the expected
        // PSN.
        if e_lin > qp.snd_una_lin {
            qp.snd_una_lin = e_lin;
            if qp.snd_una_lin == qp.snd_nxt_lin {
                qp.consecutive_timeouts = 0;
            }
            self.complete_through(qpn, now, actions);
        }
        let qp = self.qps.get_mut(qpn).unwrap();
        if !qp.recovery_wait {
            qp.recovery_wait = true;
            qp.pending_rewind = Some(e_lin);
            let pkts_beyond = qp.send_ptr_lin.saturating_sub(e_lin) as u32;
            let delay = self.profile.nack_react_write(pkts_beyond);
            actions.push(Action::ArmTimer {
                at: now + delay,
                token: token::pack(token::NACK_REACT, qpn, 0),
            });
        }
        self.rearm_or_clear_timeout(qpn, now, actions);
    }

    fn rx_read_response(
        &mut self,
        qpn: u32,
        frame: &RoceFrame,
        now: SimTime,
        actions: &mut Vec<Action>,
    ) {
        let qp = self.qps.get_mut(qpn).unwrap();
        let expected = qp.snd_una_lin;
        let lin = qp.lin_from_wire(expected, frame.bth.psn);
        // New-round detection (requester-side mirror of the ITER rule): a
        // response PSN not larger than the last arrival means the
        // responder went back — the current OOO episode is over.
        if let Some(last) = qp.req_last_resp_arrived {
            if lin <= last as i64 {
                qp.read_episode = false;
            }
        }
        if lin >= 0 {
            qp.req_last_resp_arrived = Some(lin as u64);
        }
        if lin == expected as i64 {
            self.counters.rx_bytes += frame.payload.len() as u64;
            qp.snd_una_lin += 1;
            if qp.send_ptr_lin < qp.snd_una_lin {
                qp.send_ptr_lin = qp.snd_una_lin;
            }
            if qp.snd_una_lin == qp.snd_nxt_lin {
                qp.consecutive_timeouts = 0;
            }
            let qp = self.qps.get_mut(qpn).unwrap();
            qp.read_episode = false;
            self.complete_through(qpn, now, actions);
            // A completed Read may unblock ACK progress that was withheld
            // behind it (mixed-verb flows).
            self.advance_una_from_acks(qpn, now, actions);
            self.rearm_or_clear_timeout(qpn, now, actions);
        } else if lin > expected as i64 {
            // Out-of-order read response: the "implied NAK" (§6.1). This is
            // the slow path that costs ~150 µs on CX4 Lx and ~83 ms on the
            // E810 (Figure 8b), and whose concurrency stalls the CX4 Lx
            // pipeline (§6.2.2). One detection per out-of-sequence episode;
            // stale in-flight responses of the old round do not re-trigger.
            if !qp.read_episode && !qp.read_ooo_pending {
                qp.read_episode = true;
                self.counters
                    .record_implied_nak(&self.profile.counter_bugs);
                let fire = self.enter_read_recovery(now);
                let qp = self.qps.get_mut(qpn).unwrap();
                qp.read_ooo_pending = true;
                actions.push(Action::ArmTimer {
                    at: fire,
                    token: token::pack(token::READ_OOO, qpn, 0),
                });
            }
        }
        // Duplicate responses (lin < expected) are dropped silently.
    }

    /// Deliver completions for all fully acknowledged messages and prune
    /// them.
    fn complete_through(&mut self, qpn: u32, now: SimTime, actions: &mut Vec<Action>) {
        let qp = self.qps.get_mut(qpn).unwrap();
        let una = qp.snd_una_lin;
        for m in qp.msgs.iter_mut() {
            if !m.completed && m.end_lin() <= una {
                m.completed = true;
                actions.push(Action::Complete(Completion {
                    wr_id: m.wr_id,
                    qpn,
                    status: CompletionStatus::Success,
                    time: now,
                    is_recv: false,
                    len: m.len,
                }));
            }
        }
        while let Some(front) = qp.msgs.front() {
            if front.completed && front.end_lin() <= una {
                qp.msgs.pop_front();
            } else {
                break;
            }
        }
    }

    // ------------------------------------------------------------------
    // Timers
    // ------------------------------------------------------------------

    /// A timer armed through an [`Action::ArmTimer`] fired.
    pub fn on_timer(&mut self, tok: u64, now: SimTime) -> Vec<Action> {
        let mut actions = Vec::new();
        let (kind, qpn, extra) = token::unpack(tok);
        match kind {
            token::TX_WHEEL => {
                if self.tx_armed_at == Some(now) {
                    self.tx_armed_at = None;
                }
                self.tx_fire(now, &mut actions);
            }
            token::TIMEOUT => self.timeout_fire(qpn, extra, now, &mut actions),
            token::NACK_GEN => {
                let qp = self.qps.get_mut(qpn).unwrap();
                if qp.nack_scheduled {
                    qp.nack_scheduled = false;
                    // Go-back-N off-by-one quirk: NACK one PSN beyond
                    // the expected one (the classic resume-point bug).
                    let nack_skew = self
                        .quirks
                        .as_mut()
                        .map_or(0, quirks::QuirkPlane::nack_skew);
                    let mut nack = nack_frame(
                        qp.cfg.local.ip,
                        qp.cfg.remote.ip,
                        qp.cfg.remote.qpn,
                        qp.remote_wire_psn(qp.epsn_lin.wrapping_add(nack_skew)),
                        qp.msn,
                    );
                    nack.eth.src = self.local_mac;
                    nack.eth.dst = qp.cfg.remote_mac;
                    nack.udp.src_port = qp.cfg.udp_src_port;
                    nack.bth.mig_req = self.profile.mig_req_bit;
                    self.emit_ctrl(nack, &mut actions);
                }
            }
            token::NACK_REACT => {
                let qp = self.qps.get_mut(qpn).unwrap();
                qp.recovery_wait = false;
                if let Some(rewind) = qp.pending_rewind.take() {
                    if rewind < qp.send_ptr_lin {
                        qp.send_ptr_lin = rewind.max(qp.snd_una_lin);
                        tev!(
                            self.tel,
                            now.as_nanos(),
                            self.tel_node,
                            "rnic",
                            "gbn.rollback",
                            qpn = qpn,
                            to_lin = qp.send_ptr_lin,
                            reason = "nack",
                        );
                    }
                }
                self.tx_kick(now, &mut actions);
            }
            token::READ_OOO => {
                let qp = self.qps.get_mut(qpn).unwrap();
                if qp.read_ooo_pending {
                    qp.read_ooo_pending = false;
                    self.read_recovery_done();
                    let qp = self.qps.get_mut(qpn).unwrap();
                    // Re-issue the read request from the first missing PSN.
                    if qp.snd_una_lin < qp.send_ptr_lin {
                        qp.send_ptr_lin = qp.snd_una_lin;
                        tev!(
                            self.tel,
                            now.as_nanos(),
                            self.tel_node,
                            "rnic",
                            "gbn.rollback",
                            qpn = qpn,
                            to_lin = qp.send_ptr_lin,
                            reason = "read_ooo",
                        );
                    }
                    self.tx_kick(now, &mut actions);
                }
            }
            token::READ_REACT => {
                let qp = self.qps.get_mut(qpn).unwrap();
                if let Some(job) = qp.delayed_read_jobs.pop_front() {
                    qp.read_jobs.push_back(job);
                }
                self.tx_kick(now, &mut actions);
            }
            token::DCQCN_ALPHA => {
                let p_alpha = self.dcqcn_params.alpha_timer;
                let qp = self.qps.get_mut(qpn).unwrap();
                if extra == qp.dcqcn_timer_epoch {
                    if let Some(rp) = qp.rp.as_mut() {
                        rp.on_alpha_timer();
                        if rp.at_line_rate() && rp.alpha < 1e-3 {
                            qp.dcqcn_timers_armed = false;
                            qp.dcqcn_timer_epoch = qp.dcqcn_timer_epoch.wrapping_add(1);
                        } else {
                            actions.push(Action::ArmTimer {
                                at: now + p_alpha,
                                token: token::pack(token::DCQCN_ALPHA, qpn, extra),
                            });
                        }
                    }
                }
            }
            token::DCQCN_RATE => {
                let p_rate = self.dcqcn_params.rate_timer;
                let qp = self.qps.get_mut(qpn).unwrap();
                if extra == qp.dcqcn_timer_epoch {
                    if let Some(rp) = qp.rp.as_mut() {
                        rp.on_rate_timer();
                        if !rp.at_line_rate() {
                            actions.push(Action::ArmTimer {
                                at: now + p_rate,
                                token: token::pack(token::DCQCN_RATE, qpn, extra),
                            });
                        }
                    }
                    self.tx_kick(now, &mut actions);
                }
            }
            token::APM_SERVICE => {
                if let Some(raw) = self.apm_queue.pop_front() {
                    // Mark resolution progress on the owning QP.
                    if let Ok(frame) = RoceFrame::parse_frame(&raw) {
                        let resolve_after = self
                            .profile
                            .apm_slowpath_on_migreq0
                            .as_ref()
                            .map(|m| m.resolve_after_packets)
                            .unwrap_or(u64::MAX);
                        if let Some(qp) = self.qps.get_mut(frame.bth.dest_qp) {
                            qp.apm_serviced += 1;
                            if qp.apm_serviced >= resolve_after {
                                qp.apm_resolved = true;
                            }
                        }
                        self.process_frame(frame, now, &mut actions);
                    }
                }
                if !self.apm_queue.is_empty() {
                    let st = self
                        .profile
                        .apm_slowpath_on_migreq0
                        .as_ref()
                        .unwrap()
                        .service_time;
                    actions.push(Action::ArmTimer {
                        at: now + st,
                        token: token::pack(token::APM_SERVICE, 0, 0),
                    });
                } else {
                    self.apm_busy = false;
                }
            }
            _ => {}
        }
        actions
    }

    fn timeout_fire(&mut self, qpn: u32, epoch: u32, now: SimTime, actions: &mut Vec<Action>) {
        let policy = self.timeout_policy(qpn);
        let qp = self.qps.get_mut(qpn).unwrap();
        if epoch != qp.timer_epoch || !qp.has_unacked() || qp.state == QpState::Error {
            return;
        }
        if qp.read_ooo_pending {
            // The implied-NAK slow path already detected the loss and is
            // being processed; the timeout is deferred until it resolves
            // (this is what lets the E810's ~83 ms read slow path exceed
            // the configured 67 ms minimum timeout in Figure 8b).
            qp.timer_epoch = qp.timer_epoch.wrapping_add(1);
            let e = qp.timer_epoch;
            let d = policy.timeout_for(qp.consecutive_timeouts);
            actions.push(Action::ArmTimer {
                at: now + d,
                token: token::pack(token::TIMEOUT, qpn, e),
            });
            return;
        }
        self.counters.local_ack_timeout_err += 1;
        qp.consecutive_timeouts += 1;
        tev!(
            self.tel,
            now.as_nanos(),
            self.tel_node,
            "rnic",
            "timeout",
            qpn = qpn,
            consecutive = qp.consecutive_timeouts,
        );
        if qp.consecutive_timeouts > policy.effective_retry_limit() {
            // Retry exhaustion: QP to error, flush outstanding work.
            qp.state = QpState::Error;
            tev!(self.tel, now.as_nanos(), self.tel_node, "rnic", "qp.error", qpn = qpn);
            qp.timeout_armed = false;
            for m in qp.msgs.iter_mut() {
                if !m.completed {
                    m.completed = true;
                    actions.push(Action::Complete(Completion {
                        wr_id: m.wr_id,
                        qpn,
                        status: CompletionStatus::RetryExceeded,
                        time: now,
                        is_recv: false,
                        len: m.len,
                    }));
                }
            }
            return;
        }
        qp.timer_epoch = qp.timer_epoch.wrapping_add(1);
        let e = qp.timer_epoch;
        let next = policy.timeout_for(qp.consecutive_timeouts);
        actions.push(Action::ArmTimer {
            at: now + next,
            token: token::pack(token::TIMEOUT, qpn, e),
        });
        // On devices with the shared recovery engine (CX4 Lx), a timeout
        // on outstanding Read work is processed by the same slow path as
        // an implied NAK — which is how simultaneous timeout storms keep
        // re-wedging the pipeline (§6.2.2).
        let oldest_is_read = qp
            .msg_at(qp.snd_una_lin)
            .map(|m| m.verb == crate::verbs::Verb::Read)
            .unwrap_or(false);
        if oldest_is_read && self.profile.noisy_neighbor.is_some() {
            let fire = self.enter_read_recovery(now);
            let qp = self.qps.get_mut(qpn).unwrap();
            qp.read_ooo_pending = true;
            actions.push(Action::ArmTimer {
                at: fire,
                token: token::pack(token::READ_OOO, qpn, 0),
            });
            return;
        }
        // Go-back-N from the oldest unacknowledged PSN.
        qp.send_ptr_lin = qp.snd_una_lin;
        tev!(
            self.tel,
            now.as_nanos(),
            self.tel_node,
            "rnic",
            "gbn.rollback",
            qpn = qpn,
            to_lin = qp.snd_una_lin,
            reason = "timeout",
        );
        self.tx_kick(now, actions);
    }

    fn timeout_policy(&self, qpn: u32) -> TimeoutPolicy {
        let qp = &self.qps[qpn];
        TimeoutPolicy::for_profile(
            &self.profile,
            qp.cfg.timeout_code,
            qp.cfg.retry_cnt,
            qp.cfg.adaptive_retrans,
        )
    }

    fn arm_timeout_if_needed(&mut self, qpn: u32, now: SimTime, actions: &mut Vec<Action>) {
        let policy = self.timeout_policy(qpn);
        let qp = self.qps.get_mut(qpn).unwrap();
        if qp.has_unacked() && !qp.timeout_armed {
            qp.timeout_armed = true;
            qp.timer_epoch = qp.timer_epoch.wrapping_add(1);
            let e = qp.timer_epoch;
            let d = policy.timeout_for(qp.consecutive_timeouts);
            actions.push(Action::ArmTimer {
                at: now + d,
                token: token::pack(token::TIMEOUT, qpn, e),
            });
        }
    }

    fn rearm_or_clear_timeout(&mut self, qpn: u32, now: SimTime, actions: &mut Vec<Action>) {
        let policy = self.timeout_policy(qpn);
        let qp = self.qps.get_mut(qpn).unwrap();
        qp.timer_epoch = qp.timer_epoch.wrapping_add(1);
        if qp.has_unacked() {
            qp.timeout_armed = true;
            let e = qp.timer_epoch;
            let d = policy.timeout_for(qp.consecutive_timeouts);
            actions.push(Action::ArmTimer {
                at: now + d,
                token: token::pack(token::TIMEOUT, qpn, e),
            });
        } else {
            qp.timeout_armed = false;
        }
    }

    // ------------------------------------------------------------------
    // TX path
    // ------------------------------------------------------------------

    fn emit_ctrl(&mut self, frame: RoceFrame, actions: &mut Vec<Action>) {
        // Control packets (ACK/NACK/CNP) bypass the data scheduler: they
        // are tiny, strictly prioritized, and their timing is the very
        // thing the analyzers measure.
        self.counters.tx_packets += 1;
        actions.push(Action::Emit(frame.emit()));
    }

    /// Arm the transmit wheel if data work exists and no earlier tick is
    /// already pending.
    fn tx_kick(&mut self, now: SimTime, actions: &mut Vec<Action>) {
        let Some(next) = self.next_tx_time(now) else {
            return;
        };
        if self.tx_armed_at.is_none_or(|at| next < at) {
            self.tx_armed_at = Some(next);
            actions.push(Action::ArmTimer {
                at: next,
                token: token::pack(token::TX_WHEEL, 0, 0),
            });
        }
    }

    /// The transmit candidates in rotation order, as
    /// `(slot, is_read_resp, candidate)`: active QPs from slot
    /// `rr_cursor % n` on in QPN order, a QP's request before its read
    /// response. Under debug assertions every call first proves the active
    /// set covers all QPs with work. Borrows only the slab, so `tx_fire`
    /// can charge the ETS scheduler while the walk is live.
    fn tx_candidates(
        qps: &QpSlab,
        rr_cursor: usize,
    ) -> impl Iterator<Item = (usize, bool, TxCandidate)> + Clone + '_ {
        #[cfg(debug_assertions)]
        qps.assert_active_covers_work();
        let start = rr_cursor % qps.len().max(1);
        qps.active_from(start).flat_map(|(slot, qp)| {
            let cand = |size| TxCandidate {
                tc: qp.cfg.traffic_class,
                eligible_at: qp.next_allowed_tx,
                size,
            };
            let req = qp
                .has_tx_work()
                .then(|| (slot, false, cand(Self::peek_req_size(qp))));
            let resp = qp
                .has_read_resp_work()
                .then(|| (slot, true, cand(Self::peek_read_resp_size(qp))));
            req.into_iter().chain(resp)
        })
    }

    fn peek_req_size(qp: &Qp) -> usize {
        let lin = qp.send_ptr_lin;
        let Some(m) = qp.msg_at(lin) else { return 64 };
        match m.verb {
            Verb::Read => 14 + 20 + 8 + 12 + 16 + 4, // read request, no payload
            _ => {
                let idx = (lin - m.base_lin) as u32;
                let chunk = qp.cfg.chunk_len(m.len, idx) as usize;
                14 + 20 + 8 + 12 + 16 + chunk + 4
            }
        }
    }

    fn peek_read_resp_size(qp: &Qp) -> usize {
        let Some(job) = qp.read_jobs.front() else { return 64 };
        let idx = (job.next_lin - job.msg_base_lin) as u32;
        let chunk = qp.cfg.chunk_len(job.msg_len, idx) as usize;
        14 + 20 + 8 + 12 + 4 + chunk + 4
    }

    fn next_tx_time(&self, now: SimTime) -> Option<SimTime> {
        let cands = Self::tx_candidates(&self.qps, self.rr_cursor).map(|c| c.2);
        let opp = self.ets.next_opportunity(now, cands)?;
        Some(opp.max(self.port_free).max(now))
    }

    /// Transmit-wheel tick: emit at most one data packet, then re-arm.
    fn tx_fire(&mut self, now: SimTime, actions: &mut Vec<Action>) {
        if now >= self.port_free {
            // The scheduler only sees (and refills its buckets for) a
            // non-empty candidate set; peeking keeps that check free.
            let picked = {
                let mut cands = Self::tx_candidates(&self.qps, self.rr_cursor).peekable();
                match cands.peek() {
                    Some(_) => {
                        let i = self.ets.pick(now, cands.clone().map(|c| c.2));
                        i.and_then(|i| cands.nth(i))
                    }
                    None => None,
                }
            };
            if let Some((slot, is_read_resp, cand)) = picked {
                let qpn = self.qps.qpn_at(slot);
                self.rr_cursor = self.rr_cursor.wrapping_add(1);
                let mut frame = if is_read_resp {
                    self.gen_read_resp_frame(qpn)
                } else {
                    self.gen_req_frame(qpn, now)
                };
                // Misbehavior plane: ICRC miscompute flips the
                // emitted trailer; ghost retransmits duplicate the
                // previous data frame of this QP unprovoked.
                let mut ghost = None;
                if let Some(q) = self.quirks.as_mut() {
                    q.maybe_corrupt_icrc(&mut frame);
                    ghost = q.ghost_frame(qpn, &frame);
                }
                let line = lumina_packet::frame::line_occupancy_of(frame.len());
                self.port_free = now + self.profile.port_bandwidth.serialization_time(line);
                self.counters.tx_packets += 1;
                self.counters.tx_bytes += cand.size as u64;
                // DCQCN pacing for the next packet of this QP.
                let qp = self.qps.get_mut(qpn).unwrap();
                if let Some(rp) = qp.rp.as_mut() {
                    rp.on_bytes_sent(line as u64);
                    if !rp.at_line_rate() {
                        let rate = rp.current_rate();
                        qp.next_allowed_tx = now + rate.serialization_time(line);
                    } else {
                        qp.next_allowed_tx = now;
                    }
                }
                actions.push(Action::Emit(frame));
                if let Some(g) = ghost {
                    self.counters.tx_packets += 1;
                    actions.push(Action::Emit(g));
                }
                self.arm_timeout_if_needed(qpn, now, actions);
            }
        }
        self.tx_kick(now, actions);
    }

    fn gen_req_frame(&mut self, qpn: u32, now: SimTime) -> Frame {
        let qp = self.qps.get_mut(qpn).unwrap();
        let lin = qp.send_ptr_lin;
        let m = *qp.msg_at(lin).expect("tx pointer outside any message");
        let idx = (lin - m.base_lin) as u32;
        let is_retransmit = lin < qp.max_sent_lin;
        if is_retransmit {
            self.counters.retransmitted_packets += 1;
            tev!(
                self.tel,
                now.as_nanos(),
                self.tel_node,
                "rnic",
                "retransmit",
                qpn = qpn,
                lin = lin,
            );
        }
        let qp = self.qps.get_mut(qpn).unwrap();
        let mig = self.profile.mig_req_bit;
        let builder = DataPacketBuilder::new()
            .src_mac(self.local_mac)
            .dst_mac(qp.cfg.remote_mac)
            .src_ip(qp.cfg.local.ip)
            .dst_ip(qp.cfg.remote.ip)
            .src_port(qp.cfg.udp_src_port)
            .dest_qp(qp.cfg.remote.qpn)
            .ecn(Ecn::Ect0)
            .mig_req(mig);

        let frame = match m.verb {
            Verb::Read => {
                let remaining = m.len - (idx * qp.cfg.mtu).min(m.len);
                let f = builder
                    .opcode(Opcode::RdmaReadRequest)
                    .psn(qp.wire_psn(lin))
                    .reth(Reth {
                        vaddr: 0x1000_0000 + (idx as u64 * qp.cfg.mtu as u64),
                        rkey: 0x1_0000 | (qpn & 0xffff),
                        dma_len: remaining,
                    })
                    .build();
                // The single request covers the rest of the message's PSN
                // range.
                qp.send_ptr_lin = m.end_lin();
                f
            }
            verb => {
                let chunk = qp.cfg.chunk_len(m.len, idx);
                let opcode = if verb == Verb::Write {
                    write_opcode(idx, m.npkts)
                } else {
                    send_opcode(idx, m.npkts)
                };
                let mut b = builder
                    .opcode(opcode)
                    .psn(qp.wire_psn(lin))
                    .ack_req(idx == m.npkts - 1)
                    .payload_len(chunk as usize);
                if opcode.has_reth() {
                    b = b.reth(Reth {
                        vaddr: 0x2000_0000,
                        rkey: 0x2_0000 | (qpn & 0xffff),
                        dma_len: m.len,
                    });
                }
                qp.send_ptr_lin += 1;
                b.build()
            }
        };
        if qp.send_ptr_lin > qp.max_sent_lin {
            qp.max_sent_lin = qp.send_ptr_lin;
        }
        let emitted = frame.emit();
        if is_retransmit {
            self.tel.record_hop(
                emitted.trace_id(),
                lumina_telemetry::trace::hops::RNIC_RETRANSMIT,
                self.tel_node,
                now.as_nanos(),
            );
        }
        emitted
    }

    fn gen_read_resp_frame(&mut self, qpn: u32) -> Frame {
        let qp = self.qps.get_mut(qpn).unwrap();
        let job = qp.read_jobs.front_mut().expect("no read job");
        let lin = job.next_lin;
        let idx_in_msg = (lin - job.msg_base_lin) as u32;
        let total = (job.msg_end_lin - job.msg_base_lin) as u32;
        let opcode = read_response_opcode(idx_in_msg, total);
        let chunk = qp.cfg.chunk_len(job.msg_len, idx_in_msg);
        job.next_lin += 1;
        if job.next_lin >= job.end_lin {
            qp.read_jobs.pop_front();
        }
        let qp = &self.qps[qpn];
        let mut b = DataPacketBuilder::new()
            .src_mac(self.local_mac)
            .dst_mac(qp.cfg.remote_mac)
            .src_ip(qp.cfg.local.ip)
            .dst_ip(qp.cfg.remote.ip)
            .src_port(qp.cfg.udp_src_port)
            .dest_qp(qp.cfg.remote.qpn)
            .ecn(Ecn::Ect0)
            .mig_req(self.profile.mig_req_bit)
            .opcode(opcode)
            .psn(qp.remote_wire_psn(lin))
            .payload_len(chunk as usize);
        if opcode.has_aeth() {
            let mut msn = qp.msn;
            if let Some(q) = self.quirks.as_mut() {
                msn = q.msn_override(msn);
            }
            b = b.aeth(Aeth {
                syndrome: AethSyndrome::Ack { credit: 31 },
                msn,
            });
        }
        b.build().emit()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Work handed to a QP through `qp_mut` after a scan found it idle
    /// still reaches the wire.
    #[test]
    fn qp_mut_wakes_the_scheduler() {
        use crate::qp::QpEndpoint;
        use std::net::Ipv4Addr;
        let end = |qpn| QpEndpoint {
            ip: Ipv4Addr::new(10, 0, 0, 1),
            qpn,
            ipsn: 0,
        };
        let mut rnic = Rnic::new(
            DeviceProfile::cx5(),
            EtsConfig::single_queue(),
            MacAddr::local(1),
        );
        rnic.create_qp(QpConfig {
            local: end(0x11),
            remote: end(0x22),
            remote_mac: MacAddr::local(2),
            mtu: 1024,
            timeout_code: 14,
            retry_cnt: 7,
            adaptive_retrans: false,
            traffic_class: 0,
            dcqcn_rp: false,
            dcqcn_np: false,
            min_time_between_cnps: SimTime::from_micros(4),
            udp_src_port: 49152,
        });
        let tick = token::pack(token::TX_WHEEL, 0, 0);
        assert!(rnic.on_timer(tick, SimTime::ZERO).is_empty());
        rnic.qp_mut(0x11).unwrap().push_wqe(WorkRequest {
            wr_id: 1,
            verb: Verb::Write,
            len: 100,
        });
        let actions = rnic.on_timer(tick, SimTime::ZERO);
        assert!(actions.iter().any(|a| matches!(a, Action::Emit(_))));
    }

    #[test]
    fn token_pack_unpack() {
        let t = token::pack(token::TIMEOUT, 0xabcdef, 0xdead_beef);
        assert_eq!(token::unpack(t), (token::TIMEOUT, 0xabcdef, 0xdead_beef));
        let t2 = token::pack(token::TX_WHEEL, 0, 0);
        assert_eq!(token::unpack(t2), (token::TX_WHEEL, 0, 0));
    }
}
