//! The traced replica of `run_test`.
//!
//! [`run_replica`] rebuilds a pristine testbed from the same public
//! constructors `lumina_core::run_test` uses (`Rnic::builder`,
//! `HostNode::new`, `SwitchNode::new` + `translate`,
//! `DumperNode::with_faults`, `Engine::connect`), wraps every node in a
//! [`Timed`] decorator, and times each run stage from outside. The split
//! is only worth reporting if it is a split of the *same* program, so
//! [`check_matches`] compares the replica with the `run_test` result it
//! stands in for; the workloads refuse to report a replica that differs.

use crate::alloc;
use lumina_core::config::{SwitchMode, TestConfig};
use lumina_core::integrity;
use lumina_core::orchestrator::MacAddr;
use lumina_core::translate::{translate, ConnMeta};
use lumina_core::{Error, TestResults};
use lumina_dumper::node::{capture_handle, CaptureHandle, DumperConfig, DumperNode};
use lumina_dumper::CapturedPacket;
use lumina_gen::host::{HostNode, Role};
use lumina_gen::metrics::metrics_handle;
use lumina_gen::FlowPlan;
use lumina_rnic::counters::Counters;
use lumina_rnic::ets::{EtsConfig, TcConfig};
use lumina_rnic::qp::{QpConfig, QpEndpoint};
use lumina_rnic::Rnic;
use lumina_sim::{
    Engine, EngineStats, Frame, Node, NodeCtx, PortId, RunOutcome, SimTime, Telemetry,
};
use lumina_switch::device::{MirrorMode, SwitchConfig, SwitchNode};
use std::cell::Cell;
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Dispatch work one node did: calls into `on_frame`/`on_timer` and the
/// wall time spent inside them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeClock {
    /// `on_frame` + `on_timer` calls.
    pub calls: u64,
    /// Wall nanoseconds inside those calls.
    pub ns: u64,
}

impl NodeClock {
    fn add(self, o: NodeClock) -> NodeClock {
        NodeClock {
            calls: self.calls + o.calls,
            ns: self.ns + o.ns,
        }
    }

    /// Mean wall nanoseconds per call (0 without calls).
    pub fn ns_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns as f64 / self.calls as f64
        }
    }
}

/// A timing `Node` decorator: times `on_frame`/`on_timer` of the wrapped
/// node and delegates everything else.
pub struct Timed<N> {
    inner: N,
    clock: Rc<Cell<NodeClock>>,
}

impl<N: Node> Timed<N> {
    fn new(inner: N) -> (Timed<N>, Rc<Cell<NodeClock>>) {
        let clock = Rc::new(Cell::new(NodeClock::default()));
        (
            Timed {
                inner,
                clock: clock.clone(),
            },
            clock,
        )
    }

    fn record(&self, start: Instant) {
        let ns = start.elapsed().as_nanos() as u64;
        let c = self.clock.get();
        self.clock.set(NodeClock {
            calls: c.calls + 1,
            ns: c.ns + ns,
        });
    }
}

impl<N: Node> Node for Timed<N> {
    fn on_frame(&mut self, port: PortId, frame: Frame, ctx: &mut NodeCtx<'_>) {
        let start = Instant::now();
        self.inner.on_frame(port, frame, ctx);
        self.record(start);
    }

    fn on_timer(&mut self, token: u64, ctx: &mut NodeCtx<'_>) {
        let start = Instant::now();
        self.inner.on_timer(token, ctx);
        self.record(start);
    }

    fn on_finish(&mut self, ctx: &mut NodeCtx<'_>) {
        self.inner.on_finish(ctx);
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// Everything one replica run measured and produced.
#[derive(Debug, Clone)]
pub struct ReplicaRun {
    /// Engine counters (must equal `run_test`'s).
    pub engine_stats: EngineStats,
    /// Final simulation time (must equal `run_test`'s).
    pub end_time: SimTime,
    /// Reconstructed trace length (must equal `run_test`'s).
    pub trace_len: usize,
    /// Requester canonical counters (must equal `run_test`'s).
    pub requester_counters: Counters,
    /// Responder canonical counters (must equal `run_test`'s).
    pub responder_counters: Counters,
    /// Translate, node construction and `connect`.
    pub build: Duration,
    /// `Engine::run`.
    pub run: Duration,
    /// `remove_node`, capture and counter harvest.
    pub collect: Duration,
    /// `integrity::check`.
    pub integrity: Duration,
    /// Requester host (RNIC + generator) dispatch.
    pub requester: NodeClock,
    /// Responder host dispatch.
    pub responder: NodeClock,
    /// Switch dispatch.
    pub switch: NodeClock,
    /// Dumper pool dispatch, summed over the pool.
    pub dumpers: NodeClock,
    /// Mirror copies the dumper pool discarded.
    pub dumper_rx_discards: u64,
    /// Allocations made during `Engine::run` (0 unless counting is on).
    pub alloc_count: u64,
    /// Bytes requested during `Engine::run` (0 unless counting is on).
    pub alloc_bytes: u64,
}

impl ReplicaRun {
    /// Wall time of all four stages.
    pub fn total(&self) -> Duration {
        self.build + self.run + self.collect + self.integrity
    }

    /// Node dispatch time summed over every node.
    pub fn dispatch(&self) -> NodeClock {
        self.requester
            .add(self.responder)
            .add(self.switch)
            .add(self.dumpers)
    }
}

/// Rebuild and run the testbed `run_test` would build for `cfg`, with
/// every node timed. `telemetry` attaches an enabled sink exactly as
/// `run_test` does; without it no sink is set at all.
///
/// Only pristine testbeds are covered: a config with an active `faults:`,
/// `quirks:`, `chaos:` or `trace:` section is refused, since replicating
/// those planes would copy far more of the orchestrator than the
/// benchmark's workloads use.
pub fn run_replica(cfg: &TestConfig, telemetry: bool) -> Result<ReplicaRun, Error> {
    let active = cfg.faults.as_ref().is_some_and(|f| !f.is_noop())
        || cfg.quirks.as_ref().is_some_and(|q| !q.is_noop())
        || cfg.chaos.as_ref().is_some_and(|c| !c.is_noop())
        || cfg.trace.as_ref().is_some_and(|t| !t.is_noop());
    if active {
        return Err(Error::config(
            "the replica covers pristine testbeds only (no faults/quirks/chaos/trace)",
        ));
    }
    let build_start = Instant::now();
    cfg.validate()?;
    let verb = cfg.traffic.verb()?;
    let verbs = cfg.traffic.verbs()?;
    let req_profile = cfg
        .resolved_device(false)
        .ok_or_else(|| Error::config("unknown requester nic"))?;
    let rsp_profile = cfg
        .resolved_device(true)
        .ok_or_else(|| Error::config("unknown responder nic"))?;

    let mut eng = Engine::new(cfg.network.seed);
    let tel = telemetry.then(Telemetry::enabled);
    if let Some(t) = &tel {
        eng.set_telemetry(t.clone());
    }

    let ets_cfg = EtsConfig {
        tcs: cfg
            .ets
            .queues
            .iter()
            .map(|q| TcConfig {
                strict_priority: q.strict,
                weight: q.weight,
            })
            .collect(),
        work_conserving: true,
    };
    let req_mac = MacAddr::local(1);
    let rsp_mac = MacAddr::local(2);
    let switch_mac = MacAddr::local(100);
    let build_rnic =
        |profile: &lumina_rnic::DeviceProfile, ets_cfg: EtsConfig, mac: MacAddr, node: u32| {
            let mut b = Rnic::builder(profile.clone(), ets_cfg, mac);
            if let Some(t) = &tel {
                b = b.telemetry(t.clone(), node);
            }
            b.build()
        };
    let mut req_rnic = build_rnic(&req_profile, ets_cfg.clone(), req_mac, 0);
    let mut rsp_rnic = build_rnic(&rsp_profile, ets_cfg, rsp_mac, 1);

    let n = cfg.traffic.num_connections;
    let mut conns = Vec::with_capacity(n as usize);
    let mut req_ips = Vec::new();
    let mut rsp_ips = Vec::new();
    for i in 1..=n {
        let (req_ip, rsp_ip) = if cfg.traffic.multi_gid {
            (
                Ipv4Addr::new(10, (i / 200) as u8, (i % 200) as u8, 1),
                Ipv4Addr::new(10, (i / 200) as u8, (i % 200) as u8, 2),
            )
        } else {
            (Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2))
        };
        req_ips.push(req_ip);
        rsp_ips.push(rsp_ip);
        let req_qpn = req_rnic.alloc_qpn(eng.rng());
        let rsp_qpn = rsp_rnic.alloc_qpn(eng.rng());
        let req_ipsn = eng.rng().bits24();
        let rsp_ipsn = eng.rng().bits24();
        conns.push(ConnMeta {
            index: i,
            requester: QpEndpoint {
                ip: req_ip,
                qpn: req_qpn,
                ipsn: req_ipsn,
            },
            responder: QpEndpoint {
                ip: rsp_ip,
                qpn: rsp_qpn,
                ipsn: rsp_ipsn,
            },
            verb,
        });
    }

    for (i, c) in conns.iter().enumerate() {
        let tc = cfg.traffic.qp_traffic_class.get(i).copied().unwrap_or(0);
        let base = |local: QpEndpoint,
                    remote: QpEndpoint,
                    host: &lumina_core::config::HostConfig| QpConfig {
            local,
            remote,
            remote_mac: switch_mac,
            mtu: cfg.traffic.mtu,
            timeout_code: cfg.traffic.min_retransmit_timeout,
            retry_cnt: cfg.traffic.max_retransmit_retry,
            adaptive_retrans: host.adaptive_retrans,
            traffic_class: tc,
            dcqcn_rp: host.dcqcn_rp_enable,
            dcqcn_np: host.dcqcn_np_enable,
            min_time_between_cnps: SimTime::from_micros(host.min_time_between_cnps_us),
            udp_src_port: 49152 + c.index as u16,
        };
        req_rnic.create_qp(base(c.requester, c.responder, &cfg.requester));
        rsp_rnic.create_qp(base(c.responder, c.requester, &cfg.responder));
        if verbs.contains(&lumina_rnic::Verb::Send) {
            for k in 0..cfg.traffic.num_msgs_per_qp {
                rsp_rnic.post_recv(
                    c.responder.qpn,
                    (c.index as u64) << 32 | k as u64,
                    cfg.traffic.message_size,
                );
            }
        }
    }

    let plans: Vec<FlowPlan> = conns
        .iter()
        .map(|c| FlowPlan {
            qpn: c.requester.qpn,
            verbs: verbs.clone(),
            num_msgs: cfg.traffic.num_msgs_per_qp,
            msg_size: cfg.traffic.message_size,
            tx_depth: cfg.traffic.tx_depth,
        })
        .collect();
    let (requester, req_clock) = Timed::new(HostNode::new(
        req_rnic,
        Role::Requester {
            plans,
            barrier_sync: cfg.traffic.barrier_sync,
        },
        metrics_handle(),
        "requester",
    ));
    let (responder, rsp_clock) = Timed::new(HostNode::new(
        rsp_rnic,
        Role::Responder,
        metrics_handle(),
        "responder",
    ));

    let mut forward: HashMap<Ipv4Addr, PortId> = HashMap::new();
    for ip in &req_ips {
        forward.insert(*ip, PortId(0));
    }
    for ip in &rsp_ips {
        forward.insert(*ip, PortId(1));
    }
    let num_dumpers = cfg.network.num_dumpers.max(1);
    let dumper_ports: Vec<(PortId, u32)> =
        (0..num_dumpers).map(|i| (PortId(2 + i), 1u32)).collect();
    let mut sw_cfg = match cfg.network.switch_mode {
        SwitchMode::L2Forward => SwitchConfig::l2_forward(forward),
        SwitchMode::Lumina => SwitchConfig::lumina(forward, dumper_ports.clone()),
        SwitchMode::LuminaNm => {
            let mut c = SwitchConfig::lumina(forward, dumper_ports.clone());
            c.mirroring = false;
            c
        }
        SwitchMode::LuminaNe => {
            let mut c = SwitchConfig::lumina(forward, dumper_ports.clone());
            c.injection = false;
            c
        }
    };
    if cfg.network.no_dport_randomization {
        sw_cfg.randomize_dport = false;
    }
    if cfg.network.per_port_mirroring {
        sw_cfg.mirror_mode = MirrorMode::PerIngressPort;
    }
    let mirroring = sw_cfg.mirroring;
    let mut switch = SwitchNode::new(sw_cfg);
    for (key, action) in translate(cfg, &conns)? {
        switch.table.insert(key, action);
    }
    let (switch, sw_clock) = Timed::new(switch);

    let req_id = eng.add_node(Box::new(requester));
    let rsp_id = eng.add_node(Box::new(responder));
    let sw_id = eng.add_node(Box::new(switch));
    let prop = SimTime::from_nanos(cfg.network.propagation_delay_ns);
    eng.connect(
        req_id,
        PortId(0),
        sw_id,
        PortId(0),
        req_profile.port_bandwidth,
        prop,
    );
    eng.connect(
        rsp_id,
        PortId(0),
        sw_id,
        PortId(1),
        rsp_profile.port_bandwidth,
        prop,
    );
    let mut dumper_handles: Vec<CaptureHandle> = Vec::new();
    let mut dumper_clocks = Vec::new();
    for i in 0..num_dumpers {
        let handle = capture_handle();
        let (d, clock) = Timed::new(DumperNode::with_faults(
            DumperConfig {
                cores: cfg.network.dumper_cores,
                per_core_rate_pps: cfg.network.dumper_core_rate_pps,
                ring_capacity: cfg.network.dumper_ring_capacity,
                trim_bytes: 128,
            },
            handle.clone(),
            None,
        ));
        let d_id = eng.add_node(Box::new(d));
        eng.connect(
            sw_id,
            PortId(2 + i),
            d_id,
            PortId(0),
            lumina_sim::Bandwidth::gbps(100),
            prop,
        );
        dumper_handles.push(handle);
        dumper_clocks.push(clock);
    }
    if let Some(max_events) = cfg.network.max_events {
        eng.event_limit = max_events;
    }
    if let Some(max_wall_ms) = cfg.network.max_wall_ms {
        eng.wall_clock_limit = Some(Duration::from_millis(max_wall_ms));
    }
    eng.schedule_timer(req_id, SimTime::from_micros(1), HostNode::start_token());
    let build = build_start.elapsed();

    let (alloc_count0, alloc_bytes0) = alloc::snapshot();
    let run_start = Instant::now();
    let outcome = eng.run(Some(SimTime::from_millis(cfg.network.horizon_ms)));
    let run = run_start.elapsed();
    let (alloc_count1, alloc_bytes1) = alloc::snapshot();
    if let RunOutcome::EventLimit { .. } | RunOutcome::WallClockExceeded { .. } = outcome {
        return Err(Error::Watchdog(format!(
            "replica run ended with {outcome:?}"
        )));
    }

    let collect_start = Instant::now();
    let end_time = outcome.end_time();
    let engine_stats = *eng.stats();
    let take_host = |eng: &mut Engine, id| -> Result<Box<Timed<HostNode>>, Error> {
        let any: Box<dyn std::any::Any> = eng.remove_node(id);
        any.downcast::<Timed<HostNode>>()
            .map_err(|_| Error::internal("host node recovered with unexpected type"))
    };
    let req_host = take_host(&mut eng, req_id)?;
    let rsp_host = take_host(&mut eng, rsp_id)?;
    let sw_any: Box<dyn std::any::Any> = eng.remove_node(sw_id);
    let sw = sw_any
        .downcast::<Timed<SwitchNode>>()
        .map_err(|_| Error::internal("switch node recovered with unexpected type"))?;
    let captures: Vec<Vec<CapturedPacket>> = dumper_handles
        .iter()
        .map(|h| h.borrow().packets.clone())
        .collect();
    let dumper_rx_discards: u64 = dumper_handles.iter().map(|h| h.borrow().rx_discards).sum();
    let requester_counters = req_host.inner.rnic.counters.clone();
    let responder_counters = rsp_host.inner.rnic.counters.clone();
    if let Some(t) = &tel {
        t.record_metric_set(req_id.0 as u32, &requester_counters);
        t.record_metric_set(rsp_id.0 as u32, &responder_counters);
        t.record_metric_set(sw_id.0 as u32, &sw.inner.counters);
        for (i, h) in dumper_handles.iter().enumerate() {
            t.record_metric_set(3 + i as u32, &*h.borrow());
        }
    }
    let collect = collect_start.elapsed();

    let integrity_start = Instant::now();
    let trace_len = if mirroring {
        integrity::check(&captures, &sw.inner.counters)
            .0
            .map_or(0, |t| t.len())
    } else {
        0
    };
    let integrity = integrity_start.elapsed();

    Ok(ReplicaRun {
        engine_stats,
        end_time,
        trace_len,
        requester_counters,
        responder_counters,
        build,
        run,
        collect,
        integrity,
        requester: req_clock.get(),
        responder: rsp_clock.get(),
        switch: sw_clock.get(),
        dumpers: dumper_clocks
            .iter()
            .fold(NodeClock::default(), |a, c| a.add(c.get())),
        dumper_rx_discards,
        alloc_count: alloc_count1 - alloc_count0,
        alloc_bytes: alloc_bytes1 - alloc_bytes0,
    })
}

/// `Ok` when the replica reproduced `res` exactly: engine statistics, end
/// time, trace length and both hosts' counters. Otherwise the first
/// difference, so a traced run never reports the split of another program.
pub fn check_matches(rep: &ReplicaRun, res: &TestResults) -> Result<(), String> {
    if rep.engine_stats != res.engine_stats {
        return Err(format!(
            "engine stats differ: replica {:?}, run_test {:?}",
            rep.engine_stats, res.engine_stats
        ));
    }
    if rep.end_time != res.end_time {
        return Err(format!(
            "end time differs: replica {} ns, run_test {} ns",
            rep.end_time.as_nanos(),
            res.end_time.as_nanos()
        ));
    }
    let trace_len = res.trace.as_ref().map_or(0, |t| t.len());
    if rep.trace_len != trace_len {
        return Err(format!(
            "trace length differs: replica {}, run_test {trace_len}",
            rep.trace_len
        ));
    }
    if rep.requester_counters != res.requester_counters {
        return Err("requester counters differ".into());
    }
    if rep.responder_counters != res.responder_counters {
        return Err("responder counters differ".into());
    }
    Ok(())
}
