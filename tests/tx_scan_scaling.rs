//! The RNIC's transmit scheduler does work proportional to the QPs that
//! have something to send, not to the QPs that exist.
//!
//! Measured with the device's host-independent scan counter
//! (`Rnic::tx_scan_visits`, QP slots examined by TX scans) on a write run
//! of two hosts wired back to back: visits per emitted data packet must
//! stay under a small constant and must not grow from 36 to 1000 QPs. A
//! scheduler that walks every QP per decision scores about the QP count.

use lumina_gen::{metrics_handle, FlowPlan, HostNode, Role};
use lumina_packet::MacAddr;
use lumina_rnic::ets::EtsConfig;
use lumina_rnic::profile::DeviceProfile;
use lumina_rnic::qp::{QpConfig, QpEndpoint};
use lumina_rnic::{Rnic, Verb};
use lumina_sim::{Bandwidth, Engine, PortId, SimTime};
use std::net::Ipv4Addr;

/// Upper bound on TX-scan visits per data packet, on either side.
const MAX_VISITS_PER_PACKET: f64 = 4.0;

struct Scan {
    data_packets: u64,
    requester_visits: u64,
    responder_visits: u64,
}

impl Scan {
    fn requester_per_packet(&self) -> f64 {
        self.requester_visits as f64 / self.data_packets as f64
    }

    fn responder_per_packet(&self) -> f64 {
        self.responder_visits as f64 / self.data_packets as f64
    }
}

fn cfg(local: QpEndpoint, remote: QpEndpoint, index: u32) -> QpConfig {
    QpConfig {
        local,
        remote,
        remote_mac: MacAddr::local(9),
        mtu: 1024,
        timeout_code: 14,
        retry_cnt: 7,
        adaptive_retrans: false,
        traffic_class: 0,
        dcqcn_rp: false,
        dcqcn_np: false,
        min_time_between_cnps: SimTime::from_micros(4),
        udp_src_port: 49152 + index as u16,
    }
}

/// `n` write QPs, two 8 KB messages each, one in flight per QP.
fn write_run(n: u32) -> Scan {
    let mut req = Rnic::new(
        DeviceProfile::cx5(),
        EtsConfig::single_queue(),
        MacAddr::local(1),
    );
    let mut rsp = Rnic::new(
        DeviceProfile::cx5(),
        EtsConfig::single_queue(),
        MacAddr::local(2),
    );
    let mut plans = Vec::new();
    // Created in descending QPN order: the device keeps its QPs sorted.
    for i in (0..n).rev() {
        let a = QpEndpoint {
            ip: Ipv4Addr::new(10, 0, 0, 1),
            qpn: 0x1000 + 3 * i,
            ipsn: 100 * i,
        };
        let b = QpEndpoint {
            ip: Ipv4Addr::new(10, 0, 0, 2),
            qpn: 0x8000 + 5 * i,
            ipsn: 7 * i,
        };
        req.create_qp(cfg(a, b, i));
        rsp.create_qp(cfg(b, a, i));
        plans.push(FlowPlan {
            qpn: a.qpn,
            verbs: vec![Verb::Write],
            num_msgs: 2,
            msg_size: 8192,
            tx_depth: 1,
        });
    }
    let metrics = metrics_handle();
    let role = Role::Requester {
        plans,
        barrier_sync: false,
    };
    let mut eng = Engine::new(1);
    let req_id = eng.add_node(Box::new(HostNode::new(req, role, metrics.clone(), "req")));
    let rsp_id = eng.add_node(Box::new(HostNode::new(
        rsp,
        Role::Responder,
        metrics_handle(),
        "rsp",
    )));
    eng.connect(
        req_id,
        PortId(0),
        rsp_id,
        PortId(0),
        Bandwidth::gbps(100),
        SimTime::from_micros(1),
    );
    eng.schedule_timer(req_id, SimTime::ZERO, HostNode::start_token());
    assert!(eng.run(Some(SimTime::from_secs(5))).is_quiescent());
    assert!(metrics.borrow().done(), "{n} QPs: traffic incomplete");

    let mut host = |id| -> HostNode {
        let node: Box<dyn std::any::Any> = eng.remove_node(id);
        *node.downcast::<HostNode>().expect("host node")
    };
    let (req, rsp) = (host(req_id), host(rsp_id));
    let data_packets = req.rnic.counters.tx_packets;
    assert_eq!(data_packets, n as u64 * 2 * 8, "requester sends data only");
    Scan {
        data_packets,
        requester_visits: req.rnic.tx_scan_visits(),
        responder_visits: rsp.rnic.tx_scan_visits(),
    }
}

#[test]
fn tx_scan_visits_per_packet_flat_from_36_to_1000_qps() {
    let runs: Vec<(u32, Scan)> = [36, 512, 1000].map(|n| (n, write_run(n))).into();
    for (n, s) in &runs {
        assert!(
            s.requester_per_packet() <= MAX_VISITS_PER_PACKET,
            "{n} QPs: requester {:.2} visits per data packet",
            s.requester_per_packet()
        );
        assert!(
            s.responder_per_packet() <= MAX_VISITS_PER_PACKET,
            "{n} QPs: responder {:.2} visits per data packet",
            s.responder_per_packet()
        );
    }
    // Flat, not merely bounded: 28x the QPs may not cost a quarter visit
    // more per packet.
    let (small, large) = (&runs[0].1, &runs[2].1);
    assert!(
        large.requester_per_packet() <= small.requester_per_packet() + 0.25,
        "requester visits grow with QP count: {:.2} at 36 QPs, {:.2} at 1000",
        small.requester_per_packet(),
        large.requester_per_packet()
    );
    assert!(
        large.responder_per_packet() <= small.responder_per_packet() + 0.25,
        "responder visits grow with QP count: {:.2} at 36 QPs, {:.2} at 1000",
        small.responder_per_packet(),
        large.responder_per_packet()
    );
}
