//! QP storage for the device model: a slab of QPs indexed in QPN order,
//! with an "active" bitset over the QPN-ordered slots.
//!
//! The transmit scheduler must find the QPs with data to send without
//! walking every QP on every decision. The slab keeps one invariant: any QP
//! with `has_tx_work() || has_read_resp_work()` has its active bit set.
//! Work only ever appears through a mutation of the QP, so every mutable
//! access ([`QpSlab::get_mut`]) sets the bit; a TX scan that visits a set
//! bit whose QP turns out idle clears it. Each decision therefore costs
//! the active QPs it looks at plus, amortised, one visit per wake-up.
//!
//! The bitset words are `Cell`s so a scan can clear idle bits through the
//! shared borrow the scheduler's cloneable candidate iterator needs.

use crate::qp::Qp;
use std::cell::Cell;
use std::ops::Index;

/// QPs in QPN-ordered slots plus the active bitset over the slots.
#[derive(Default)]
pub(crate) struct QpSlab {
    /// Sorted QPNs; slot `i` holds QP `qpns[i]`.
    qpns: Vec<u32>,
    /// Slot `i`'s QP is `qps[store[i]]`. QPs stay where they were created,
    /// so a sorted insert shifts two `u32` arrays, not whole QPs.
    store: Vec<u32>,
    qps: Vec<Qp>,
    /// Bit `i` set: slot `i` may have TX or read-response work.
    active: Vec<Cell<u64>>,
    /// QP slots visited by TX scans (host-independent work counter).
    visits: Cell<u64>,
}

impl QpSlab {
    fn slot(&self, qpn: u32) -> Option<usize> {
        self.qpns.binary_search(&qpn).ok()
    }

    /// Install `qp` under `qpn`; `false` (and no change) if the QPN is
    /// taken. Slots shift, so every bit is set again: an over-approximate
    /// active set is valid, and the next scans clear the idle ones.
    pub(crate) fn insert(&mut self, qpn: u32, qp: Qp) -> bool {
        let Err(at) = self.qpns.binary_search(&qpn) else {
            return false;
        };
        self.qpns.insert(at, qpn);
        self.store.insert(at, self.qps.len() as u32);
        self.qps.push(qp);
        self.active = vec![Cell::new(u64::MAX); self.qps.len().div_ceil(64)];
        true
    }

    /// Number of QPs.
    pub(crate) fn len(&self) -> usize {
        self.qps.len()
    }

    /// All QPNs, ascending.
    pub(crate) fn qpns(&self) -> &[u32] {
        &self.qpns
    }

    pub(crate) fn contains(&self, qpn: u32) -> bool {
        self.slot(qpn).is_some()
    }

    pub(crate) fn get(&self, qpn: u32) -> Option<&Qp> {
        self.slot(qpn).map(|i| self.at(i))
    }

    /// Mutably borrow a QP, marking it active: the only way to reach a
    /// `&mut Qp`, so no mutation can give a QP work behind the scheduler's
    /// back.
    pub(crate) fn get_mut(&mut self, qpn: u32) -> Option<&mut Qp> {
        let i = self.slot(qpn)?;
        let word = &self.active[i / 64];
        word.set(word.get() | 1 << (i % 64));
        Some(&mut self.qps[self.store[i] as usize])
    }

    fn at(&self, slot: usize) -> &Qp {
        &self.qps[self.store[slot] as usize]
    }

    /// QPNs are stable, slots are not; resolve a scan's slot to its QPN.
    pub(crate) fn qpn_at(&self, slot: usize) -> u32 {
        self.qpns[slot]
    }

    /// QP slots visited by TX scans so far.
    pub(crate) fn scan_visits(&self) -> u64 {
        self.visits.get()
    }

    /// The active QPs in rotation order: slots `start..len` then
    /// `0..start`, skipping clear bits and clearing the bits of idle QPs
    /// it passes. Clones walk independently and see bits earlier walks
    /// cleared, which only ever removes idle QPs.
    pub(crate) fn active_from(&self, start: usize) -> ActiveScan<'_> {
        ActiveScan {
            slab: self,
            cursor: start,
            end: self.qps.len(),
            wrap_end: Some(start),
        }
    }

    /// Full-scan check of the invariant: every QP with work is active.
    #[cfg(debug_assertions)]
    pub(crate) fn assert_active_covers_work(&self) {
        for i in 0..self.qps.len() {
            assert!(
                self.is_active(i) || !has_work(self.at(i)),
                "QP {:#x} has TX work but its active bit is clear",
                self.qpns[i]
            );
        }
    }

    #[cfg(debug_assertions)]
    fn is_active(&self, slot: usize) -> bool {
        self.active[slot / 64].get() >> (slot % 64) & 1 == 1
    }

    fn clear(&self, slot: usize) {
        let word = &self.active[slot / 64];
        word.set(word.get() & !(1 << (slot % 64)));
    }

    /// First set bit in `from..end`.
    fn next_set(&self, from: usize, end: usize) -> Option<usize> {
        let mut i = from;
        while i < end {
            let bits = self.active[i / 64].get() >> (i % 64);
            if bits != 0 {
                let slot = i + bits.trailing_zeros() as usize;
                return (slot < end).then_some(slot);
            }
            i = (i / 64 + 1) * 64;
        }
        None
    }
}

impl Index<u32> for QpSlab {
    type Output = Qp;

    fn index(&self, qpn: u32) -> &Qp {
        self.get(qpn)
            .unwrap_or_else(|| panic!("unknown QP {qpn:#x}"))
    }
}

fn has_work(qp: &Qp) -> bool {
    qp.has_tx_work() || qp.has_read_resp_work()
}

/// Iterator of [`QpSlab::active_from`]: `(slot, qp)` of every QP with work.
#[derive(Clone)]
pub(crate) struct ActiveScan<'a> {
    slab: &'a QpSlab,
    cursor: usize,
    end: usize,
    /// End of the wrapped second leg (`0..start`), until it is entered.
    wrap_end: Option<usize>,
}

impl<'a> Iterator for ActiveScan<'a> {
    type Item = (usize, &'a Qp);

    fn next(&mut self) -> Option<(usize, &'a Qp)> {
        loop {
            let Some(slot) = self.slab.next_set(self.cursor, self.end) else {
                self.end = self.wrap_end.take()?;
                self.cursor = 0;
                continue;
            };
            self.cursor = slot + 1;
            let visits = &self.slab.visits;
            visits.set(visits.get() + 1);
            let qp = self.slab.at(slot);
            if has_work(qp) {
                return Some((slot, qp));
            }
            self.slab.clear(slot);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qp::{QpConfig, QpEndpoint};
    use crate::verbs::{Verb, WorkRequest};
    use lumina_packet::MacAddr;
    use lumina_sim::SimTime;
    use std::net::Ipv4Addr;

    fn qp(qpn: u32) -> Qp {
        let end = |qpn| QpEndpoint {
            ip: Ipv4Addr::new(10, 0, 0, 1),
            qpn,
            ipsn: 0,
        };
        Qp::new(QpConfig {
            local: end(qpn),
            remote: end(qpn + 1),
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
        })
    }

    fn post(slab: &mut QpSlab, qpn: u32) {
        slab.get_mut(qpn).unwrap().push_wqe(WorkRequest {
            wr_id: 1,
            verb: Verb::Write,
            len: 100,
        });
    }

    fn order(slab: &QpSlab, start: usize) -> Vec<u32> {
        slab.active_from(start)
            .map(|(slot, _)| slab.qpn_at(slot))
            .collect()
    }

    #[test]
    fn slots_stay_qpn_sorted() {
        let mut slab = QpSlab::default();
        for qpn in [0x300, 0x100, 0x200] {
            assert!(slab.insert(qpn, qp(qpn)));
        }
        assert!(!slab.insert(0x200, qp(0x200)));
        assert_eq!(slab.qpns(), &[0x100, 0x200, 0x300]);
        assert_eq!(slab[0x200].cfg.local.qpn, 0x200);
        assert!(slab.get(0x250).is_none());
    }

    #[test]
    fn scan_rotates_and_clears_idle_bits() {
        let mut slab = QpSlab::default();
        for qpn in 0..130 {
            slab.insert(qpn, qp(qpn));
        }
        for qpn in [3, 70, 129] {
            post(&mut slab, qpn);
        }
        // The first walk visits every freshly inserted slot and clears
        // the idle ones; later walks visit only the three active QPs.
        assert_eq!(order(&slab, 71), vec![129, 3, 70]);
        assert_eq!(slab.scan_visits(), 130);
        assert_eq!(order(&slab, 0), vec![3, 70, 129]);
        assert_eq!(order(&slab, 70), vec![70, 129, 3]);
        assert_eq!(slab.scan_visits(), 136);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "active bit is clear")]
    fn guard_catches_work_behind_a_clear_bit() {
        let mut slab = QpSlab::default();
        slab.insert(7, qp(7));
        assert_eq!(order(&slab, 0), Vec::<u32>::new());
        // Work given without `get_mut` leaves the bit clear.
        slab.qps[0].push_wqe(WorkRequest {
            wr_id: 1,
            verb: Verb::Write,
            len: 100,
        });
        slab.assert_active_covers_work();
    }

    #[test]
    fn mutable_access_reactivates() {
        let mut slab = QpSlab::default();
        slab.insert(7, qp(7));
        assert_eq!(order(&slab, 0), Vec::<u32>::new());
        post(&mut slab, 7);
        assert_eq!(order(&slab, 0), vec![7]);
    }
}
