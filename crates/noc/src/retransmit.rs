//! End-to-end retransmission over the unreliable packet network.
//!
//! XY routing drops packets at dead links; a source-side timeout/retry layer
//! recovers deliveries at a latency cost; this module's tests pin it
//! beside `network`'s plain XY and fault-adaptive routing tests.

use crate::network::{Network, PacketId};
use crate::topology::NodeId;
use std::collections::BTreeMap;

/// One logical message tracked by the retransmission layer.
#[derive(Debug, Clone)]
struct Outstanding {
    src: NodeId,
    dst: NodeId,
    first_sent: u64,
    sent_at: u64,
    attempts: u32,
    current: PacketId,
}

/// Outcome of a completed logical message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MessageOutcome {
    /// Logical message id (caller-assigned).
    pub message: u64,
    /// Whether the message was ultimately delivered.
    pub delivered: bool,
    /// Attempts used (1 = no retransmission needed).
    pub attempts: u32,
    /// End-to-end latency in cycles from first send to delivery (0 if lost).
    pub latency: u64,
}

/// Source-side retransmission controller over a [`Network`].
///
/// The controller observes the network's delivery/drop records each cycle —
/// standing in for an acknowledgment channel. Retransmission triggers on
/// either an observed drop or a timeout.
#[derive(Debug)]
pub struct Retransmitter {
    timeout: u64,
    max_attempts: u32,
    outstanding: BTreeMap<u64, Outstanding>,
    packet_to_message: BTreeMap<PacketId, u64>,
    outcomes: Vec<MessageOutcome>,
    next_message: u64,
    processed_deliveries: usize,
    processed_drops: usize,
}

impl Retransmitter {
    /// Creates a controller with the given retry timeout (cycles) and
    /// attempt budget.
    ///
    /// # Panics
    /// Panics if `max_attempts == 0`.
    pub fn new(timeout: u64, max_attempts: u32) -> Self {
        assert!(max_attempts > 0, "need at least one attempt");
        Retransmitter {
            timeout,
            max_attempts,
            outstanding: BTreeMap::new(),
            packet_to_message: BTreeMap::new(),
            outcomes: Vec::new(),
            next_message: 0,
            processed_deliveries: 0,
            processed_drops: 0,
        }
    }

    /// Sends a logical message; returns its id.
    pub fn send(&mut self, net: &mut Network, src: NodeId, dst: NodeId) -> u64 {
        let message = self.next_message;
        self.next_message += 1;
        let packet = net.inject(src, dst, 1);
        let now = net.now();
        self.packet_to_message.insert(packet, message);
        self.outstanding.insert(
            message,
            Outstanding { src, dst, first_sent: now, sent_at: now, attempts: 1, current: packet },
        );
        // inject() delivers src==dst immediately; harvest so the message resolves.
        self.harvest(net);
        message
    }

    /// Processes new network events and fires due retransmissions.
    /// Call once per simulation cycle, after `net.tick()`.
    pub fn harvest(&mut self, net: &mut Network) {
        // New deliveries.
        let deliveries: Vec<(PacketId, u64)> = net.stats().delivered[self.processed_deliveries..]
            .iter()
            .map(|d| (d.packet, d.at))
            .collect();
        self.processed_deliveries = net.stats().delivered.len();
        for (packet, at) in deliveries {
            if let Some(message) = self.packet_to_message.remove(&packet) {
                if let Some(o) = self.outstanding.remove(&message) {
                    self.outcomes.push(MessageOutcome {
                        message,
                        delivered: true,
                        attempts: o.attempts,
                        latency: at - o.first_sent,
                    });
                }
            }
        }
        // New drops → immediate retry (the "ack channel" reports loss).
        let drops: Vec<PacketId> =
            net.stats().dropped[self.processed_drops..].iter().map(|d| d.packet).collect();
        self.processed_drops = net.stats().dropped.len();
        for packet in drops {
            if let Some(message) = self.packet_to_message.remove(&packet) {
                self.retry(net, message);
            }
        }
        // Timeouts.
        let now = net.now();
        let due: Vec<u64> = self
            .outstanding
            .iter()
            .filter(|(_, o)| now.saturating_sub(o.sent_at) >= self.timeout)
            .map(|(m, _)| *m)
            .collect();
        for message in due {
            if let Some(o) = self.outstanding.get(&message) {
                self.packet_to_message.remove(&o.current);
            }
            self.retry(net, message);
        }
    }

    fn retry(&mut self, net: &mut Network, message: u64) {
        let Some(o) = self.outstanding.get_mut(&message) else { return };
        if o.attempts >= self.max_attempts {
            let o = self.outstanding.remove(&message).expect("present");
            self.outcomes.push(MessageOutcome {
                message,
                delivered: false,
                attempts: o.attempts,
                latency: 0,
            });
            return;
        }
        o.attempts += 1;
        o.sent_at = net.now();
        let packet = net.inject(o.src, o.dst, 1);
        o.current = packet;
        self.packet_to_message.insert(packet, message);
    }

    /// Messages still awaiting resolution.
    pub fn pending(&self) -> usize {
        self.outstanding.len()
    }

    /// Completed message outcomes.
    pub fn outcomes(&self) -> &[MessageOutcome] {
        &self.outcomes
    }

    /// Fraction of resolved messages that were delivered.
    pub fn delivery_ratio(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 1.0;
        }
        self.outcomes.iter().filter(|o| o.delivered).count() as f64 / self.outcomes.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::NetworkConfig;
    use crate::topology::{Direction, LinkId, Mesh2d};

    fn run(net: &mut Network, rt: &mut Retransmitter, cycles: u64) {
        for _ in 0..cycles {
            net.tick();
            rt.harvest(net);
            if rt.pending() == 0 {
                break;
            }
        }
    }

    #[test]
    fn clean_network_single_attempt() {
        let mut net = Network::new(Mesh2d::new(4, 4), NetworkConfig::default());
        let mut rt = Retransmitter::new(50, 3);
        let s = net.mesh().node_at(0, 0).unwrap();
        let d = net.mesh().node_at(3, 3).unwrap();
        rt.send(&mut net, s, d);
        run(&mut net, &mut rt, 500);
        assert_eq!(rt.outcomes().len(), 1);
        let o = rt.outcomes()[0];
        assert!(o.delivered);
        assert_eq!(o.attempts, 1);
        assert_eq!(o.latency, 6);
    }

    #[test]
    fn retry_recovers_after_link_repair() {
        let mut net = Network::new(Mesh2d::new(4, 1), NetworkConfig::default());
        let s = net.mesh().node_at(0, 0).unwrap();
        let d = net.mesh().node_at(3, 0).unwrap();
        let mid = net.mesh().node_at(1, 0).unwrap();
        let link = LinkId { from: mid, dir: Direction::East.into() };
        net.kill_link(link);
        let mut rt = Retransmitter::new(50, 5);
        rt.send(&mut net, s, d);
        // First attempt hits the dead link and is dropped; revive before retry resolves.
        for _ in 0..3 {
            net.tick();
            rt.harvest(&mut net);
        }
        net.revive_link(link);
        run(&mut net, &mut rt, 500);
        assert_eq!(rt.outcomes().len(), 1);
        let o = rt.outcomes()[0];
        assert!(o.delivered, "retry after repair must succeed");
        assert!(o.attempts >= 2);
    }

    #[test]
    fn gives_up_after_max_attempts() {
        let mut net = Network::new(Mesh2d::new(4, 1), NetworkConfig::default());
        let s = net.mesh().node_at(0, 0).unwrap();
        let d = net.mesh().node_at(3, 0).unwrap();
        net.kill_link(LinkId { from: s, dir: Direction::East.into() });
        let mut rt = Retransmitter::new(10, 3);
        rt.send(&mut net, s, d);
        run(&mut net, &mut rt, 1000);
        assert_eq!(rt.outcomes().len(), 1);
        let o = rt.outcomes()[0];
        assert!(!o.delivered);
        assert_eq!(o.attempts, 3);
        assert_eq!(rt.delivery_ratio(), 0.0);
    }

    #[test]
    fn self_send_resolves_immediately() {
        let mut net = Network::new(Mesh2d::new(2, 2), NetworkConfig::default());
        let mut rt = Retransmitter::new(10, 3);
        let a = net.mesh().node_at(0, 0).unwrap();
        rt.send(&mut net, a, a);
        assert_eq!(rt.pending(), 0);
        assert!(rt.outcomes()[0].delivered);
    }
}
