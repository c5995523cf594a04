//! Link cost models.
//!
//! A [`LinkModel`] turns a frame size into a virtual-time transfer delay and
//! a loss decision. Each network technology in the home (Ethernet, IEEE1394,
//! X10 powerline, RS-232 serial) gets its own parameterisation; see
//! [`crate::netkind`] for presets.

use crate::time::SimDuration;

/// Parameters describing the physical behaviour of one network technology.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkModel {
    /// One-way propagation + processing latency applied to every frame.
    pub latency: SimDuration,
    /// Line rate in bits per second. Zero means "do not model
    /// serialisation delay".
    pub bandwidth_bps: u64,
    /// Per-frame framing overhead in bytes (headers, preambles,
    /// inter-frame gaps expressed as byte-equivalents).
    pub per_frame_overhead: usize,
    /// Maximum payload size; larger sends fail with
    /// [`crate::error::SimError::FrameTooLarge`].
    pub mtu: usize,
    /// Independent probability that any given frame is lost.
    ///
    /// This models powerline noise and collisions statistically; wired
    /// point-to-point links use `0.0`.
    pub loss_prob: f64,
}

impl LinkModel {
    /// A perfect, instantaneous link — useful in unit tests.
    pub fn ideal() -> Self {
        LinkModel {
            latency: SimDuration::ZERO,
            bandwidth_bps: 0,
            per_frame_overhead: 0,
            mtu: usize::MAX,
            loss_prob: 0.0,
        }
    }

    /// The virtual time needed to move a `payload_len`-byte frame across
    /// this link: serialisation of payload plus framing overhead, plus
    /// propagation latency.
    pub fn transfer_time(&self, payload_len: usize) -> SimDuration {
        let wire_bytes = payload_len + self.per_frame_overhead;
        self.latency + SimDuration::transmission(wire_bytes, self.bandwidth_bps)
    }

    /// True if a frame of `payload_len` bytes fits in one MTU.
    pub fn fits(&self, payload_len: usize) -> bool {
        payload_len <= self.mtu
    }

    /// The number of MTU-sized fragments needed for `payload_len` bytes.
    ///
    /// Networks that fragment (HTTP over Ethernet) use this to charge
    /// per-fragment overhead; networks that reject oversized frames
    /// (X10, raw 1394 async) use [`LinkModel::fits`] instead.
    pub fn fragments(&self, payload_len: usize) -> usize {
        if payload_len == 0 || self.mtu == 0 || self.mtu == usize::MAX {
            return 1;
        }
        payload_len.div_ceil(self.mtu)
    }

    /// Transfer time for a payload that is fragmented across MTUs, charging
    /// `per_frame_overhead` once per fragment. Request/response runs over
    /// a stream abstraction (TCP-like), so an oversized payload is
    /// fragmented rather than rejected.
    pub fn fragmented_transfer_time(&self, payload_len: usize) -> SimDuration {
        let frags = self.fragments(payload_len);
        let wire_bytes = payload_len + self.per_frame_overhead * frags;
        self.latency + SimDuration::transmission(wire_bytes, self.bandwidth_bps)
    }
}

impl Default for LinkModel {
    fn default() -> Self {
        LinkModel::ideal()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_link_is_free() {
        let l = LinkModel::ideal();
        assert_eq!(l.transfer_time(1_000_000), SimDuration::ZERO);
        assert!(l.fits(usize::MAX - 1));
        assert_eq!(l.fragments(1_000_000), 1);
    }

    #[test]
    fn transfer_time_includes_overhead_and_latency() {
        let l = LinkModel {
            latency: SimDuration::from_micros(100),
            bandwidth_bps: 8_000_000, // 1 byte per microsecond
            per_frame_overhead: 50,
            mtu: 1500,
            loss_prob: 0.0,
        };
        // 950 payload + 50 overhead = 1000 bytes = 1000us, plus 100us latency.
        assert_eq!(l.transfer_time(950), SimDuration::from_micros(1_100));
    }

    #[test]
    fn fragmentation_counts() {
        let l = LinkModel {
            mtu: 1500,
            ..LinkModel::ideal()
        };
        assert_eq!(l.fragments(0), 1);
        assert_eq!(l.fragments(1500), 1);
        assert_eq!(l.fragments(1501), 2);
        assert_eq!(l.fragments(4500), 3);
    }

    #[test]
    fn fragmented_transfer_charges_per_fragment_overhead() {
        let l = LinkModel {
            latency: SimDuration::ZERO,
            bandwidth_bps: 8_000_000,
            per_frame_overhead: 100,
            mtu: 1000,
            loss_prob: 0.0,
        };
        // 2000 bytes -> 2 fragments -> 2000 + 200 overhead = 2200us.
        assert_eq!(
            l.fragmented_transfer_time(2000),
            SimDuration::from_micros(2_200)
        );
    }
}
