//! PCI-e bus model for the emulated discrete architecture.
//!
//! The paper compares the coupled APU against a *discrete* CPU-GPU system by
//! emulating the PCI-e bus with a delay of `latency + size / bandwidth`
//! (Section 5.1), using `latency = 0.015 ms` and `bandwidth = 3 GB/s`.
//! [`PcieSpec`] reproduces exactly that model; the discrete schemes charge
//! it per transfer, which gives the 4–10 % transfer share of Figure 3.

use crate::SimTime;

/// PCI-e link parameters and the transfer-delay model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PcieSpec {
    /// One-way latency per transfer, in milliseconds.
    pub latency_ms: f64,
    /// Sustained bandwidth in GB/s.
    pub bandwidth_gbps: f64,
}

impl PcieSpec {
    /// The bus emulated in the paper: 0.015 ms latency, 3 GB/s bandwidth.
    pub(crate) fn paper_default() -> Self {
        PcieSpec {
            latency_ms: 0.015,
            bandwidth_gbps: 3.0,
        }
    }

    /// Delay of one transfer of `bytes` bytes: `latency + size / bandwidth`.
    pub fn transfer_time(&self, bytes: u64) -> SimTime {
        let latency = SimTime::from_ms(self.latency_ms);
        // bandwidth in GB/s == bytes per nanosecond.
        let payload = SimTime::from_ns(bytes as f64 / self.bandwidth_gbps);
        latency + payload
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_parameters() {
        let p = PcieSpec::paper_default();
        assert_eq!(p.latency_ms, 0.015);
        assert_eq!(p.bandwidth_gbps, 3.0);
    }

    #[test]
    fn transfer_time_matches_formula() {
        let p = PcieSpec::paper_default();
        // 128 MB build relation side (16M tuples x 8 bytes).
        let bytes = 128u64 * 1024 * 1024;
        let t = p.transfer_time(bytes);
        let expected_secs = 0.015e-3 + bytes as f64 / (3.0e9);
        assert!((t.as_secs() - expected_secs).abs() < 1e-9);
    }

    #[test]
    fn zero_bytes_still_pays_latency() {
        let p = PcieSpec::paper_default();
        assert!((p.transfer_time(0).as_ms() - 0.015).abs() < 1e-12);
    }
}
