//! The High Performance Switch: latency/bandwidth timing model.

/// Switch parameters (paper §2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwitchConfig {
    /// One-way message latency in seconds (~45 µs).
    pub latency_s: f64,
    /// Node-to-node bandwidth in bytes/second (34 MB/s).
    pub bandwidth_bytes_per_s: f64,
}

impl Default for SwitchConfig {
    fn default() -> Self {
        SwitchConfig {
            latency_s: 45e-6,
            bandwidth_bytes_per_s: 34e6,
        }
    }
}

/// The switch fabric: times transfers and tracks per-node link busy time.
///
/// Aggregate bandwidth scales linearly with node count (every node has its
/// own adapter/link); the only serialization is at each node's own link.
#[derive(Debug, Clone)]
pub struct HpsSwitch {
    config: SwitchConfig,
    /// Time each node's link becomes free, in seconds.
    link_free: Vec<f64>,
    /// Total bytes moved (diagnostics).
    bytes_moved: u64,
}

impl HpsSwitch {
    /// Creates the fabric for `nodes` nodes.
    pub fn new(nodes: usize, config: SwitchConfig) -> Self {
        HpsSwitch {
            config,
            link_free: vec![0.0; nodes],
            bytes_moved: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> SwitchConfig {
        self.config
    }

    /// Pure transfer time for `bytes` between two nodes, ignoring link
    /// occupancy: latency + serialization.
    pub fn transfer_time(&self, bytes: u64) -> f64 {
        self.config.latency_s + bytes as f64 / self.config.bandwidth_bytes_per_s
    }

    /// Sends `bytes` from `src` to `dst` starting no earlier than `now`;
    /// returns the completion time. Both endpoints' links are occupied for
    /// the serialization period.
    ///
    /// # Panics
    /// Panics on out-of-range nodes or `src == dst` (loopback needs no
    /// switch and would corrupt the link accounting).
    pub fn send(&mut self, src: usize, dst: usize, bytes: u64, now: f64) -> f64 {
        assert!(src != dst, "loopback messages do not cross the switch");
        assert!(src < self.link_free.len() && dst < self.link_free.len());
        let start = now.max(self.link_free[src]).max(self.link_free[dst]);
        let ser = bytes as f64 / self.config.bandwidth_bytes_per_s;
        let link_busy_until = start + ser;
        self.link_free[src] = link_busy_until;
        self.link_free[dst] = link_busy_until;
        self.bytes_moved += bytes;
        start + self.config.latency_s + ser
    }

    /// Time of an n-node nearest-neighbor halo exchange where every node
    /// simultaneously exchanges `bytes` with `neighbors` peers. With
    /// per-link serialization and linear fabric scaling this is
    /// independent of the node count — the property NAS validated.
    pub fn exchange_time(&self, bytes: u64, neighbors: u32) -> f64 {
        self.config.latency_s + neighbors as f64 * bytes as f64 / self.config.bandwidth_bytes_per_s
    }

    /// Total bytes the fabric has carried.
    pub fn bytes_moved(&self) -> u64 {
        self.bytes_moved
    }

    /// Clears link occupancy (new simulation epoch).
    pub fn reset(&mut self) {
        self.link_free.fill(0.0);
        self.bytes_moved = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_latency_plus_serialization() {
        let s = HpsSwitch::new(4, SwitchConfig::default());
        let t = s.transfer_time(34_000_000);
        assert!(
            (t - (45e-6 + 1.0)).abs() < 1e-9,
            "34 MB takes 1 s + latency"
        );
        let small = s.transfer_time(0);
        assert!((small - 45e-6).abs() < 1e-12);
    }

    #[test]
    fn sends_serialize_on_shared_link() {
        let mut s = HpsSwitch::new(4, SwitchConfig::default());
        let bytes = 3_400_000; // 0.1 s serialization
        let t1 = s.send(0, 1, bytes, 0.0);
        let t2 = s.send(0, 2, bytes, 0.0); // same source link
        assert!((t1 - (45e-6 + 0.1)).abs() < 1e-9);
        assert!(t2 > t1, "second send must wait for node 0's link");
        assert!((t2 - (0.1 + 45e-6 + 0.1)).abs() < 1e-6);
    }

    #[test]
    fn disjoint_pairs_do_not_contend() {
        let mut s = HpsSwitch::new(4, SwitchConfig::default());
        let bytes = 3_400_000;
        let t1 = s.send(0, 1, bytes, 0.0);
        let t2 = s.send(2, 3, bytes, 0.0);
        assert!(
            (t1 - t2).abs() < 1e-12,
            "linear scaling: no cross-pair contention"
        );
    }

    #[test]
    fn exchange_time_independent_of_cluster_size() {
        let small = HpsSwitch::new(8, SwitchConfig::default());
        let large = HpsSwitch::new(144, SwitchConfig::default());
        let a = small.exchange_time(65536, 6);
        let b = large.exchange_time(65536, 6);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "loopback")]
    fn loopback_rejected() {
        let mut s = HpsSwitch::new(2, SwitchConfig::default());
        s.send(1, 1, 10, 0.0);
    }

    #[test]
    fn bytes_accounting_and_reset() {
        let mut s = HpsSwitch::new(3, SwitchConfig::default());
        s.send(0, 1, 100, 0.0);
        s.send(1, 2, 50, 0.0);
        assert_eq!(s.bytes_moved(), 150);
        s.reset();
        assert_eq!(s.bytes_moved(), 0);
        let t = s.send(0, 1, 0, 0.0);
        assert!((t - 45e-6).abs() < 1e-12, "links free after reset");
    }
}
