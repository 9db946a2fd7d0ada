//! The Micro Channel DMA engine: message bytes → SCU DMA counter events.
//!
//! Table 1's SCU counters: `user.dma_read` counts transfers from memory to
//! an I/O device (the *sending* side of a message, and disk writes) and
//! `user.dma_write` counts transfers from an I/O device into memory (the
//! *receiving* side, and disk reads). "A single transfer can represent
//! either 4 or 8 words" (§5) — with 4-byte words, 16 or 32 bytes per
//! transfer event.

use sp2_hpm::{EventSet, Signal};

/// Which direction memory is on for a DMA operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DmaSide {
    /// Memory → I/O device (message send, disk write): `dma_read` events.
    FromMemory,
    /// I/O device → memory (message receive, disk read): `dma_write` events.
    ToMemory,
}

/// DMA engine configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DmaConfig {
    /// Words per transfer event (4 or 8).
    pub words_per_transfer: u32,
    /// Bytes per word (4 on the Micro Channel's counting).
    pub bytes_per_word: u32,
}

impl Default for DmaConfig {
    fn default() -> Self {
        DmaConfig {
            words_per_transfer: 8,
            bytes_per_word: 4,
        }
    }
}

/// Converts byte movements into DMA transfer events.
#[derive(Debug, Clone, Default)]
pub struct DmaEngine {
    config: DmaConfig,
    reads: u64,
    writes: u64,
}

impl DmaEngine {
    /// Creates an engine with the given transfer size.
    pub fn new(config: DmaConfig) -> Self {
        DmaEngine {
            config,
            reads: 0,
            writes: 0,
        }
    }

    /// Bytes carried by one transfer event.
    pub fn bytes_per_transfer(&self) -> u64 {
        self.config.words_per_transfer as u64 * self.config.bytes_per_word as u64
    }

    /// Number of transfer events `bytes` requires (rounded up).
    pub fn transfers_for(&self, bytes: u64) -> u64 {
        bytes.div_ceil(self.bytes_per_transfer().max(1))
    }

    /// Accounts a DMA movement of `bytes` on `side`, returning the events
    /// to absorb into the node's monitor.
    pub fn transfer(&mut self, bytes: u64, side: DmaSide) -> EventSet {
        let n = self.transfers_for(bytes);
        let mut e = EventSet::new();
        match side {
            DmaSide::FromMemory => {
                self.reads += n;
                e.bump(Signal::DmaRead, n);
            }
            DmaSide::ToMemory => {
                self.writes += n;
                e.bump(Signal::DmaWrite, n);
            }
        }
        e
    }

    /// Cumulative `dma_read` transfer events.
    pub fn total_reads(&self) -> u64 {
        self.reads
    }

    /// Cumulative `dma_write` transfer events.
    pub fn total_writes(&self) -> u64 {
        self.writes
    }

    /// Bytes/second corresponding to a transfer-event rate, inverting the
    /// paper's own conversion ("0.042e6 reads and writes corresponds to
    /// about 1.3 Mbytes/second").
    pub fn transfers_to_bytes_per_s(&self, transfers_per_s: f64) -> f64 {
        transfers_per_s * self.bytes_per_transfer() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_8_word_transfers() {
        let d = DmaEngine::new(DmaConfig::default());
        assert_eq!(d.bytes_per_transfer(), 32);
        assert_eq!(d.transfers_for(32), 1);
        assert_eq!(d.transfers_for(33), 2);
        assert_eq!(d.transfers_for(0), 0);
    }

    #[test]
    fn four_word_option() {
        let d = DmaEngine::new(DmaConfig {
            words_per_transfer: 4,
            bytes_per_word: 4,
        });
        assert_eq!(d.bytes_per_transfer(), 16);
        assert_eq!(d.transfers_for(4096), 256);
    }

    #[test]
    fn sides_map_to_correct_signals() {
        let mut d = DmaEngine::new(DmaConfig::default());
        let send = d.transfer(1024, DmaSide::FromMemory);
        assert_eq!(send.get(Signal::DmaRead), 32);
        assert_eq!(send.get(Signal::DmaWrite), 0);
        let recv = d.transfer(1024, DmaSide::ToMemory);
        assert_eq!(recv.get(Signal::DmaWrite), 32);
        assert_eq!(d.total_reads(), 32);
        assert_eq!(d.total_writes(), 32);
    }

    #[test]
    fn papers_rate_conversion_holds() {
        let d = DmaEngine::new(DmaConfig::default());
        // 0.042e6 transfers/s x 32 B ≈ 1.34 MB/s — "about 1.3 Mbytes/second".
        let rate = d.transfers_to_bytes_per_s(0.042e6);
        assert!((rate - 1.344e6).abs() < 1e3);
    }
}
