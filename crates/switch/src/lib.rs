//! SP2 High Performance Switch model.
//!
//! The paper's network (§2, Stunkel et al. 1995): ~45 µs latency,
//! 34 Mbyte/s node-to-node bandwidth, with aggregate bandwidth scaling
//! linearly in the number of processors and "little performance
//! degradation … under a full load of message-passing jobs". That last
//! observation is why the model charges per-*link* serialization but no
//! global contention.
//!
//! Message-passing lands in the HPM's **SCU DMA counters**: the adapters
//! sit on the Micro Channel and move data by DMA, "a single transfer can
//! represent either 4 or 8 words" (§5). [`dma::DmaEngine`] converts
//! message bytes into those transfer events so cluster-level DMA rates
//! (Table 3's I/O rows, the 1.3 MB/s ≈ 4 % of bandwidth analysis) come
//! out of the same counting rule the hardware used.

#![cfg_attr(
    not(test),
    warn(
        unused_crate_dependencies,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic
    )
)]
pub mod dma;
pub mod hps;
pub mod message;

pub use dma::{DmaEngine, DmaSide};
pub use hps::{HpsSwitch, SwitchConfig};
pub use message::{halo_bytes, Message};
