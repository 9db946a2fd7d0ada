//! The paging model: memory oversubscription → system-mode time.
//!
//! §6 of the paper: jobs requesting more than 64 nodes showed *system*
//! FXU/ICU instruction counts exceeding their user counts; "evidently
//! these processes were paging data, and discussions with the users
//! confirmed this suspicion". The mechanism on AIX: automatic arrays
//! oversubscribe node memory, the VMM's page-replacement daemon and
//! fault handlers burn CPU in system mode, and hard faults wait on disk.
//!
//! We model the *time split* of a wall-clock second on a paging node:
//! a system share (the measured page-fault-handler signature runs for
//! that share), an I/O-wait share (no instructions, disk DMA traffic),
//! and the remaining user share (the job's own signature runs for it).

/// Parameters of the oversubscription → time-split map.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PagingModel {
    /// System-share slope per unit of oversubscription excess.
    pub sys_slope: f64,
    /// Cap on the system share.
    pub sys_cap: f64,
    /// I/O-wait slope per unit of oversubscription excess.
    pub io_slope: f64,
    /// Cap on the I/O-wait share.
    pub io_cap: f64,
    /// Floor on the user share (a paging job still makes *some* progress).
    pub user_floor: f64,
    /// Background system share on a healthy node (clock ticks, daemons).
    pub base_sys: f64,
    /// Disk bandwidth consumed by hard paging at full I/O share, B/s.
    pub page_disk_bandwidth: f64,
}

impl Default for PagingModel {
    fn default() -> Self {
        PagingModel {
            sys_slope: 1.0,
            sys_cap: 0.60,
            io_slope: 0.5,
            io_cap: 0.25,
            user_floor: 0.06,
            base_sys: 0.01,
            page_disk_bandwidth: 4.0e6,
        }
    }
}

/// The time split of one wall second on a node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeSplit {
    /// Fraction running the job's own (user-mode) code.
    pub user: f64,
    /// Fraction in the VMM fault path (system mode).
    pub system: f64,
    /// Fraction stalled on paging disk I/O.
    pub io_wait: f64,
}

impl PagingModel {
    /// Computes the time split for a job with memory oversubscription
    /// ratio `oversub` (working set / node memory) that additionally
    /// loses `comm_frac` of wall time to message passing.
    pub fn split(&self, oversub: f64, comm_frac: f64) -> TimeSplit {
        let excess = (oversub - 1.0).max(0.0);
        let system = (self.base_sys + self.sys_slope * excess).min(self.sys_cap);
        let io_wait = (self.io_slope * excess).min(self.io_cap);
        let user = (1.0 - system - io_wait - comm_frac.clamp(0.0, 0.9)).max(self.user_floor);
        TimeSplit {
            user,
            system,
            io_wait,
        }
    }

    /// Paging disk traffic (bytes/second each way) at a given I/O share.
    pub fn paging_disk_rate(&self, io_wait: f64) -> f64 {
        self.page_disk_bandwidth * (io_wait / self.io_cap.max(1e-9)).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fitting_job_is_almost_all_user() {
        let m = PagingModel::default();
        let s = m.split(0.7, 0.0);
        assert!(s.user > 0.95);
        assert!(s.system < 0.02);
        assert_eq!(s.io_wait, 0.0);
    }

    #[test]
    fn splits_sum_at_most_one() {
        let m = PagingModel::default();
        for oversub in [0.5, 1.0, 1.2, 1.5, 2.0, 3.0] {
            for comm in [0.0, 0.1, 0.5] {
                let s = m.split(oversub, comm);
                assert!(s.user + s.system + s.io_wait <= 1.0 + m.user_floor + 1e-9);
                assert!(s.user >= m.user_floor - 1e-12);
            }
        }
    }

    #[test]
    fn oversubscription_monotonically_starves_user_time() {
        let m = PagingModel::default();
        let mut prev = f64::INFINITY;
        for i in 0..20 {
            let oversub = 1.0 + i as f64 * 0.1;
            let s = m.split(oversub, 0.0);
            assert!(s.user <= prev + 1e-12);
            prev = s.user;
        }
    }

    #[test]
    fn heavy_paging_reaches_the_caps() {
        let m = PagingModel::default();
        let s = m.split(2.5, 0.0);
        assert!((s.system - m.sys_cap).abs() < 1e-12);
        assert!((s.io_wait - m.io_cap).abs() < 1e-12);
        assert!((s.user - (1.0 - m.sys_cap - m.io_cap)).abs() < 1e-9);
    }

    #[test]
    fn system_over_user_exceeds_one_when_paging_hard() {
        // The §6 signature: with our handler ≈0.5 FXU/cycle and the CFD
        // kernel ≈1.0 FXU/cycle, sys instr > user instr needs
        // system_share × 0.5 > user_share × 1.0.
        let m = PagingModel::default();
        let s = m.split(1.8, 0.1);
        assert!(
            s.system * 0.5 > s.user * 1.0,
            "heavy oversubscription must flip the system/user balance ({s:?})"
        );
    }

    #[test]
    fn disk_rate_scales_with_io_share() {
        let m = PagingModel::default();
        assert_eq!(m.paging_disk_rate(0.0), 0.0);
        let half = m.paging_disk_rate(m.io_cap / 2.0);
        let full = m.paging_disk_rate(m.io_cap);
        assert!((half * 2.0 - full).abs() < 1e-6);
        assert!((full - m.page_disk_bandwidth).abs() < 1e-6);
    }
}
