//! The PBS scheduler: FCFS with backfill and drain-for-large-jobs.

use crate::error::PbsError;
use crate::job::{JobId, JobSpec, JobState};
use std::collections::{HashMap, VecDeque};

/// A job the scheduler just started (prologue hook payload).
#[derive(Debug, Clone, PartialEq)]
pub struct StartedJob {
    /// The job's spec.
    pub spec: JobSpec,
    /// The dedicated nodes it received.
    pub nodes: Vec<usize>,
    /// Start time, seconds.
    pub start: f64,
}

/// The batch system: node pool, queue, and running set.
///
/// ```
/// use sp2_pbs::{JobId, JobSpec, Pbs};
///
/// let mut pbs = Pbs::new(144);
/// pbs.submit(JobSpec {
///     id: JobId(1),
///     nodes: 16,
///     requested_walltime_s: 3_600.0,
///     payload: 0,
/// })
/// .unwrap();
/// let started = pbs.schedule(0.0);
/// assert_eq!(started[0].nodes.len(), 16);
/// pbs.finish(JobId(1), 3_600.0).unwrap();
/// assert_eq!(pbs.free_nodes(), 144);
/// ```
#[derive(Debug, Clone)]
pub struct Pbs {
    /// `Some(job)` when the node is dedicated to that job.
    node_owner: Vec<Option<JobId>>,
    /// Nodes the operator (or a failure) removed from service; offline
    /// nodes are never allocated.
    offline: Vec<bool>,
    queue: VecDeque<JobSpec>,
    running: HashMap<JobId, StartedJob>,
    states: HashMap<JobId, JobState>,
    /// Node count above which a job forces queue draining (64 at NAS).
    drain_threshold: u32,
    /// How deep backfill may look past the queue head.
    backfill_depth: usize,
}

impl Pbs {
    /// Creates a PBS instance managing `nodes` nodes with the NAS drain
    /// threshold of 64.
    pub fn new(nodes: usize) -> Self {
        Pbs {
            node_owner: vec![None; nodes],
            offline: vec![false; nodes],
            queue: VecDeque::new(),
            running: HashMap::new(),
            states: HashMap::new(),
            drain_threshold: 64,
            backfill_depth: 16,
        }
    }

    /// Overrides the drain threshold (ablation).
    pub fn with_drain_threshold(mut self, t: u32) -> Self {
        self.drain_threshold = t;
        self
    }

    /// Total node count.
    pub fn node_count(&self) -> usize {
        self.node_owner.len()
    }

    /// Nodes currently idle and in service (allocatable).
    pub fn free_nodes(&self) -> usize {
        self.node_owner
            .iter()
            .zip(&self.offline)
            .filter(|(o, &off)| o.is_none() && !off)
            .count()
    }

    /// Nodes currently dedicated to jobs.
    pub fn busy_nodes(&self) -> usize {
        self.node_owner.iter().filter(|o| o.is_some()).count()
    }

    /// Nodes currently in service (online), busy or free.
    pub fn online_nodes(&self) -> usize {
        self.offline.iter().filter(|&&off| !off).count()
    }

    /// Jobs waiting in the queue.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Jobs currently running.
    pub fn running(&self) -> usize {
        self.running.len()
    }

    /// State of a job, if known.
    pub fn state(&self, id: JobId) -> Option<&JobState> {
        self.states.get(&id)
    }

    /// Submits a job to the queue. Rejects requests for zero nodes or
    /// for more nodes than the machine has (even offline ones — outages
    /// are transient, so such jobs wait rather than bounce).
    pub fn submit(&mut self, spec: JobSpec) -> Result<(), PbsError> {
        if spec.nodes == 0 {
            return Err(PbsError::ZeroNodeRequest { id: spec.id });
        }
        if spec.nodes as usize > self.node_count() {
            return Err(PbsError::OversizedRequest {
                id: spec.id,
                requested: spec.nodes,
                machine: self.node_count(),
            });
        }
        self.states.insert(spec.id, JobState::Queued);
        self.queue.push_back(spec);
        crate::metrics::SUBMITTED.inc();
        crate::metrics::QUEUE_DEPTH_MAX.record(self.queue.len() as u64);
        crate::metrics::QUEUE_DEPTH.set(self.queue.len() as f64);
        Ok(())
    }

    /// Puts a killed job's spec back at the head of the queue (the
    /// requeue-on-node-failure path; it retries before new arrivals).
    pub fn requeue(&mut self, spec: JobSpec) {
        self.states.insert(spec.id, JobState::Queued);
        self.queue.push_front(spec);
        crate::metrics::REQUEUED.inc();
        crate::metrics::QUEUE_DEPTH_MAX.record(self.queue.len() as u64);
        crate::metrics::QUEUE_DEPTH.set(self.queue.len() as f64);
    }

    fn allocate(&mut self, n: u32) -> Option<Vec<usize>> {
        let free: Vec<usize> = self
            .node_owner
            .iter()
            .enumerate()
            .filter_map(|(i, o)| (o.is_none() && !self.offline[i]).then_some(i))
            .take(n as usize)
            .collect();
        (free.len() == n as usize).then_some(free)
    }

    fn start(&mut self, spec: JobSpec, nodes: Vec<usize>, now: f64) -> StartedJob {
        for &n in &nodes {
            self.node_owner[n] = Some(spec.id);
        }
        let job = StartedJob {
            spec,
            nodes: nodes.clone(),
            start: now,
        };
        self.states
            .insert(job.spec.id, JobState::Running { start: now, nodes });
        self.running.insert(job.spec.id, job.clone());
        crate::metrics::STARTED.inc();
        job
    }

    /// Runs one scheduling pass at time `now`, starting every job the
    /// policy allows. Returns the started jobs (prologue order).
    ///
    /// Policy: start the head while it fits. If the head does not fit and
    /// needs more than the drain threshold, *drain* — start nothing else
    /// so the machine empties for it. Otherwise backfill: start any of
    /// the next `backfill_depth` jobs that fit.
    pub fn schedule(&mut self, now: f64) -> Vec<StartedJob> {
        let mut started = Vec::new();
        // Phase 1: start from the head while possible.
        while let Some(head) = self.queue.front() {
            if head.nodes as usize > self.free_nodes() {
                break;
            }
            let Some(spec) = self.queue.pop_front() else {
                break;
            };
            match self.allocate(spec.nodes) {
                Some(nodes) => started.push(self.start(spec, nodes, now)),
                None => {
                    // free_nodes() said it fits; allocate() cannot
                    // disagree, but restore the queue rather than panic.
                    debug_assert!(false, "allocate disagreed with free_nodes");
                    self.queue.push_front(spec);
                    break;
                }
            }
        }
        // Phase 2: head blocked. Drain for large jobs, else backfill.
        if let Some(head) = self.queue.front() {
            if head.needs_drain(self.drain_threshold) && sp2_trace::recording() {
                // The machine is emptying for a wide job — worth a mark
                // on the simulated timeline (Figure 5's interventions).
                sp2_trace::events::sim_instant(format!("drain for job {}", head.id.0), "pbs", now);
            }
            if !head.needs_drain(self.drain_threshold) {
                let mut i = 1;
                while i < self.queue.len().min(1 + self.backfill_depth) {
                    let fits = self.queue[i].nodes as usize <= self.free_nodes();
                    if fits {
                        if let Some(spec) = self.queue.remove(i) {
                            if let Some(nodes) = self.allocate(spec.nodes) {
                                started.push(self.start(spec, nodes, now));
                                // Do not advance: removal shifted the queue.
                                continue;
                            }
                            debug_assert!(false, "allocate disagreed with free_nodes");
                            self.queue.insert(i, spec);
                        }
                        i += 1;
                    } else {
                        i += 1;
                    }
                }
            }
        }
        crate::metrics::QUEUE_DEPTH.set(self.queue.len() as f64);
        started
    }

    /// Whether a [`Pbs::schedule`] pass right now would start at least
    /// one job — the same policy as `schedule`, evaluated without side
    /// effects (no allocation, no state or metric changes).
    ///
    /// The answer is exact, not conservative: `schedule` starts a job
    /// only when the head fits the free pool, or when the head is
    /// blocked without draining and one of the next `backfill_depth`
    /// queued jobs fits. Free nodes only shrink as jobs start, so if no
    /// candidate fits the *current* pool, the pass starts nothing. The
    /// cluster engine's fast-forward leans on this to classify a `Submit`
    /// that merely queues as non-mutating: node state cannot change when
    /// nothing starts.
    pub fn would_start(&self) -> bool {
        let Some(head) = self.queue.front() else {
            return false;
        };
        let free = self.free_nodes();
        if head.nodes as usize <= free {
            return true;
        }
        if head.needs_drain(self.drain_threshold) {
            return false;
        }
        self.queue
            .iter()
            .skip(1)
            .take(self.backfill_depth)
            .any(|j| j.nodes as usize <= free)
    }

    fn release(&mut self, id: JobId, now: f64, killed: bool) -> Result<StartedJob, PbsError> {
        let Some(job) = self.running.remove(&id) else {
            return Err(PbsError::NotRunning { id });
        };
        for &n in &job.nodes {
            debug_assert_eq!(self.node_owner[n], Some(id));
            self.node_owner[n] = None;
        }
        let state = if killed {
            JobState::Killed {
                start: job.start,
                end: now,
            }
        } else {
            JobState::Done {
                start: job.start,
                end: now,
            }
        };
        self.states.insert(id, state);
        Ok(job)
    }

    /// Completes a running job at time `now`, freeing its nodes and
    /// returning its record data (epilogue hook payload).
    pub fn finish(&mut self, id: JobId, now: f64) -> Result<StartedJob, PbsError> {
        self.release(id, now, false)
    }

    /// Kills a running job at time `now` (node failure or operator
    /// `qdel`), freeing its nodes. No epilogue runs for killed jobs.
    pub fn kill(&mut self, id: JobId, now: f64) -> Result<StartedJob, PbsError> {
        self.release(id, now, true)
    }

    /// Takes a node out of service (failure or maintenance). Returns the
    /// job occupying it, if any — the caller decides whether to kill or
    /// requeue that job; until then the node stays assigned to it.
    pub fn take_node_offline(&mut self, node: usize) -> Option<JobId> {
        self.offline[node] = true;
        self.node_owner[node]
    }

    /// Returns a repaired node to service.
    pub fn bring_node_online(&mut self, node: usize) {
        self.offline[node] = false;
    }

    /// Whether a node is currently out of service.
    pub fn is_offline(&self, node: usize) -> bool {
        self.offline[node]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(id: u64, nodes: u32) -> JobSpec {
        JobSpec {
            id: JobId(id),
            nodes,
            requested_walltime_s: 3600.0,
            payload: 0,
        }
    }

    #[test]
    fn fcfs_start_and_finish() {
        let mut pbs = Pbs::new(8);
        pbs.submit(spec(1, 4)).unwrap();
        pbs.submit(spec(2, 4)).unwrap();
        let started = pbs.schedule(0.0);
        assert_eq!(started.len(), 2);
        assert_eq!(pbs.free_nodes(), 0);
        assert!(matches!(
            pbs.state(JobId(1)),
            Some(JobState::Running { .. })
        ));
        let rec = pbs.finish(JobId(1), 100.0).unwrap();
        assert_eq!(rec.nodes.len(), 4);
        assert_eq!(pbs.free_nodes(), 4);
        assert!(matches!(
            pbs.state(JobId(1)),
            Some(JobState::Done { start, end }) if *start == 0.0 && *end == 100.0
        ));
    }

    #[test]
    fn nodes_are_dedicated() {
        let mut pbs = Pbs::new(4);
        pbs.submit(spec(1, 3)).unwrap();
        pbs.submit(spec(2, 2)).unwrap();
        let started = pbs.schedule(0.0);
        assert_eq!(started.len(), 1, "only 1 node left for the 2-node job");
        // Node sets must be disjoint once job 2 eventually starts.
        pbs.finish(JobId(1), 10.0).unwrap();
        let started2 = pbs.schedule(10.0);
        assert_eq!(started2.len(), 1);
        assert_eq!(pbs.busy_nodes(), 2);
    }

    #[test]
    fn backfill_lets_small_jobs_pass_a_blocked_medium_head() {
        let mut pbs = Pbs::new(8);
        pbs.submit(spec(1, 8)).unwrap(); // will run
        pbs.submit(spec(2, 6)).unwrap(); // blocked head (≤ 64: no drain)
        pbs.submit(spec(3, 2)).unwrap(); // backfills? No free nodes at all.
        pbs.schedule(0.0);
        assert_eq!(pbs.running(), 1);
        pbs.finish(JobId(1), 50.0).unwrap();
        // 8 free; head (6) starts, then 3 backfills into remaining 2.
        let started = pbs.schedule(50.0);
        assert_eq!(started.len(), 2);
    }

    #[test]
    fn backfill_when_head_blocked_but_small_fits() {
        let mut pbs = Pbs::new(8);
        pbs.submit(spec(1, 5)).unwrap();
        pbs.submit(spec(2, 6)).unwrap(); // can't fit beside job 1
        pbs.submit(spec(3, 3)).unwrap(); // fits in the 3 leftover nodes
        let started = pbs.schedule(0.0);
        let ids: Vec<u64> = started.iter().map(|s| s.spec.id.0).collect();
        assert_eq!(ids, vec![1, 3], "3 backfilled past blocked 2");
    }

    #[test]
    fn large_jobs_drain_the_queue() {
        let mut pbs = Pbs::new(144);
        pbs.submit(spec(1, 100)).unwrap();
        pbs.schedule(0.0);
        pbs.submit(spec(2, 128)).unwrap(); // > 64: drain when blocked
        pbs.submit(spec(3, 4)).unwrap(); // would fit, but drain forbids backfill
        let started = pbs.schedule(1.0);
        assert!(started.is_empty(), "drain mode must not backfill");
        pbs.finish(JobId(1), 2.0).unwrap();
        let started = pbs.schedule(2.0);
        assert_eq!(
            started.len(),
            2,
            "drained machine runs the big job, then backfills"
        );
        assert_eq!(started[0].spec.id, JobId(2));
    }

    #[test]
    fn drain_threshold_ablation() {
        let mut pbs = Pbs::new(144).with_drain_threshold(144);
        pbs.submit(spec(1, 100)).unwrap();
        pbs.schedule(0.0);
        pbs.submit(spec(2, 128)).unwrap();
        pbs.submit(spec(3, 4)).unwrap();
        let started = pbs.schedule(1.0);
        assert_eq!(started.len(), 1, "without drain the small job backfills");
        assert_eq!(started[0].spec.id, JobId(3));
    }

    #[test]
    fn oversized_submission_rejected() {
        let mut pbs = Pbs::new(4);
        assert_eq!(
            pbs.submit(spec(1, 5)),
            Err(PbsError::OversizedRequest {
                id: JobId(1),
                requested: 5,
                machine: 4
            })
        );
        assert_eq!(pbs.queued(), 0);
    }

    #[test]
    fn zero_node_submission_rejected() {
        let mut pbs = Pbs::new(4);
        assert_eq!(
            pbs.submit(spec(1, 0)),
            Err(PbsError::ZeroNodeRequest { id: JobId(1) })
        );
    }

    #[test]
    fn finishing_unknown_job_is_an_error() {
        let mut pbs = Pbs::new(4);
        assert_eq!(
            pbs.finish(JobId(99), 0.0),
            Err(PbsError::NotRunning { id: JobId(99) })
        );
    }

    #[test]
    fn queue_depth_reporting() {
        let mut pbs = Pbs::new(2);
        pbs.submit(spec(1, 2)).unwrap();
        pbs.submit(spec(2, 2)).unwrap();
        pbs.submit(spec(3, 2)).unwrap();
        assert_eq!(pbs.queued(), 3);
        pbs.schedule(0.0);
        assert_eq!(pbs.queued(), 2);
        assert_eq!(pbs.running(), 1);
    }

    #[test]
    fn offline_nodes_never_allocated() {
        let mut pbs = Pbs::new(4);
        assert_eq!(pbs.take_node_offline(0), None);
        assert_eq!(pbs.take_node_offline(1), None);
        assert_eq!(pbs.free_nodes(), 2);
        assert_eq!(pbs.online_nodes(), 2);
        pbs.submit(spec(1, 3)).unwrap();
        assert!(pbs.schedule(0.0).is_empty(), "only 2 nodes in service");
        pbs.bring_node_online(0);
        let started = pbs.schedule(1.0);
        assert_eq!(started.len(), 1);
        assert!(!started[0].nodes.contains(&1), "node 1 still offline");
    }

    #[test]
    fn node_failure_kill_and_requeue_cycle() {
        let mut pbs = Pbs::new(4);
        pbs.submit(spec(7, 2)).unwrap();
        let started = pbs.schedule(0.0);
        let victim = started[0].nodes[0];
        // The node fails mid-job: PBS reports the occupant.
        assert_eq!(pbs.take_node_offline(victim), Some(JobId(7)));
        let killed = pbs.kill(JobId(7), 10.0).unwrap();
        assert_eq!(killed.spec.id, JobId(7));
        assert!(matches!(
            pbs.state(JobId(7)),
            Some(JobState::Killed { end, .. }) if *end == 10.0
        ));
        // Requeue: the job retries on the surviving nodes.
        pbs.requeue(killed.spec);
        let restarted = pbs.schedule(11.0);
        assert_eq!(restarted.len(), 1);
        assert!(!restarted[0].nodes.contains(&victim));
        assert!(matches!(
            pbs.state(JobId(7)),
            Some(JobState::Running { .. })
        ));
    }

    #[test]
    fn would_start_mirrors_schedule_exactly() {
        // Empty queue: nothing to start.
        let mut pbs = Pbs::new(8);
        assert!(!pbs.would_start());
        // Head fits.
        pbs.submit(spec(1, 4)).unwrap();
        assert!(pbs.would_start());
        pbs.schedule(0.0);
        // Head blocked, small job can backfill.
        pbs.submit(spec(2, 6)).unwrap();
        pbs.submit(spec(3, 2)).unwrap();
        assert!(pbs.would_start());
        pbs.schedule(1.0);
        // Head still blocked, nothing left that fits.
        assert!(!pbs.would_start());
        assert!(pbs.schedule(2.0).is_empty());
    }

    #[test]
    fn would_start_respects_drain() {
        let mut pbs = Pbs::new(144);
        pbs.submit(spec(1, 100)).unwrap();
        pbs.schedule(0.0);
        pbs.submit(spec(2, 128)).unwrap(); // > 64: drains when blocked
        pbs.submit(spec(3, 4)).unwrap(); // fits, but drain forbids it
        assert!(!pbs.would_start());
        assert!(pbs.schedule(1.0).is_empty());
        pbs.finish(JobId(1), 2.0).unwrap();
        assert!(pbs.would_start());
        assert_eq!(pbs.schedule(2.0).len(), 2);
    }

    #[test]
    fn would_start_respects_backfill_depth() {
        let mut pbs = Pbs::new(8);
        pbs.submit(spec(1, 6)).unwrap();
        pbs.schedule(0.0);
        pbs.submit(spec(2, 8)).unwrap(); // blocked head, no drain (≤ 64)
        for i in 0..16 {
            pbs.submit(spec(3 + i, 8)).unwrap(); // fill the backfill window
        }
        pbs.submit(spec(99, 1)).unwrap(); // fits, but beyond the window
        assert!(!pbs.would_start());
        assert!(pbs.schedule(1.0).is_empty());
    }

    #[test]
    fn failing_idle_node_reports_no_job() {
        let mut pbs = Pbs::new(2);
        assert_eq!(pbs.take_node_offline(1), None);
        assert!(pbs.is_offline(1));
        pbs.bring_node_online(1);
        assert!(!pbs.is_offline(1));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Random submit/schedule/finish sequences never violate the
    /// dedicated-allocation invariants: node sets are disjoint, busy +
    /// free = total, and every running job holds exactly its request.
    fn check_invariants(pbs: &Pbs, running_nodes: &std::collections::HashMap<JobId, usize>) {
        let busy: usize = running_nodes.values().sum();
        assert_eq!(pbs.busy_nodes(), busy, "busy accounting");
        assert_eq!(pbs.free_nodes() + busy, pbs.node_count());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn scheduler_never_double_books(
            ops in prop::collection::vec((1u32..30, 0u8..4), 1..60)
        ) {
            let mut pbs = Pbs::new(64);
            let mut next_id = 0u64;
            let mut t = 0.0;
            let mut running: std::collections::HashMap<JobId, usize> =
                std::collections::HashMap::new();
            let mut seen_nodes: std::collections::HashMap<usize, JobId> =
                std::collections::HashMap::new();

            for (nodes, action) in ops {
                t += 1.0;
                match action {
                    // Submit a job.
                    0 | 1 => {
                        next_id += 1;
                        pbs.submit(JobSpec {
                            id: JobId(next_id),
                            nodes: nodes.min(64),
                            requested_walltime_s: 100.0,
                            payload: 0,
                        }).unwrap();
                    }
                    // Finish the oldest running job.
                    2 => {
                        if let Some(&id) = running.keys().min() {
                            let job = pbs.finish(id, t).unwrap();
                            for n in &job.nodes {
                                prop_assert_eq!(seen_nodes.remove(n), Some(id));
                            }
                            running.remove(&id);
                        }
                    }
                    // Scheduling pass.
                    _ => {}
                }
                let predicted = pbs.would_start();
                let started_now = pbs.schedule(t);
                prop_assert_eq!(
                    predicted,
                    !started_now.is_empty(),
                    "would_start must agree with schedule"
                );
                for started in started_now {
                    prop_assert_eq!(started.nodes.len(), started.spec.nodes as usize);
                    for &n in &started.nodes {
                        // Dedicated: nobody else may hold this node.
                        prop_assert!(
                            seen_nodes.insert(n, started.spec.id).is_none(),
                            "node {} double-booked", n
                        );
                    }
                    running.insert(started.spec.id, started.nodes.len());
                }
                check_invariants(&pbs, &running);
            }
        }

        /// FCFS fairness: with no backfill opportunity (all jobs the same
        /// size), start order equals submission order.
        #[test]
        fn fcfs_order_preserved(n_jobs in 2usize..20) {
            let mut pbs = Pbs::new(8);
            for i in 0..n_jobs {
                pbs.submit(JobSpec {
                    id: JobId(i as u64),
                    nodes: 8,
                    requested_walltime_s: 10.0,
                    payload: 0,
                }).unwrap();
            }
            let mut started_order = Vec::new();
            let mut t = 0.0;
            while started_order.len() < n_jobs {
                t += 1.0;
                for s in pbs.schedule(t) {
                    started_order.push(s.spec.id.0);
                }
                if let Some(&last) = started_order.last() {
                    pbs.finish(JobId(last), t + 0.5).unwrap();
                }
            }
            let expected: Vec<u64> = (0..n_jobs as u64).collect();
            prop_assert_eq!(started_order, expected);
        }

        /// Node failures and repairs never break allocation invariants:
        /// offline nodes are never handed out, and online+offline = total.
        #[test]
        fn failures_never_violate_allocation(
            ops in prop::collection::vec((0usize..16, 0u8..5), 1..80)
        ) {
            let mut pbs = Pbs::new(16);
            let mut next_id = 0u64;
            let mut t = 0.0;
            let mut offline = [false; 16];
            for (node, action) in ops {
                t += 1.0;
                match action {
                    0 | 1 => {
                        next_id += 1;
                        pbs.submit(JobSpec {
                            id: JobId(next_id),
                            nodes: (node as u32 % 8) + 1,
                            requested_walltime_s: 100.0,
                            payload: 0,
                        }).unwrap();
                    }
                    2 => {
                        if let Some(victim) = pbs.take_node_offline(node) {
                            pbs.kill(victim, t).unwrap();
                        }
                        offline[node] = true;
                    }
                    3 => {
                        pbs.bring_node_online(node);
                        offline[node] = false;
                    }
                    _ => {}
                }
                for started in pbs.schedule(t) {
                    for &n in &started.nodes {
                        prop_assert!(!offline[n], "offline node {n} allocated");
                    }
                }
                prop_assert_eq!(
                    pbs.online_nodes(),
                    offline.iter().filter(|&&o| !o).count()
                );
            }
        }
    }
}
