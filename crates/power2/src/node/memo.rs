//! The run's timing memo.
//!
//! An iteration's timing depends on two things only: the pipeline state
//! relative to the iteration's first cycle `c0` (the dispatch cycle it
//! starts in), and the outcomes of its storage references, which the
//! memory pass has already worked out. Loops repeat, so most iterations
//! of a run meet a state and outcomes some earlier iteration met. The
//! memo keeps, for one run, what each such iteration did, and replays it.
//!
//! **Key.** Times are stored as `t - c0 + 1`, and every time before `c0`
//! as 0. The routine compares each time it reads with a dispatch, ready
//! or issue cycle, all at or after `c0`, so a time before `c0` acts the
//! same whatever its value. The one exception: with both FXUs free
//! before `c0`, their order picks the unit of the next fixed-point op,
//! so the key keeps that order as a bit. The key holds, one byte each:
//! - the dispatch slot;
//! - the FPU round-robin bit and that FXU order bit;
//! - the four unit-free times, the memory halt, the issue horizon, and
//!   the body's live-in scoreboard slots;
//! - the non-hit outcomes: a bitmask over the body's storage references,
//!   then the codes of those that did not hit, zero-padded.
//!
//! An iteration whose key does not fit (a time or code above 255, or more
//! than [`MAX_CODES`] non-hits) runs the routine directly.
//!
//! **Record.** The iteration's effect relative to `c0`, one `u16` each:
//! the new dispatch cycle and slot and the round-robin bit; the new
//! horizons, with 0 for one that stayed before `c0` (no horizon moves
//! backwards, so it was not written); the iteration's own latest
//! completion; the stall cycles and twin-unit work it added; and the new
//! ready time of every slot the body writes. A replay writes back the
//! exact times the routine would have, so the state after it is the
//! routine's state. `end_of_work` takes the latest completion through a
//! `max`: its change depends on its old value, which is not in the key.
//!
//! **Table.** One flat open-addressed table per run, within
//! [`BUDGET_BYTES`]. A hit replays a record only after comparing the full
//! key; the hash only picks the slot. Entries are never replaced: once
//! the table is full, the memo checks each [`WINDOW`] of lookups and
//! turns itself off for the rest of the run if fewer than half hit.
//! Bodies shorter than [`MIN_OPS`] get no memo at all.

use super::{Body, Pipeline, HORIZONS, UNIT0_TALLIES};
use crate::config::MachineConfig;

/// Bytes one run's table may hold: hashes, keys and records together.
const BUDGET_BYTES: usize = 128 << 10;

/// Bodies shorter than this many micro-ops time every iteration with the
/// routine directly. Against the routine alone, a 4-op stream whose
/// iterations all repeat ran 1.32–1.42× slower through the memo, an 8-op
/// one 0.91×, and the 17- and 18-op blocked matmul and spectral bodies
/// 0.72–0.76×. So length alone would put the cutoff near 8; 16 is
/// chosen to keep naive matmul (15 ops) out: it hit 9 of 2,310 lookups
/// and ran 1.03–1.06× through the memo, filling the table before the
/// full-table rule turned it off.
const MIN_OPS: usize = 16;

/// Most non-hit outcomes a key holds; an iteration with more runs the
/// routine directly.
const MAX_CODES: usize = 8;

/// Fewest entries a table must fit within the budget for the memo to run.
const MIN_ENTRIES: usize = 64;

/// Slots a lookup or insert probes after the one its hash picks.
const PROBES: usize = 8;

/// Lookups per check once the table is full; the memo turns off when
/// fewer than half of a window's lookups hit.
const WINDOW: u32 = 1024;

/// Record word indexes: the new dispatch cycle (relative to `c0`), slot
/// and round-robin bit, the horizons, the latest completion, the stall
/// cycles and twin-unit work added, then the written slots' ready times.
const ADVANCE: usize = 0;
const SLOT: usize = 1;
const TOGGLE: usize = 2;
const HORIZON0: usize = 3;
const LAST_DONE: usize = HORIZON0 + HORIZONS;
const STALLED: usize = LAST_DONE + 1;
const TALLY0: usize = STALLED + 1;
const WRITTEN0: usize = TALLY0 + UNIT0_TALLIES;

/// A time's key and record form relative to `c0`: 0 before `c0`.
#[inline]
fn rel(t: u64, c0: u64) -> u64 {
    if t < c0 {
        0
    } else {
        t - c0 + 1
    }
}

/// Slot-picking hash of a key (whole words; never 0, which marks an
/// empty slot).
#[inline]
fn hash(key: &[u8]) -> u64 {
    let mut h = 0u64;
    for chunk in key.chunks_exact(8) {
        let mut word = [0; 8];
        word.copy_from_slice(chunk);
        h = (h.rotate_left(5) ^ u64::from_le_bytes(word)).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
    h | 1
}

/// The pipeline as an iteration starts, which a record's deltas are
/// taken against: its first cycle, stall cycles and twin-unit work.
struct Start {
    c0: u64,
    stalled: u64,
    unit0: [u64; UNIT0_TALLIES],
}

/// One run's timing memo (see the module doc).
pub(super) struct TimingMemo {
    /// Key length in bytes, a whole number of words.
    key_bytes: usize,
    /// Record length in `u16` words.
    rec_words: usize,
    /// Per slot: the key's hash, or 0 for an empty slot.
    hashes: Vec<u64>,
    keys: Vec<u8>,
    records: Vec<u16>,
    entries: usize,
    /// Entries at which the table counts as full (7/8 of its slots).
    capacity: usize,
    /// The current iteration's key.
    key: Vec<u8>,
    /// Table lookups and hits this run.
    pub(super) lookups: u64,
    pub(super) hits: u64,
    /// Lookups and hits in the current window, once the table is full.
    window: (u32, u32),
    off: bool,
}

impl std::fmt::Debug for TimingMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TimingMemo")
            .field("key_bytes", &self.key_bytes)
            .field("rec_words", &self.rec_words)
            .field("slots", &self.hashes.len())
            .field("entries", &self.entries)
            .field("lookups", &self.lookups)
            .field("hits", &self.hits)
            .field("off", &self.off)
            .finish()
    }
}

impl TimingMemo {
    /// The memo for a run of `body`, or `None` when the body is too short
    /// for a lookup to pay or too large for a useful table in the budget.
    pub(super) fn for_body(body: &Body) -> Option<Self> {
        if body.ops.len() < MIN_OPS {
            return None;
        }
        let refs = body.refs.len();
        let key_bytes =
            (2 + HORIZONS + body.live_ins.len() + refs.div_ceil(8) + refs.min(MAX_CODES))
                .next_multiple_of(8);
        let rec_words = WRITTEN0 + body.writes.len();
        let slots = BUDGET_BYTES / (8 + key_bytes + 2 * rec_words);
        if slots < MIN_ENTRIES {
            return None;
        }
        Some(TimingMemo {
            key_bytes,
            rec_words,
            hashes: vec![0; slots],
            keys: vec![0; slots * key_bytes],
            records: vec![0; slots * rec_words],
            entries: 0,
            capacity: slots / 8 * 7,
            key: vec![0; key_bytes],
            lookups: 0,
            hits: 0,
            window: (0, 0),
            off: false,
        })
    }

    /// Times one iteration, as [`Pipeline::time_iteration`] does: replays
    /// a recorded effect when the full key matches, else runs the routine
    /// and records what it did. Returns the iteration's latest completion.
    pub(super) fn time(
        &mut self,
        body: &Body,
        outcomes: &[u64],
        pipe: &mut Pipeline,
        config: &MachineConfig,
    ) -> u64 {
        if self.off || !self.build_key(body, outcomes, pipe) {
            return pipe.time_iteration(&body.ops, outcomes, config);
        }
        self.lookups += 1;
        let hash = hash(&self.key);
        let slots = self.hashes.len();
        let mut slot = ((u128::from(hash) * slots as u128) >> 64) as usize;
        let mut free = None;
        for _ in 0..=PROBES {
            match self.hashes[slot] {
                0 => {
                    free = Some(slot);
                    break;
                }
                h if h == hash
                    && self.keys[slot * self.key_bytes..(slot + 1) * self.key_bytes]
                        == self.key[..] =>
                {
                    self.count(true);
                    return self.replay(slot, body, pipe);
                }
                _ => slot = if slot + 1 == slots { 0 } else { slot + 1 },
            }
        }
        self.count(false);
        let start = Start {
            c0: pipe.cycle,
            stalled: pipe.stall_cycles,
            unit0: pipe.unit0,
        };
        let last_done = pipe.time_iteration(&body.ops, outcomes, config);
        if let Some(slot) = free.filter(|_| self.entries < self.capacity) {
            self.record(slot, hash, body, pipe, &start, last_done);
        }
        last_done
    }

    /// Writes the current iteration's key; `false` when it does not fit.
    #[inline]
    fn build_key(&mut self, body: &Body, outcomes: &[u64], pipe: &Pipeline) -> bool {
        let c0 = pipe.cycle;
        let key = &mut self.key;
        // OR of every stored value: above 255 exactly when one is.
        let mut wide = pipe.disp_in_cycle;
        key[0] = pipe.disp_in_cycle as u8;
        let (fxu0, fxu1) = (pipe.fxu0_free, pipe.fxu1_free);
        let fxu0_first = fxu0 < c0 && fxu1 < c0 && fxu0 <= fxu1;
        key[1] = u8::from(pipe.fpu_rr_toggle) | u8::from(fxu0_first) << 1;
        let mut at = 2;
        let live_ins = body.live_ins.iter().map(|&reg| pipe.ready[reg as usize]);
        for t in pipe.horizons().into_iter().chain(live_ins) {
            let v = rel(t, c0);
            wide |= v;
            key[at] = v as u8;
            at += 1;
        }
        let mask = at;
        at += outcomes.len().div_ceil(8);
        key[mask..at].fill(0);
        let mut codes = 0;
        for (i, &code) in outcomes.iter().enumerate() {
            if code != 0 {
                if codes == MAX_CODES {
                    return false;
                }
                codes += 1;
                key[mask + i / 8] |= 1 << (i % 8);
                wide |= code;
                key[at] = code as u8;
                at += 1;
            }
        }
        key[at..].fill(0);
        wide <= u64::from(u8::MAX)
    }

    /// Applies the record in `slot` to `pipe`; returns the iteration's
    /// latest completion.
    #[inline]
    fn replay(&self, slot: usize, body: &Body, pipe: &mut Pipeline) -> u64 {
        let rec = &self.records[slot * self.rec_words..(slot + 1) * self.rec_words];
        let c0 = pipe.cycle;
        let at = |v: u16| c0 + u64::from(v);
        pipe.cycle = at(rec[ADVANCE]);
        pipe.disp_in_cycle = u64::from(rec[SLOT]);
        pipe.fpu_rr_toggle = rec[TOGGLE] != 0;
        for (h, &v) in pipe
            .horizons_mut()
            .into_iter()
            .zip(&rec[HORIZON0..LAST_DONE])
        {
            if v != 0 {
                *h = at(v) - 1;
            }
        }
        pipe.stall_cycles += u64::from(rec[STALLED]);
        for (t, &v) in pipe.unit0.iter_mut().zip(&rec[TALLY0..WRITTEN0]) {
            *t += u64::from(v);
        }
        for (&reg, &v) in body.writes.iter().zip(&rec[WRITTEN0..]) {
            pipe.ready[reg as usize] = at(v);
        }
        at(rec[LAST_DONE])
    }

    /// Stores the effect of the iteration the routine just timed from
    /// `start` in the empty `slot`. Leaves the slot empty when a value
    /// does not fit a record word.
    fn record(
        &mut self,
        slot: usize,
        hash: u64,
        body: &Body,
        pipe: &Pipeline,
        start: &Start,
        last_done: u64,
    ) {
        let c0 = start.c0;
        let rec = &mut self.records[slot * self.rec_words..(slot + 1) * self.rec_words];
        let mut values = [0; WRITTEN0];
        values[ADVANCE] = pipe.cycle - c0;
        values[SLOT] = pipe.disp_in_cycle;
        values[TOGGLE] = u64::from(pipe.fpu_rr_toggle);
        for (v, t) in values[HORIZON0..LAST_DONE].iter_mut().zip(pipe.horizons()) {
            *v = rel(t, c0);
        }
        values[LAST_DONE] = last_done - c0;
        values[STALLED] = pipe.stall_cycles - start.stalled;
        for ((v, &now), &before) in values[TALLY0..]
            .iter_mut()
            .zip(&pipe.unit0)
            .zip(&start.unit0)
        {
            *v = now - before;
        }
        let written = body.writes.iter().map(|&reg| pipe.ready[reg as usize] - c0);
        let mut wide = 0;
        for (word, v) in rec.iter_mut().zip(values.into_iter().chain(written)) {
            wide |= v;
            *word = v as u16;
        }
        if wide > u64::from(u16::MAX) {
            return;
        }
        self.hashes[slot] = hash;
        self.keys[slot * self.key_bytes..(slot + 1) * self.key_bytes].copy_from_slice(&self.key);
        self.entries += 1;
    }

    /// Whether the table holds as many entries as it takes.
    #[cfg(test)]
    pub(super) fn is_full(&self) -> bool {
        self.entries >= self.capacity
    }

    /// Whether the memo turned itself off for the rest of the run.
    #[cfg(test)]
    pub(super) fn is_off(&self) -> bool {
        self.off
    }

    /// Counts one lookup's result, and once the table is full turns the
    /// memo off after a window in which fewer than half the lookups hit.
    #[inline]
    fn count(&mut self, hit: bool) {
        self.hits += u64::from(hit);
        if self.entries < self.capacity {
            return;
        }
        self.window.0 += 1;
        self.window.1 += u32::from(hit);
        if self.window.0 == WINDOW {
            self.off = self.window.1 < WINDOW / 2;
            self.window = (0, 0);
        }
    }
}
