//! The canonical campaign submission.
//!
//! Every way of asking this system for results — a one-shot CLI run, a
//! `sp2 submit` against a running daemon, a test harness — reduces to
//! one [`Submission`]: the campaign spec, the fault configuration, and
//! the ordered list of experiments to evaluate over it. The struct
//! replaces the ad-hoc `(CampaignSpec, FaultPlan, seed, …)` plumbing
//! that used to thread through the CLI: front ends *translate* into a
//! `Submission`, and everything downstream executes it.
//!
//! ## The digest
//!
//! [`Submission::digest`] is a 128-bit FNV-1a hash (the
//! [`sp2_power2::Fnv128`] primitive, stable across processes and
//! platforms, unlike `DefaultHasher`) over a canonical little-endian
//! byte encoding of exactly the result-determining fields. Engine kind, fast-forward, and
//! instrumentation switches are deliberately **excluded**: the
//! engine-equivalence and recorder-bit-identity test suites prove
//! results are bit-identical under every such configuration, so two
//! submissions that differ only there *are the same request*. That
//! makes the digest a sound result-store key and dedup handle — a
//! digest hit may serve stored bytes, and concurrent identical
//! submissions may share one run.

use crate::error::Sp2Error;
use crate::experiments;
use crate::json::Json;
use crate::system::{Sp2System, DEFAULT_FAULT_SEED};
use sp2_cluster::{CancelToken, EngineConfig};
use sp2_power2::Fnv128;
use sp2_workload::CampaignSpec;
use std::hash::Hasher as _;
use std::sync::Arc;

/// Schema tag for the JSON form (and domain separator for the digest).
pub const SCHEMA: &str = "sp2-submission/v1";

/// Seeds must survive a JSON round trip, where every number is an
/// `f64`; integers above 2^53 would silently lose bits.
const MAX_JSON_SAFE_INT: u64 = 1 << 53;

/// A validated campaign request: what to simulate and which experiments
/// to evaluate — nothing about *how* to run it (engine,
/// instrumentation), because results are bit-identical under every
/// engine configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Submission {
    spec: CampaignSpec,
    fault_rate: f64,
    fault_seed: u64,
    experiments: Vec<String>,
}

/// Builder for [`Submission`] seeded with the paper's defaults; `build`
/// rejects anything the engine or registry would choke on later.
#[derive(Debug, Clone)]
pub struct SubmissionBuilder {
    spec: CampaignSpec,
    fault_rate: f64,
    fault_seed: u64,
    experiments: Vec<String>,
}

impl Default for SubmissionBuilder {
    fn default() -> Self {
        SubmissionBuilder {
            spec: CampaignSpec::default(),
            fault_rate: 0.0,
            fault_seed: DEFAULT_FAULT_SEED,
            experiments: Vec::new(),
        }
    }
}

impl SubmissionBuilder {
    /// Campaign length in days.
    pub fn days(mut self, days: u32) -> Self {
        self.spec.days = days;
        self
    }

    /// Master seed for the submission trace.
    pub fn seed(mut self, seed: u64) -> Self {
        self.spec.seed = seed;
        self
    }

    /// Mean weekday submission rate.
    pub fn mean_jobs_per_day(mut self, rate: f64) -> Self {
        self.spec.mean_jobs_per_day = rate;
        self
    }

    /// Weekend demand factor.
    pub fn weekend_factor(mut self, factor: f64) -> Self {
        self.spec.weekend_factor = factor;
        self
    }

    /// Replaces the whole campaign spec.
    pub fn spec(mut self, spec: CampaignSpec) -> Self {
        self.spec = spec;
        self
    }

    /// Fault-injection rate (0 = fault-free).
    pub fn faults(mut self, rate: f64) -> Self {
        self.fault_rate = rate;
        self
    }

    /// Seed for the fault plan.
    pub fn fault_seed(mut self, seed: u64) -> Self {
        self.fault_seed = seed;
        self
    }

    /// Appends one experiment id (order is preserved and significant —
    /// it is the order results stream back in).
    pub fn experiment(mut self, id: impl Into<String>) -> Self {
        self.experiments.push(id.into());
        self
    }

    /// Appends several experiment ids.
    pub fn experiments<I, S>(mut self, ids: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.experiments.extend(ids.into_iter().map(Into::into));
        self
    }

    /// Validates and produces the submission.
    pub fn build(self) -> Result<Submission, Sp2Error> {
        // Revalidate the spec through its own builder so the rules live
        // in exactly one place.
        let spec = CampaignSpec::builder()
            .days(self.spec.days)
            .seed(self.spec.seed)
            .mean_jobs_per_day(self.spec.mean_jobs_per_day)
            .weekend_factor(self.spec.weekend_factor)
            .build()
            .map_err(|e| Sp2Error::Submission(e.to_string()))?;
        if !self.fault_rate.is_finite() || self.fault_rate < 0.0 {
            return Err(Sp2Error::Submission(format!(
                "fault rate must be a finite rate >= 0, got {}",
                self.fault_rate
            )));
        }
        for (name, v) in [("seed", spec.seed), ("fault seed", self.fault_seed)] {
            if v > MAX_JSON_SAFE_INT {
                return Err(Sp2Error::Submission(format!(
                    "{name} {v} exceeds 2^53 and would not survive the JSON wire format"
                )));
            }
        }
        if self.experiments.is_empty() {
            return Err(Sp2Error::Submission(
                "a submission needs at least one experiment".into(),
            ));
        }
        for id in &self.experiments {
            if experiments::experiment(id).is_none() {
                return Err(Sp2Error::Submission(format!(
                    "unknown experiment: {id} (try `sp2 list`)"
                )));
            }
        }
        let mut seen = std::collections::HashSet::new();
        for id in &self.experiments {
            if !seen.insert(id.as_str()) {
                return Err(Sp2Error::Submission(format!("duplicate experiment: {id}")));
            }
        }
        Ok(Submission {
            spec,
            fault_rate: self.fault_rate,
            fault_seed: self.fault_seed,
            experiments: self.experiments,
        })
    }
}

impl Submission {
    /// Starts a builder with the paper's defaults and no experiments.
    pub fn builder() -> SubmissionBuilder {
        SubmissionBuilder::default()
    }

    /// The campaign spec this submission simulates.
    pub fn spec(&self) -> &CampaignSpec {
        &self.spec
    }

    /// The fault-injection rate (0 = fault-free).
    pub fn fault_rate(&self) -> f64 {
        self.fault_rate
    }

    /// The fault-plan seed.
    pub fn fault_seed(&self) -> u64 {
        self.fault_seed
    }

    /// The experiment ids, in evaluation order.
    pub fn experiments(&self) -> &[String] {
        &self.experiments
    }

    /// The 128-bit content digest over the result-determining fields
    /// (see the module docs for what is — and deliberately is not —
    /// covered). Floats hash by IEEE bit pattern, matching the
    /// bit-identity the determinism tests guarantee.
    pub fn digest(&self) -> u128 {
        let mut h = Fnv128::new();
        h.write(SCHEMA.as_bytes());
        h.write(&[0]);
        h.write(&self.spec.days.to_le_bytes());
        h.write(&self.spec.seed.to_le_bytes());
        h.write(&self.spec.mean_jobs_per_day.to_bits().to_le_bytes());
        h.write(&self.spec.weekend_factor.to_bits().to_le_bytes());
        h.write(&self.fault_rate.to_bits().to_le_bytes());
        h.write(&self.fault_seed.to_le_bytes());
        for id in &self.experiments {
            h.write(id.as_bytes());
            // NUL-separate ids so ["a","bc"] and ["ab","c"] differ.
            h.write(&[0]);
        }
        h.finish128()
    }

    /// The digest as 32 lowercase hex digits — the result-store
    /// directory name and the job id prefix on the wire.
    pub fn digest_hex(&self) -> String {
        format!("{:032x}", self.digest())
    }

    /// The JSON form (`sp2-submission/v1`): what `sp2 submit` sends and
    /// the result store records alongside each job.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("schema", SCHEMA)
            .field("days", self.spec.days)
            .field("seed", self.spec.seed)
            .field("mean_jobs_per_day", self.spec.mean_jobs_per_day)
            .field("weekend_factor", self.spec.weekend_factor)
            .field("fault_rate", self.fault_rate)
            .field("fault_seed", self.fault_seed)
            .field(
                "experiments",
                Json::Arr(
                    self.experiments
                        .iter()
                        .map(|s| Json::Str(s.clone()))
                        .collect(),
                ),
            )
    }

    /// Parses and validates the JSON form. Unknown or missing fields,
    /// wrong types, and anything `build` rejects all surface as
    /// [`Sp2Error::Submission`].
    pub fn from_json(doc: &Json) -> Result<Submission, Sp2Error> {
        let bad = |m: &str| Sp2Error::Submission(m.to_string());
        if let Some(schema) = doc.get("schema").and_then(Json::as_str) {
            if schema != SCHEMA {
                return Err(Sp2Error::Submission(format!(
                    "unsupported submission schema: {schema} (want {SCHEMA})"
                )));
            }
        }
        let num = |key: &str| {
            doc.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| Sp2Error::Submission(format!("missing numeric field: {key}")))
        };
        let int = |key: &str| -> Result<u64, Sp2Error> {
            let v = num(key)?;
            if v < 0.0 || v.trunc() != v {
                return Err(Sp2Error::Submission(format!(
                    "field {key} must be a non-negative integer, got {v}"
                )));
            }
            Ok(v as u64)
        };
        let ids = doc
            .get("experiments")
            .and_then(Json::as_arr)
            .ok_or_else(|| bad("missing field: experiments"))?
            .iter()
            .map(|v| {
                v.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| bad("experiments must be an array of id strings"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Submission::builder()
            .days(u32::try_from(int("days")?).map_err(|_| bad("days out of range"))?)
            .seed(int("seed")?)
            .mean_jobs_per_day(num("mean_jobs_per_day")?)
            .weekend_factor(num("weekend_factor")?)
            .faults(num("fault_rate")?)
            .fault_seed(int("fault_seed")?)
            .experiments(ids)
            .build()
    }

    /// Assembles an [`Sp2System`] that executes this submission under
    /// `engine`, its campaigns polling `cancel` when one is given. The
    /// engine configuration affects only speed and instrumentation, never
    /// the result bytes — that is the invariant the digest leans on.
    pub fn system(&self, engine: EngineConfig, cancel: Option<Arc<CancelToken>>) -> Sp2System {
        Sp2System::builder()
            .spec(self.spec)
            .engine(engine)
            .faults(self.fault_rate)
            .fault_seed(self.fault_seed)
            .cancel_token(cancel)
            .build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> Submission {
        Submission::builder()
            .days(2)
            .seed(7)
            .faults(0.5)
            .fault_seed(11)
            .experiments(["table1", "summary"])
            .build()
            .expect("valid submission")
    }

    #[test]
    fn digest_is_stable_and_sensitive() {
        let a = demo();
        assert_eq!(a.digest(), demo().digest(), "same fields, same digest");
        assert_eq!(a.digest_hex().len(), 32);

        let b = Submission::builder()
            .days(2)
            .seed(8)
            .faults(0.5)
            .fault_seed(11)
            .experiments(["table1", "summary"])
            .build()
            .expect("valid");
        assert_ne!(a.digest(), b.digest(), "seed must perturb the digest");

        let c = Submission::builder()
            .days(2)
            .seed(7)
            .faults(0.5)
            .fault_seed(11)
            .experiments(["summary", "table1"])
            .build()
            .expect("valid");
        assert_ne!(a.digest(), c.digest(), "experiment order is significant");
    }

    #[test]
    fn json_round_trip_preserves_digest() {
        let a = demo();
        let b = Submission::from_json(&a.to_json()).expect("round-trips");
        assert_eq!(a, b);
        assert_eq!(a.digest(), b.digest());
        // And through the wire rendering too.
        let parsed = Json::parse(&a.to_json().to_string_compact()).expect("parses");
        let c = Submission::from_json(&parsed).expect("round-trips");
        assert_eq!(a.digest(), c.digest());
    }

    #[test]
    fn build_rejects_bad_submissions() {
        let no_exp = Submission::builder().days(1).build();
        assert!(matches!(no_exp, Err(Sp2Error::Submission(_))));
        let unknown = Submission::builder().days(1).experiment("fig9").build();
        assert!(unknown.is_err());
        let dup = Submission::builder()
            .days(1)
            .experiments(["table1", "table1"])
            .build();
        assert!(dup.is_err());
        let zero_days = Submission::builder().days(0).experiment("table1").build();
        assert!(zero_days.is_err());
        let bad_rate = Submission::builder()
            .days(1)
            .faults(f64::NAN)
            .experiment("table1")
            .build();
        assert!(bad_rate.is_err());
        let big_seed = Submission::builder()
            .days(1)
            .seed(u64::MAX)
            .experiment("table1")
            .build();
        assert!(big_seed.is_err(), "seeds above 2^53 don't survive JSON");
    }

    #[test]
    fn from_json_rejects_malformed_documents() {
        for bad in [
            Json::obj(),
            Json::obj().field("schema", "sp2-metrics/v1"),
            Json::obj()
                .field("days", 1u32)
                .field("seed", 1.5f64)
                .field("mean_jobs_per_day", 54.0)
                .field("weekend_factor", 0.45)
                .field("fault_rate", 0.0)
                .field("fault_seed", 1u32)
                .field("experiments", vec!["table1"]),
        ] {
            assert!(
                matches!(Submission::from_json(&bad), Err(Sp2Error::Submission(_))),
                "{bad:?} must be rejected"
            );
        }
    }

    #[test]
    fn engine_configuration_is_not_part_of_the_identity() {
        // The digest covers the request, not the execution strategy —
        // there is simply no way to feed an engine config into it.
        let sub = demo();
        let sys = sub.system(EngineConfig::default(), None);
        assert_eq!(sys.spec().days, 2);
        assert_eq!(sys.fault_rate(), 0.5);
        assert_eq!(sys.fault_seed(), 11);
    }
}
