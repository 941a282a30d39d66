//! # ds-fault
//!
//! Deterministic, seed-driven fault injection for the whole stack.
//!
//! A [`FaultPlan`] is a list of scheduled faults plus a seed; it
//! implements [`ds_simgpu::FaultHook`], the trait the simulated cluster
//! and every layer holding one consult at their existing choke points.
//! Because scheduled faults are pure functions of `(plan, query)` and
//! the chaos generator draws from [`ds_rng::Rng`], a chaos run is
//! bit-reproducible: the same seed injects the same faults at the same
//! points, every time, on every platform.
//!
//! Plans come from three places:
//!
//! * the builder API (`FaultPlan::new(seed).crash(..).delay_transfers(..)`),
//! * a compact spec string (`FaultPlan::parse`), also read from the
//!   `DS_FAULT_PLAN` environment variable by [`FaultPlan::from_env`],
//! * the seeded chaos generator ([`FaultPlan::chaos`]), which draws a
//!   given number of benign (delay-class) faults at random.
//!
//! Spec grammar (entries separated by `;`, fields by `,`):
//!
//! ```text
//! slow:rank=1,factor=3.0
//! delay:rank=0,secs=0.002
//! stall:rank=0,worker=loader,batch=2,secs=0.5
//! crash:rank=2,worker=sampler,batch=3
//! shardloss:rank=1
//! recover:rank=2,worker=sampler,batch=6
//! rebuild:rank=1,batch=4
//! chaos:n=4
//! ```
//!
//! Malformed specs parse to a typed [`FaultParseError`] naming the
//! offending token and its byte span within the spec string.

use ds_simgpu::fault::{FaultHook, WorkerKind};

/// A malformed fault spec: which token was wrong, where it sits in the
/// spec string (byte offsets), and why it was rejected. Typed so
/// harnesses can point at the exact character instead of grepping a
/// stringly error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultParseError {
    token: String,
    span: std::ops::Range<usize>,
    message: String,
}

impl FaultParseError {
    /// The offending token, verbatim.
    pub fn token(&self) -> &str {
        &self.token
    }

    /// Byte range of the offending token within the spec string.
    pub fn span(&self) -> std::ops::Range<usize> {
        self.span.clone()
    }

    /// Why the token was rejected.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl std::fmt::Display for FaultParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} (token `{}` at bytes {}..{})",
            self.message, self.token, self.span.start, self.span.end
        )
    }
}

impl std::error::Error for FaultParseError {}

/// One scheduled fault.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Fault {
    /// Device `rank` runs `factor`× slower on transfers it initiates.
    SlowDevice {
        /// Target device.
        rank: usize,
        /// Slowdown multiplier (≥ 1).
        factor: f64,
    },
    /// Every transfer initiated by `rank` pays `secs` extra virtual
    /// seconds (link flapping / retransmits; a dropped transfer is a
    /// retransmit, not lost data).
    TransferDelay {
        /// Target device.
        rank: usize,
        /// Additive virtual-seconds delay per transfer.
        secs: f64,
    },
    /// `worker` on `rank` stalls `secs` virtual seconds before `batch`.
    WorkerStall {
        /// Target device.
        rank: usize,
        /// Which pipeline worker.
        worker: WorkerKind,
        /// Batch index the stall precedes.
        batch: u64,
        /// Stall duration in virtual seconds.
        secs: f64,
    },
    /// `worker` on `rank` crashes at the start of `batch`.
    WorkerCrash {
        /// Target device.
        rank: usize,
        /// Which pipeline worker.
        worker: WorkerKind,
        /// Batch index at which the worker dies.
        batch: u64,
    },
    /// `rank`'s feature-cache shard is lost; lookups miss and degrade
    /// to UVA cold fetches.
    CacheShardLoss {
        /// Target device.
        rank: usize,
    },
    /// `worker` on `rank` recovers (rejoins its collective group) at
    /// the start of `batch`; pairs with an earlier [`Fault::WorkerCrash`].
    WorkerRecover {
        /// Target device.
        rank: usize,
        /// Which pipeline worker.
        worker: WorkerKind,
        /// Batch index at which the worker rejoins.
        batch: u64,
    },
    /// A background rebuild of `rank`'s lost cache shard starts at
    /// `batch`; pairs with an earlier [`Fault::CacheShardLoss`].
    ShardRebuild {
        /// Target device.
        rank: usize,
        /// Batch index at which the rebuild starts.
        batch: u64,
    },
}

/// A deterministic fault schedule (see crate docs).
#[derive(Clone, Debug)]
pub struct FaultPlan {
    seed: u64,
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// An empty plan with the given seed (faults added via the builder
    /// methods or [`Self::chaos`]).
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            faults: Vec::new(),
        }
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The scheduled faults.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Adds a device slowdown.
    pub fn slow_device(mut self, rank: usize, factor: f64) -> Self {
        assert!(factor >= 1.0, "slowdown factor must be >= 1, got {factor}");
        self.faults.push(Fault::SlowDevice { rank, factor });
        self
    }

    /// Adds a per-transfer delay.
    pub fn delay_transfers(mut self, rank: usize, secs: f64) -> Self {
        assert!(secs >= 0.0);
        self.faults.push(Fault::TransferDelay { rank, secs });
        self
    }

    /// Adds a worker stall.
    pub fn stall(mut self, rank: usize, worker: WorkerKind, batch: u64, secs: f64) -> Self {
        assert!(secs >= 0.0);
        self.faults.push(Fault::WorkerStall {
            rank,
            worker,
            batch,
            secs,
        });
        self
    }

    /// Adds a worker crash.
    pub fn crash(mut self, rank: usize, worker: WorkerKind, batch: u64) -> Self {
        self.faults.push(Fault::WorkerCrash {
            rank,
            worker,
            batch,
        });
        self
    }

    /// Adds a cache-shard loss.
    pub fn lose_shard(mut self, rank: usize) -> Self {
        self.faults.push(Fault::CacheShardLoss { rank });
        self
    }

    /// Schedules a crashed worker's rejoin at a batch boundary.
    pub fn recover(mut self, rank: usize, worker: WorkerKind, batch: u64) -> Self {
        self.faults.push(Fault::WorkerRecover {
            rank,
            worker,
            batch,
        });
        self
    }

    /// Schedules the background rebuild of a lost cache shard.
    pub fn rebuild_shard(mut self, rank: usize, batch: u64) -> Self {
        self.faults.push(Fault::ShardRebuild { rank, batch });
        self
    }

    /// Draws `n` random *delay-class* faults (slowdowns, transfer
    /// delays, stalls — never crashes or shard losses) over `ranks`
    /// devices from the plan seed. Delay-class chaos perturbs only the
    /// virtual timeline, so a chaos run's losses stay bit-identical to
    /// the fault-free run — the property `tests/chaos.rs` locks in.
    pub fn chaos(mut self, ranks: usize, n: usize) -> Self {
        assert!(ranks >= 1);
        let mut rng = ds_rng::Rng::seed_from_u64(self.seed ^ 0xC4A0_5F00_D5ED_F417);
        for _ in 0..n {
            let rank = rng.gen_range(0u64..ranks as u64) as usize;
            match rng.gen_range(0u64..3) {
                0 => {
                    let factor = 1.0 + 3.0 * rng.gen::<f64>();
                    self = self.slow_device(rank, factor);
                }
                1 => {
                    let secs = 1e-4 + 1e-2 * rng.gen::<f64>();
                    self = self.delay_transfers(rank, secs);
                }
                _ => {
                    let worker = match rng.gen_range(0u64..3) {
                        0 => WorkerKind::Sampler,
                        1 => WorkerKind::Loader,
                        _ => WorkerKind::Trainer,
                    };
                    let batch = rng.gen_range(0u64..4);
                    let secs = 1e-3 + 0.1 * rng.gen::<f64>();
                    self = self.stall(rank, worker, batch, secs);
                }
            }
        }
        self
    }

    /// Parses the compact spec grammar (see crate docs). `seed` seeds
    /// any `chaos:` entries. Malformed input yields a
    /// [`FaultParseError`] carrying the offending token and its byte
    /// span within `spec`.
    pub fn parse(spec: &str, seed: u64, ranks: usize) -> Result<Self, FaultParseError> {
        let mut plan = FaultPlan::new(seed);
        let mut cursor = 0usize;
        for raw in spec.split(';') {
            let raw_start = cursor;
            cursor += raw.len() + 1; // step past this entry and its ';'
            let entry = raw.trim();
            if entry.is_empty() {
                continue;
            }
            let entry_off = raw_start + (raw.len() - raw.trim_start().len());
            // Error constructor: spans `token` at its first occurrence
            // inside this entry (fields are unique per entry, so first
            // occurrence is the occurrence).
            let err = |token: &str, message: String| -> FaultParseError {
                let at = entry_off + entry.find(token).unwrap_or(0);
                FaultParseError {
                    token: token.to_string(),
                    span: at..at + token.len(),
                    message,
                }
            };
            let (kind, rest) = entry.split_once(':').unwrap_or((entry, ""));
            let mut fields = std::collections::HashMap::new();
            for f in rest.split(',').map(str::trim).filter(|f| !f.is_empty()) {
                let (k, v) = f
                    .split_once('=')
                    .ok_or_else(|| err(f, format!("malformed field `{f}` in `{entry}`")))?;
                fields.insert(k.trim(), v.trim());
            }
            let get = |k: &str| -> Result<&str, FaultParseError> {
                fields
                    .get(k)
                    .copied()
                    .ok_or_else(|| err(entry, format!("missing `{k}` in `{entry}`")))
            };
            let num = |k: &str| -> Result<f64, FaultParseError> {
                let v = get(k)?;
                v.parse::<f64>()
                    .map_err(|_| err(v, format!("non-numeric `{k}` in `{entry}`")))
            };
            let worker = |k: &str| -> Result<WorkerKind, FaultParseError> {
                match get(k)? {
                    "sampler" => Ok(WorkerKind::Sampler),
                    "loader" => Ok(WorkerKind::Loader),
                    "trainer" => Ok(WorkerKind::Trainer),
                    w => Err(err(w, format!("unknown worker `{w}` in `{entry}`"))),
                }
            };
            plan = match kind {
                "slow" => plan.slow_device(num("rank")? as usize, num("factor")?),
                "delay" => plan.delay_transfers(num("rank")? as usize, num("secs")?),
                "stall" => plan.stall(
                    num("rank")? as usize,
                    worker("worker")?,
                    num("batch")? as u64,
                    num("secs")?,
                ),
                "crash" => plan.crash(
                    num("rank")? as usize,
                    worker("worker")?,
                    num("batch")? as u64,
                ),
                "shardloss" => plan.lose_shard(num("rank")? as usize),
                "recover" => plan.recover(
                    num("rank")? as usize,
                    worker("worker")?,
                    num("batch")? as u64,
                ),
                "rebuild" => plan.rebuild_shard(num("rank")? as usize, num("batch")? as u64),
                "chaos" => plan.chaos(ranks, num("n")? as usize),
                other => return Err(err(other, format!("unknown fault kind `{other}`"))),
            };
        }
        Ok(plan)
    }

    /// Builds a plan from `DS_FAULT_PLAN` (spec string) and
    /// `DS_FAULT_SEED` (defaults to 0); `None` when `DS_FAULT_PLAN` is
    /// unset. Malformed specs and seeds abort loudly rather than
    /// silently running a different experiment than the operator asked
    /// for.
    pub fn from_env(ranks: usize) -> Option<Self> {
        let spec = std::env::var("DS_FAULT_PLAN").ok()?;
        let seed = parse_seed(std::env::var("DS_FAULT_SEED").ok().as_deref());
        match Self::parse(&spec, seed, ranks) {
            Ok(p) => Some(p),
            Err(e) => panic!("invalid DS_FAULT_PLAN: {e}"),
        }
    }
}

/// Parses a `DS_FAULT_SEED` value: unset is seed 0, and a value that is
/// not a `u64` (the empty string included) panics naming the variable
/// and the value.
fn parse_seed(var: Option<&str>) -> u64 {
    var.map_or(0, |v| {
        v.parse()
            .unwrap_or_else(|_| panic!("DS_FAULT_SEED must be a non-negative integer, got {v:?}"))
    })
}

impl FaultHook for FaultPlan {
    fn device_slowdown(&self, rank: usize) -> f64 {
        self.faults
            .iter()
            .filter_map(|f| match *f {
                Fault::SlowDevice { rank: r, factor } if r == rank => Some(factor),
                _ => None,
            })
            .fold(1.0, f64::max)
    }

    fn transfer_delay(&self, rank: usize) -> f64 {
        self.faults
            .iter()
            .filter_map(|f| match *f {
                Fault::TransferDelay { rank: r, secs } if r == rank => Some(secs),
                _ => None,
            })
            .sum()
    }

    fn worker_stall(&self, rank: usize, worker: WorkerKind, batch: u64) -> f64 {
        self.faults
            .iter()
            .filter_map(|f| match *f {
                Fault::WorkerStall {
                    rank: r,
                    worker: w,
                    batch: b,
                    secs,
                } if r == rank && w == worker && b == batch => Some(secs),
                _ => None,
            })
            .sum()
    }

    fn worker_crashes(&self, rank: usize, worker: WorkerKind, batch: u64) -> bool {
        self.faults.iter().any(|f| {
            matches!(*f, Fault::WorkerCrash { rank: r, worker: w, batch: b }
                if r == rank && w == worker && b == batch)
        })
    }

    fn cache_shard_lost(&self, rank: usize) -> bool {
        self.faults
            .iter()
            .any(|f| matches!(*f, Fault::CacheShardLoss { rank: r } if r == rank))
    }

    fn worker_recovers(&self, rank: usize, worker: WorkerKind, batch: u64) -> bool {
        self.faults.iter().any(|f| {
            matches!(*f, Fault::WorkerRecover { rank: r, worker: w, batch: b }
                if r == rank && w == worker && b == batch)
        })
    }

    fn shard_rebuild_from(&self, rank: usize) -> Option<u64> {
        self.faults
            .iter()
            .filter_map(|f| match *f {
                Fault::ShardRebuild { rank: r, batch } if r == rank => Some(batch),
                _ => None,
            })
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_parsing_defaults_to_zero_and_rejects_malformed() {
        assert_eq!(parse_seed(None), 0);
        assert_eq!(parse_seed(Some("7")), 7);
        assert_eq!(parse_seed(Some("18446744073709551615")), u64::MAX);
        for bad in ["", "seven", "-1", "1.5", " 4", "18446744073709551616"] {
            let err = std::panic::catch_unwind(|| parse_seed(Some(bad))).unwrap_err();
            let msg = err.downcast_ref::<String>().expect("formatted panic");
            assert!(
                msg.contains("DS_FAULT_SEED") && msg.contains(&format!("{bad:?}")),
                "{msg}"
            );
        }
    }

    #[test]
    fn builder_schedules_are_queryable() {
        let p = FaultPlan::new(7)
            .slow_device(1, 2.5)
            .delay_transfers(0, 0.01)
            .stall(2, WorkerKind::Loader, 3, 0.5)
            .crash(2, WorkerKind::Sampler, 4)
            .lose_shard(1)
            .recover(2, WorkerKind::Sampler, 6)
            .rebuild_shard(1, 5)
            .rebuild_shard(1, 3);
        assert_eq!(p.device_slowdown(1), 2.5);
        assert_eq!(p.device_slowdown(0), 1.0);
        assert_eq!(p.transfer_delay(0), 0.01);
        assert_eq!(p.transfer_delay(1), 0.0);
        assert_eq!(p.worker_stall(2, WorkerKind::Loader, 3), 0.5);
        assert_eq!(p.worker_stall(2, WorkerKind::Loader, 2), 0.0);
        assert!(p.worker_crashes(2, WorkerKind::Sampler, 4));
        assert!(!p.worker_crashes(2, WorkerKind::Sampler, 3));
        assert!(!p.worker_crashes(2, WorkerKind::Trainer, 4));
        assert!(p.cache_shard_lost(1));
        assert!(!p.cache_shard_lost(0));
        assert!(p.worker_recovers(2, WorkerKind::Sampler, 6));
        assert!(!p.worker_recovers(2, WorkerKind::Sampler, 4));
        assert!(!p.worker_recovers(2, WorkerKind::Trainer, 6));
        // Earliest scheduled rebuild wins.
        assert_eq!(p.shard_rebuild_from(1), Some(3));
        assert_eq!(p.shard_rebuild_from(0), None);
    }

    #[test]
    fn chaos_is_seed_deterministic_and_delay_only() {
        let a = FaultPlan::new(42).chaos(4, 8);
        let b = FaultPlan::new(42).chaos(4, 8);
        assert_eq!(a.faults(), b.faults());
        assert_eq!(a.faults().len(), 8);
        let c = FaultPlan::new(43).chaos(4, 8);
        assert_ne!(a.faults(), c.faults());
        for f in a.faults() {
            assert!(
                !matches!(
                    f,
                    Fault::WorkerCrash { .. }
                        | Fault::CacheShardLoss { .. }
                        | Fault::WorkerRecover { .. }
                        | Fault::ShardRebuild { .. }
                ),
                "chaos drew a non-delay fault: {f:?}"
            );
        }
    }

    #[test]
    fn spec_round_trips_every_kind() {
        let spec = "slow:rank=1,factor=3.0; delay:rank=0,secs=0.002;\
                    stall:rank=0,worker=loader,batch=2,secs=0.5;\
                    crash:rank=2,worker=sampler,batch=3; shardloss:rank=1;\
                    recover:rank=2,worker=sampler,batch=6; rebuild:rank=1,batch=4; chaos:n=2";
        let p = FaultPlan::parse(spec, 9, 4).unwrap();
        assert_eq!(p.faults().len(), 7 + 2);
        assert_eq!(p.device_slowdown(1), 3.0);
        assert!(p.worker_crashes(2, WorkerKind::Sampler, 3));
        assert!(p.cache_shard_lost(1));
        assert!(p.worker_recovers(2, WorkerKind::Sampler, 6));
        assert_eq!(p.shard_rebuild_from(1), Some(4));
        // Same spec + seed => same plan (chaos included).
        let q = FaultPlan::parse(spec, 9, 4).unwrap();
        assert_eq!(p.faults(), q.faults());
    }

    #[test]
    fn malformed_specs_name_the_offender() {
        assert!(FaultPlan::parse("explode:rank=1", 0, 2)
            .unwrap_err()
            .to_string()
            .contains("explode"));
        assert!(FaultPlan::parse("crash:rank=0,worker=ghost,batch=1", 0, 2)
            .unwrap_err()
            .to_string()
            .contains("ghost"));
        assert!(FaultPlan::parse("slow:rank=x,factor=2", 0, 2)
            .unwrap_err()
            .to_string()
            .contains("rank"));
        assert!(FaultPlan::parse("slow:factor=2", 0, 2)
            .unwrap_err()
            .to_string()
            .contains("rank"));
    }

    #[test]
    fn parse_errors_carry_the_offending_token_and_span() {
        // Unknown kind: token is the kind, span points at it even when
        // the entry sits after other entries and padding.
        let spec = "slow:rank=1,factor=2; explode:rank=1";
        let err = FaultPlan::parse(spec, 0, 2).unwrap_err();
        assert_eq!(err.token(), "explode");
        assert_eq!(&spec[err.span()], "explode");
        // Bad worker name: token is the value, not the whole entry.
        let spec = "crash:rank=0,worker=ghost,batch=1";
        let err = FaultPlan::parse(spec, 0, 2).unwrap_err();
        assert_eq!(err.token(), "ghost");
        assert_eq!(&spec[err.span()], "ghost");
        // Non-numeric value: token is the value, message names the key.
        let spec = "slow:rank=x,factor=2";
        let err = FaultPlan::parse(spec, 0, 2).unwrap_err();
        assert_eq!(err.token(), "x");
        assert_eq!(&spec[err.span()], "x");
        assert!(err.message().contains("rank"));
        // Field without `=`: the field itself is the token.
        let spec = "slow:rank,factor=2";
        let err = FaultPlan::parse(spec, 0, 2).unwrap_err();
        assert_eq!(err.token(), "rank");
        assert_eq!(&spec[err.span()], "rank");
        // Display embeds message, token and span.
        let shown = err.to_string();
        assert!(shown.contains("rank") && shown.contains("bytes"), "{shown}");
    }

    #[test]
    fn plan_perturbs_cluster_transfer_times() {
        use ds_simgpu::ClusterSpec;
        use std::sync::Arc;
        let plain = ClusterSpec::v100(2).build();
        let faulty = ClusterSpec::v100(2).build();
        assert!(faulty.install_fault_hook(Arc::new(
            FaultPlan::new(1)
                .slow_device(0, 4.0)
                .delay_transfers(0, 0.5)
        )));
        let t0 = plain.nvlink_transfer(0, 1, 1 << 20);
        let t1 = faulty.nvlink_transfer(0, 1, 1 << 20);
        assert!(t1 > 4.0 * t0, "slowdown+delay not applied: {t0} vs {t1}");
        // Unaffected rank pays nothing extra.
        assert_eq!(
            plain.uva_read(1, 10, 64),
            faulty.uva_read(1, 10, 64),
            "rank 1 should be fault-free"
        );
        // Second install is rejected.
        assert!(!faulty.install_fault_hook(Arc::new(FaultPlan::new(2))));
    }
}
