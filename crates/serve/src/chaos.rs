//! Deterministic fault injection for the shard cluster — the chaos harness.
//!
//! A fault-tolerant serving layer is only as trustworthy as the failures it has been
//! shown to survive, and a chaos test is only a *test* if it is reproducible. So a
//! fault here is not a random event: a [`ChaosPlan`] names one shard, one
//! [`FaultKind`], and a deterministic trigger — the fault fires after the target shard
//! has served exactly `fire_after` sub-requests. On the single-router replay drivers
//! the sub-request sequence is itself deterministic, which pins *which* queries hit
//! the degraded window; timing-dependent observables (how fast a timeout is detected)
//! run off the injected [`Clock`](crate::clock::Clock), so tests freeze them with
//! [`ManualClock`](crate::clock::ManualClock).
//!
//! The same plan drives both transports, because both run the same shard node
//! ([`crate::cluster`]) and the node asks [`ChaosPlan`] what each fetch suffers: the
//! in-process cluster hands its nodes the plan directly, the socket transport ships it
//! to a shard-node process as a `CHAOS` frame ([`crate::transport`]) that decodes back
//! into a plan — there a kill becomes a real `process::exit` mid-replay.
//!
//! Specs parse from `"<fault>:<shard>"` strings (the `serve_replay --chaos` flag):
//! `kill:1`, `stall:0`, `slow:2`, `drop:3`.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::error::ServeError;

/// What the fault does to the target shard once it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The shard node dies: in-process workers panic (closing the input queue), a
    /// socket node exits its process. Permanent.
    Kill,
    /// The node stops serving but stays "up": requests are accepted and never
    /// answered. Permanent; only deadlines expose it.
    Stall,
    /// Every served request is delayed by `delay_us` first — the tail-latency fault
    /// hedged reads are for.
    Slow {
        /// Added service delay per request, microseconds.
        delay_us: u64,
    },
    /// The next `frames` responses are dropped on the floor (served but never sent),
    /// then the node recovers — the transient fault retries are for.
    DropFrames {
        /// How many responses to drop before recovering.
        frames: u64,
    },
}

/// The faults' codes on the transport's `CHAOS` frame.
const WIRE_KILL: u8 = 1;
const WIRE_STALL: u8 = 2;
const WIRE_SLOW: u8 = 3;
const WIRE_DROP: u8 = 4;

impl FaultKind {
    /// Wire encoding for the transport's `CHAOS` frame: `(fault code, param)`.
    pub(crate) fn wire_code(self) -> (u8, u64) {
        match self {
            FaultKind::Kill => (WIRE_KILL, 0),
            FaultKind::Stall => (WIRE_STALL, 0),
            FaultKind::Slow { delay_us } => (WIRE_SLOW, delay_us),
            FaultKind::DropFrames { frames } => (WIRE_DROP, frames),
        }
    }

    /// The inverse of [`FaultKind::wire_code`]; `None` for a code no fault has.
    pub(crate) fn from_wire(code: u8, param: u64) -> Option<Self> {
        Some(match code {
            WIRE_KILL => FaultKind::Kill,
            WIRE_STALL => FaultKind::Stall,
            WIRE_SLOW => FaultKind::Slow { delay_us: param },
            WIRE_DROP => FaultKind::DropFrames { frames: param },
            _ => return None,
        })
    }
}

/// Added delay of the default `slow` fault, microseconds.
const DEFAULT_SLOW_US: u64 = 2_000;
/// Responses dropped by the default `drop` fault: one inside the router's retry
/// budget, so the default transient burst is rescued with zero degradation.
const DEFAULT_DROP_FRAMES: u64 = 2;

/// One fault aimed at one shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// The fault to inject.
    pub kind: FaultKind,
    /// The shard it hits.
    pub shard: usize,
}

impl FaultSpec {
    /// Parse a `"<fault>:<shard>"` spec: `kill:1`, `stall:0`, `slow:2`, `drop:3`.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] naming the malformed part.
    pub fn parse(text: &str) -> Result<Self, ServeError> {
        let invalid = |reason: String| ServeError::InvalidConfig { reason };
        let (fault, shard) = text.split_once(':').ok_or_else(|| {
            invalid(format!(
                "chaos spec '{text}' must be <fault>:<shard> (e.g. kill:1)"
            ))
        })?;
        let shard: usize = shard
            .parse()
            .map_err(|_| invalid(format!("chaos spec '{text}' has a non-numeric shard")))?;
        let kind = match fault {
            "kill" => FaultKind::Kill,
            "stall" => FaultKind::Stall,
            "slow" => FaultKind::Slow {
                delay_us: DEFAULT_SLOW_US,
            },
            "drop" => FaultKind::DropFrames {
                frames: DEFAULT_DROP_FRAMES,
            },
            other => {
                return Err(invalid(format!(
                    "unknown chaos fault '{other}' (use kill, stall, slow or drop)"
                )))
            }
        };
        Ok(Self { kind, shard })
    }
}

/// What a shard worker must do with the sub-request it just picked up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FaultAction {
    /// Serve normally.
    None,
    /// Panic (the in-process death).
    Kill,
    /// Stop serving without dying.
    Stall,
    /// Sleep this many microseconds first, then serve.
    SlowUs(u64),
    /// Serve but never send the response.
    DropReply,
}

/// A deterministic fault trigger: `spec.kind` hits `spec.shard` once that shard has
/// served `fire_after` sub-requests. Shared (via `Arc`) by every worker of the target
/// shard so the served count is global to the shard, not per worker.
#[derive(Debug)]
pub struct ChaosPlan {
    spec: FaultSpec,
    fire_after: u64,
    served: AtomicU64,
    dropped: AtomicU64,
}

impl ChaosPlan {
    /// A plan firing `spec` after the target shard serves `fire_after` sub-requests
    /// (0 = the very first request is already faulted).
    pub fn new(spec: FaultSpec, fire_after: u64) -> Self {
        Self {
            spec,
            fire_after,
            served: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Parse-and-build convenience over [`FaultSpec::parse`].
    ///
    /// # Errors
    ///
    /// As for [`FaultSpec::parse`].
    pub fn parse(text: &str, fire_after: u64) -> Result<Self, ServeError> {
        Ok(Self::new(FaultSpec::parse(text)?, fire_after))
    }

    /// The fault and target shard.
    pub fn spec(&self) -> FaultSpec {
        self.spec
    }

    /// Sub-requests the target shard serves before the fault fires.
    pub fn fire_after(&self) -> u64 {
        self.fire_after
    }

    /// Whether the trigger has tripped.
    pub fn fired(&self) -> bool {
        self.served.load(Ordering::SeqCst) > self.fire_after
    }

    /// Account one sub-request arriving at `shard` and return the action it suffers.
    /// Non-target shards always serve normally and are not counted.
    pub(crate) fn action(&self, shard: usize) -> FaultAction {
        if shard != self.spec.shard {
            return FaultAction::None;
        }
        let served = self.served.fetch_add(1, Ordering::SeqCst) + 1;
        if served <= self.fire_after {
            return FaultAction::None;
        }
        match self.spec.kind {
            FaultKind::Kill => FaultAction::Kill,
            FaultKind::Stall => FaultAction::Stall,
            FaultKind::Slow { delay_us } => FaultAction::SlowUs(delay_us),
            FaultKind::DropFrames { frames } => {
                if self.dropped.fetch_add(1, Ordering::SeqCst) < frames {
                    FaultAction::DropReply
                } else {
                    FaultAction::None
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_parse_and_reject_garbage() {
        assert_eq!(
            FaultSpec::parse("kill:1").unwrap(),
            FaultSpec {
                kind: FaultKind::Kill,
                shard: 1
            }
        );
        assert_eq!(FaultSpec::parse("stall:0").unwrap().kind, FaultKind::Stall);
        assert!(matches!(
            FaultSpec::parse("slow:3").unwrap().kind,
            FaultKind::Slow { .. }
        ));
        assert!(matches!(
            FaultSpec::parse("drop:2").unwrap().kind,
            FaultKind::DropFrames { .. }
        ));
        for bad in ["kill", "kill:x", "melt:1", ":", ""] {
            assert!(
                matches!(FaultSpec::parse(bad), Err(ServeError::InvalidConfig { .. })),
                "'{bad}' must not parse"
            );
        }
    }

    #[test]
    fn the_trigger_fires_after_exactly_fire_after_served_requests() {
        let plan = ChaosPlan::parse("kill:2", 3).unwrap();
        // Other shards never count, never fault.
        for _ in 0..10 {
            assert_eq!(plan.action(0), FaultAction::None);
            assert_eq!(plan.action(1), FaultAction::None);
        }
        assert!(!plan.fired());
        // The target serves exactly fire_after requests, then every arrival faults.
        for _ in 0..3 {
            assert_eq!(plan.action(2), FaultAction::None);
        }
        assert!(!plan.fired());
        assert_eq!(plan.action(2), FaultAction::Kill);
        assert!(plan.fired());
        assert_eq!(plan.action(2), FaultAction::Kill);
    }

    #[test]
    fn drop_frames_recovers_after_the_budget() {
        let plan = ChaosPlan::new(
            FaultSpec {
                kind: FaultKind::DropFrames { frames: 2 },
                shard: 0,
            },
            1,
        );
        assert_eq!(plan.action(0), FaultAction::None); // within fire_after
        assert_eq!(plan.action(0), FaultAction::DropReply);
        assert_eq!(plan.action(0), FaultAction::DropReply);
        assert_eq!(plan.action(0), FaultAction::None, "budget spent: recovered");
        assert_eq!(plan.action(0), FaultAction::None);
    }

    #[test]
    fn slow_and_stall_map_to_their_actions() {
        let slow = ChaosPlan::parse("slow:0", 0).unwrap();
        assert!(matches!(slow.action(0), FaultAction::SlowUs(_)));
        let stall = ChaosPlan::parse("stall:0", 0).unwrap();
        assert_eq!(stall.action(0), FaultAction::Stall);
        let (code, param) = FaultKind::Slow { delay_us: 7 }.wire_code();
        assert_eq!((code, param), (3, 7));
    }

    #[test]
    fn wire_codes_round_trip_for_every_fault_and_reject_the_rest() {
        for kind in [
            FaultKind::Kill,
            FaultKind::Stall,
            FaultKind::Slow { delay_us: 2_000 },
            FaultKind::DropFrames { frames: 2 },
        ] {
            let (code, param) = kind.wire_code();
            assert_eq!(FaultKind::from_wire(code, param), Some(kind), "{kind:?}");
        }
        // Zero was the old "no fault armed" sentinel; neither it nor anything past the
        // last fault decodes.
        for code in [0u8, 5, 255] {
            assert_eq!(FaultKind::from_wire(code, 0), None, "code {code}");
        }
    }
}
