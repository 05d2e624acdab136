//! Deterministic fault injection: link failures, brownouts, bursty loss.
//!
//! A [`FaultPlan`] is a time-ordered list of [`FaultAction`]s the
//! simulator replays through its own event queue
//! ([`crate::sim::Simulator::install_faults`]), so faults interleave with
//! packet events deterministically: the same `(topology, workload, seed,
//! plan)` tuple always produces the same trace, byte for byte. Loss draws
//! come from per-link RNG streams (see [`crate::rng::SimRng::for_stream`])
//! rather than the global generator, so a plan on one link never shifts
//! which packets drop on another.
//!
//! Three fault classes:
//!
//! * **Link down/up** ([`FaultAction::LinkDown`]/[`FaultAction::LinkUp`]):
//!   while down, the egress queue is drained (those packets are lost),
//!   packets already on the wire are cut (they never arrive), and newly
//!   enqueued packets wait for repair.
//! * **Brownout** ([`FaultAction::SetRateFactor`]): the serializer runs at
//!   a fraction of the provisioned rate for a window.
//! * **Bursty loss** ([`FaultAction::SetLoss`] with
//!   [`LossModel::GilbertElliott`]): the classic two-state Markov loss
//!   process, which produces correlated loss bursts a Bernoulli model
//!   cannot.

use crate::link::LinkId;
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// Parameters of the Gilbert–Elliott two-state Markov loss process.
///
/// The channel alternates between a *good* and a *bad* state; each packet
/// first advances the state machine (one transition draw), then is
/// dropped with the state's loss probability. `p_good_to_bad` small and
/// `p_bad_to_good` moderate yields rare but clustered loss bursts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GilbertElliott {
    /// Per-packet probability of transitioning good → bad.
    pub p_good_to_bad: f64,
    /// Per-packet probability of transitioning bad → good.
    pub p_bad_to_good: f64,
    /// Drop probability while in the good state (often 0).
    pub loss_good: f64,
    /// Drop probability while in the bad state (often near 1).
    pub loss_bad: f64,
}

impl GilbertElliott {
    /// A standard bursty profile: lossless good state, `loss_bad` drops
    /// in bad bursts of mean length `1 / p_bad_to_good` packets.
    pub fn bursty(p_good_to_bad: f64, p_bad_to_good: f64, loss_bad: f64) -> Self {
        Self {
            p_good_to_bad,
            p_bad_to_good,
            loss_good: 0.0,
            loss_bad,
        }
    }

    /// The stationary mean loss rate of the process.
    pub fn mean_loss(&self) -> f64 {
        let denom = self.p_good_to_bad + self.p_bad_to_good;
        if denom <= 0.0 {
            return self.loss_good;
        }
        let pi_bad = self.p_good_to_bad / denom;
        pi_bad * self.loss_bad + (1.0 - pi_bad) * self.loss_good
    }
}

/// Per-packet loss process on a directed channel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LossModel {
    /// Independent per-packet drops with a fixed probability.
    Bernoulli(f64),
    /// Correlated (bursty) drops from a two-state Markov chain.
    GilbertElliott(GilbertElliott),
}

/// A [`LossModel`] plus its mutable channel state (the Markov phase).
#[derive(Debug, Clone)]
pub struct LossState {
    /// The configured process.
    pub model: LossModel,
    /// Gilbert–Elliott phase: currently in the bad state.
    bad: bool,
}

impl LossState {
    /// Fresh state (Gilbert–Elliott starts in the good state).
    pub fn new(model: LossModel) -> Self {
        Self { model, bad: false }
    }

    /// Advances the process by one packet and decides whether it drops.
    pub fn drops_packet(&mut self, rng: &mut SimRng) -> bool {
        match self.model {
            LossModel::Bernoulli(p) => rng.chance(p),
            LossModel::GilbertElliott(ge) => {
                let flip = if self.bad {
                    ge.p_bad_to_good
                } else {
                    ge.p_good_to_bad
                };
                if rng.chance(flip) {
                    self.bad = !self.bad;
                }
                let p = if self.bad { ge.loss_bad } else { ge.loss_good };
                rng.chance(p)
            }
        }
    }
}

/// One injectable fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultAction {
    /// Cut a directed channel: drain its egress queue, kill packets on
    /// the wire, block egress until [`FaultAction::LinkUp`].
    LinkDown {
        /// The affected channel.
        link: LinkId,
    },
    /// Repair a downed channel; queued-while-down packets start flowing.
    LinkUp {
        /// The affected channel.
        link: LinkId,
    },
    /// Scale the channel's serialization rate by `factor` (a brownout for
    /// `factor < 1`; `1.0` restores the provisioned rate).
    SetRateFactor {
        /// The affected channel.
        link: LinkId,
        /// Effective-rate multiplier, clamped to be positive.
        factor: f64,
    },
    /// Replace the channel's loss process.
    SetLoss {
        /// The affected channel.
        link: LinkId,
        /// The new process (fresh state).
        model: LossModel,
    },
    /// Restore the channel's loss process to its [`crate::link::LinkSpec`]
    /// Bernoulli probability.
    RestoreLoss {
        /// The affected channel.
        link: LinkId,
    },
}

impl FaultAction {
    /// The channel the action affects.
    pub fn link(&self) -> LinkId {
        match *self {
            FaultAction::LinkDown { link }
            | FaultAction::LinkUp { link }
            | FaultAction::SetRateFactor { link, .. }
            | FaultAction::SetLoss { link, .. }
            | FaultAction::RestoreLoss { link } => link,
        }
    }
}

/// A fault scheduled at an absolute simulation time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduledFault {
    /// When the action fires.
    pub at: SimTime,
    /// What happens.
    pub action: FaultAction,
}

/// A deterministic schedule of faults, built fluently and installed via
/// [`crate::sim::Simulator::install_faults`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// The scheduled actions (installation order; the event queue orders
    /// equal-time actions by insertion, so plan order is tie-break order).
    pub faults: Vec<ScheduledFault>,
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether the plan schedules anything.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Schedules a raw action (builder style).
    pub fn at(mut self, at: SimTime, action: FaultAction) -> Self {
        self.faults.push(ScheduledFault { at, action });
        self
    }

    /// A link flap: down at `at`, repaired `outage` later.
    pub fn link_flap(self, link: LinkId, at: SimTime, outage: SimDuration) -> Self {
        self.at(at, FaultAction::LinkDown { link })
            .at(at + outage, FaultAction::LinkUp { link })
    }

    /// A brownout window: the channel runs at `factor` of its rate from
    /// `at` for `window`, then recovers.
    pub fn brownout(self, link: LinkId, at: SimTime, window: SimDuration, factor: f64) -> Self {
        self.at(at, FaultAction::SetRateFactor { link, factor }).at(
            at + window,
            FaultAction::SetRateFactor { link, factor: 1.0 },
        )
    }

    /// A loss window: the channel runs `model` from `at` for `window`,
    /// then reverts to its spec's Bernoulli loss.
    pub fn loss_window(
        self,
        link: LinkId,
        at: SimTime,
        window: SimDuration,
        model: LossModel,
    ) -> Self {
        self.at(at, FaultAction::SetLoss { link, model })
            .at(at + window, FaultAction::RestoreLoss { link })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_builders_schedule_pairs() {
        let l = LinkId(3);
        let plan = FaultPlan::new()
            .link_flap(l, SimTime(100), SimDuration(50))
            .brownout(l, SimTime(300), SimDuration(100), 0.25)
            .loss_window(l, SimTime(500), SimDuration(100), LossModel::Bernoulli(0.1));
        assert_eq!(plan.faults.len(), 6);
        assert_eq!(plan.faults[0].at, SimTime(100));
        assert_eq!(plan.faults[1].at, SimTime(150));
        assert!(matches!(plan.faults[1].action, FaultAction::LinkUp { .. }));
        assert!(matches!(
            plan.faults[3].action,
            FaultAction::SetRateFactor { factor, .. } if factor == 1.0
        ));
        assert!(matches!(
            plan.faults[5].action,
            FaultAction::RestoreLoss { .. }
        ));
        assert!(FaultPlan::new().is_empty());
        assert!(!plan.is_empty());
    }

    #[test]
    fn gilbert_elliott_stationary_loss() {
        let ge = GilbertElliott::bursty(0.01, 0.1, 0.9);
        // pi_bad = 0.01 / 0.11 = 1/11; mean loss = 0.9 / 11.
        assert!((ge.mean_loss() - 0.9 / 11.0).abs() < 1e-12);

        let mut st = LossState::new(LossModel::GilbertElliott(ge));
        let mut rng = SimRng::new(42);
        let n = 200_000;
        let drops = (0..n).filter(|_| st.drops_packet(&mut rng)).count();
        let rate = drops as f64 / n as f64;
        assert!(
            (rate - ge.mean_loss()).abs() < 0.01,
            "empirical={rate} stationary={}",
            ge.mean_loss()
        );
    }

    #[test]
    fn gilbert_elliott_losses_are_bursty() {
        // Same mean loss, but GE clusters drops: its drop runs are longer
        // than Bernoulli's at equal rates.
        let ge = GilbertElliott::bursty(0.005, 0.05, 1.0);
        let mean = ge.mean_loss();
        let run_lengths = |mut st: LossState, seed: u64| -> f64 {
            let mut rng = SimRng::new(seed);
            let (mut runs, mut total, mut cur) = (0u64, 0u64, 0u64);
            for _ in 0..100_000 {
                if st.drops_packet(&mut rng) {
                    cur += 1;
                } else if cur > 0 {
                    runs += 1;
                    total += cur;
                    cur = 0;
                }
            }
            if runs == 0 {
                0.0
            } else {
                total as f64 / runs as f64
            }
        };
        let ge_run = run_lengths(LossState::new(LossModel::GilbertElliott(ge)), 7);
        let be_run = run_lengths(LossState::new(LossModel::Bernoulli(mean)), 7);
        assert!(
            ge_run > 3.0 * be_run,
            "ge mean run {ge_run} vs bernoulli {be_run}"
        );
    }

    #[test]
    fn loss_state_deterministic_per_stream() {
        let ge = LossModel::GilbertElliott(GilbertElliott::bursty(0.02, 0.2, 0.8));
        let draw = |seed| {
            let mut st = LossState::new(ge);
            let mut rng = SimRng::for_stream(seed, 5);
            (0..1000)
                .map(|_| st.drops_packet(&mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(9), draw(9));
        assert_ne!(draw(9), draw(10));
    }
}
