//! The open refresh-policy API.
//!
//! The paper's evaluation compares refresh *arrangements* — NoRefresh,
//! conventional all-bank `REF`, HiRA-N — and this module turns that closed
//! three-way choice into an open interface: a refresh arrangement is any
//! type implementing [`RefreshPolicy`], selected through a [`PolicyHandle`]
//! and (for sweeps and CLI axes) the string-keyed [`PolicyRegistry`].
//!
//! The controller/policy split mirrors the paper's Fig. 7: the *policy*
//! decides **what** to refresh and **when** (request generation, deadlines,
//! pairing decisions); the channel controller in [`crate::controller`]
//! decides **how** (command scheduling, `tRRD`/`tFAW`/bus arbitration) by
//! executing the [`RefreshAction`]s the policy emits and reporting every
//! executed activation back.
//!
//! ## Shipped policies
//!
//! | registry key | type | arrangement |
//! |--------------|------|-------------|
//! | `noref` | [`noref()`] | no periodic refresh (Fig. 9a's ideal bound) |
//! | `baseline` | [`baseline()`] | all-bank `REF` every `tREFI`, rank blocked `tRFC` |
//! | `refpb` | [`refpb()`] | per-bank `REFpb`, staggered round-robin, one bank blocked `tRFCpb` |
//! | `raidr` | [`raidr()`] | RAIDR-style retention-binned per-row refresh |
//! | `hira<N>` | [`hira()`] | per-row refresh through HiRA-MC with `tRefSlack = N·tRC` |
//!
//! PARA preventive refreshes (§9) layer onto *any* policy through its
//! handle, and only there: [`PolicyHandle::with_para_immediate`] serves
//! victims at once (the "PARA" baseline), and
//! [`PolicyHandle::with_para_hira`] queues them with slack for HiRA-MC to
//! parallelize. A `hira<N>` policy at the layer's slack hosts the queue in
//! its own HiRA-MC; any other policy runs under a
//! [`HiraPolicy::para_layer`], one HiRA-MC per rank either way.
//!
//! ## Adding a policy
//!
//! Implement the trait — only `name`, `next_action` and `stats` are
//! required — wrap a factory in a handle, register it:
//!
//! ```rust
//! use hira_sim::policy::{
//!     PolicyHandle, PolicyRegistry, PolicyStats, RankView, RefreshAction, RefreshPolicy,
//! };
//! use hira_dram::addr::{BankId, RowId};
//!
//! /// Refreshes row 0 of bank 0 once every microsecond. Useless — but a
//! /// complete policy.
//! #[derive(Debug)]
//! struct Metronome {
//!     next_due_ns: f64,
//! }
//!
//! impl RefreshPolicy for Metronome {
//!     fn name(&self) -> &str {
//!         "metronome"
//!     }
//!     fn next_action(&mut self, now_ns: f64, _view: &RankView<'_>) -> Option<RefreshAction> {
//!         (now_ns >= self.next_due_ns).then(|| {
//!             self.next_due_ns += 1_000.0;
//!             RefreshAction::Single { bank: BankId(0), row: RowId(0) }
//!         })
//!     }
//!     fn stats(&self) -> PolicyStats {
//!         PolicyStats::default()
//!     }
//! }
//!
//! let mut registry = PolicyRegistry::standard();
//! registry.register(PolicyHandle::new("metronome", |_env| {
//!     Box::new(Metronome { next_due_ns: 0.0 })
//! }));
//! let cfg = hira_sim::SystemConfig::table3(8.0, registry.lookup("metronome").unwrap());
//! let result = hira_sim::System::new(cfg.with_insts(1_000, 200)).run();
//! assert_eq!(result.ipc.len(), 8);
//! ```

mod allbank;
mod hira;
mod noref;
mod perbank;
mod preventive;
mod raidr;
mod registry;

pub use allbank::{baseline, AllBankRef};
pub use hira::{hira, hira_custom, HiraPolicy};
pub use noref::{noref, NoRefresh};
pub use perbank::{refpb, PerBankRef, REFPB_TRFC_FRACTION};
pub use preventive::ImmediatePara;
pub use raidr::{raidr, RaidrBinned, RAIDR_REFERENCE_TEMP_C};
pub use registry::{policy, PolicyRegistry};

use crate::clock::{MemClock, MemCycle};
use crate::config::SystemConfig;
use crate::controller::Bank;
use hira_core::finder::McStats;
use hira_dram::addr::{BankId, RowId};
use hira_dram::timing::TimingParams;
use std::fmt;
use std::sync::Arc;

/// Construction context handed to a policy factory: everything a per-rank
/// refresh engine may need to size its structures and seed its randomness.
#[derive(Debug, Clone, Copy)]
pub struct PolicyEnv {
    /// Channel index of the controller instantiating the policy.
    pub channel: usize,
    /// Rank index within the channel.
    pub rank: usize,
    /// Ranks sharing the channel (REF-phase staggering).
    pub ranks_per_channel: usize,
    /// Banks in the rank.
    pub banks: u16,
    /// Bank groups in the rank.
    pub bank_groups: u16,
    /// Rows per bank.
    pub rows_per_bank: u32,
    /// Rows per subarray (HiRA-MC RefPtr granularity).
    pub rows_per_subarray: u32,
    /// Chip capacity in Gb.
    pub chip_gbit: f64,
    /// DDR timing parameters (ns).
    pub timing: TimingParams,
    /// Per-bank refresh latency `tRFCpb` in ns, quoted by the configured
    /// device (`t_rfc_pb_frac × tRFC` — LPDDR4-class parts halve `tRFC`;
    /// emulating parts inherit the same conservative fraction). The
    /// duration [`RefreshAction::BankRef`]-issuing policies should quote.
    pub t_rfc_pb_ns: f64,
    /// Fraction of row pairs the SPT reports compatible (§7).
    pub spt_fraction: f64,
    /// Deterministic seed, already mixed with channel and rank so two
    /// instances of one policy never share a random stream.
    pub seed: u64,
}

impl PolicyEnv {
    /// The environment of rank `rank` on channel `channel` of `cfg`.
    pub fn for_rank(cfg: &SystemConfig, channel: usize, rank: usize) -> Self {
        PolicyEnv {
            channel,
            rank,
            ranks_per_channel: cfg.ranks,
            banks: cfg.banks,
            bank_groups: cfg.bank_groups,
            rows_per_bank: cfg.rows_per_bank(),
            rows_per_subarray: 512,
            chip_gbit: cfg.chip_gbit,
            timing: cfg.timing,
            t_rfc_pb_ns: cfg.device.profile().t_rfc_pb_frac * cfg.timing.t_rfc,
            spt_fraction: cfg.spt_fraction,
            seed: cfg.seed ^ ((channel as u64) << 32) ^ (rank as u64),
        }
    }
}

/// Builds a throwaway instance of `cfg`'s policy (channel 0, rank 0) —
/// [`crate::builder::SystemBuilder::build`] checks the HiRA lead pair of
/// *any* registered policy against the device through this.
pub fn probe(cfg: &SystemConfig) -> Box<dyn RefreshPolicy> {
    cfg.refresh.build(&PolicyEnv::for_rank(cfg, 0, 0))
}

/// A scheduling request the policy asks the controller to execute. The
/// controller owns all command-level timing (`tRRD`, `tFAW`, bus slots);
/// the action names rows and banks, plus the one duration — `tRFCpb` —
/// that is a property of the policy's refresh command, not of the shared
/// DDR timing set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RefreshAction {
    /// All-bank `REF`: precharge-all, then block every bank for `tRFC`.
    RankRef,
    /// Per-bank `REFpb`: precharge `bank`, then block it for `t_rfc_pb_ns`
    /// while the rest of the rank keeps serving demand. The duration is
    /// policy-supplied so arrangements with different per-bank refresh
    /// latencies (LPDDR4's 90 ns vs DDR5's scaling) coexist.
    BankRef {
        /// Target bank.
        bank: BankId,
        /// Bank-blocked duration, ns.
        t_rfc_pb_ns: f64,
    },
    /// Single-row refresh: `ACT row — tRAS — PRE` on `bank`.
    Single {
        /// Target bank.
        bank: BankId,
        /// Refreshed row.
        row: RowId,
    },
    /// HiRA refresh-refresh pair: one operation refreshing both rows in
    /// `t1 + t2 + tRAS` (§5.2) — both activations count toward
    /// `tRRD`/`tFAW`.
    Pair {
        /// Target bank.
        bank: BankId,
        /// Row refreshed by the hidden first activation.
        first: RowId,
        /// Row refreshed by the second activation.
        second: RowId,
    },
}

/// Case-1 verdict for a demand activation the scheduler is about to issue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DemandDecision {
    /// Issue a plain `ACT`.
    Plain,
    /// Expand the `ACT` into a HiRA refresh-access operation: the first
    /// activation refreshes `refresh_row`, the second (after `t1 + t2`)
    /// opens the demand row.
    Hira {
        /// Row refreshed by the hidden activation.
        refresh_row: RowId,
    },
}

/// Read-only per-rank scheduling state the controller hands to
/// [`RefreshPolicy::next_action`] and [`RefreshPolicy::next_wake`]: the
/// rank's slice of the controller's own [`Bank`] records and per-bank
/// demand counts, borrowed rather than copied, so a view is as current as
/// the controller itself.
#[derive(Debug, Clone, Copy)]
pub struct RankView<'a> {
    /// Current command-clock cycle.
    pub now: MemCycle,
    /// The command clock `now` and the bank timestamps tick on (maps them
    /// onto the policy's ns timeline exactly as the controller does).
    pub clock: MemClock,
    /// `tRC` in command-clock cycles (the backlog unit).
    pub t_rc: MemCycle,
    /// The rank's banks, in bank order.
    pub banks: &'a [Bank],
    /// Demand requests (reads and writes) queued per bank.
    pub queued: &'a [u32],
}

impl RankView<'_> {
    /// True when `bank`'s schedule is already several row-cycles deep —
    /// deadline-driven policies should hold that bank's work for a later
    /// tick rather than pile further onto it.
    pub fn backlogged(&self, bank: BankId) -> bool {
        self.unbacklogged_at(bank) > self.now
    }

    /// The first cycle at or after `now` at which
    /// [`backlogged`](Self::backlogged) is false for `bank`, with this
    /// bank state held fixed.
    pub fn unbacklogged_at(&self, bank: BankId) -> MemCycle {
        self.banks[bank.index()]
            .next_act
            .saturating_sub(4 * self.t_rc)
            .max(self.now)
    }

    /// True when `bank` is demand-free, closed and ready — the
    /// zero-interference slot opportunistic refresh targets.
    pub fn idle(&self, bank: BankId) -> bool {
        self.idle_at(bank) == Some(self.now)
    }

    /// The first cycle at or after `now` at which [`idle`](Self::idle)
    /// holds for `bank`, with this bank state held fixed; `None` while the
    /// bank has demand queued or a row open.
    pub fn idle_at(&self, bank: BankId) -> Option<MemCycle> {
        let b = &self.banks[bank.index()];
        (self.queued[bank.index()] == 0 && b.open_row.is_none()).then(|| b.next_act.max(self.now))
    }

    /// Command-clock cycle `cycle` in ns, as the controller converts `now`
    /// for the policy — so a wake returned as `ns(c)` arrives exactly at
    /// cycle `c`.
    pub fn ns(&self, cycle: MemCycle) -> f64 {
        self.clock.cycles_to_ns(cycle)
    }
}

/// Per-policy service counters, aggregated across composition layers (a
/// PARA wrapper folds its own counters into its inner policy's).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PolicyStats {
    /// All-bank `REF` commands requested.
    pub rank_refs: u64,
    /// Per-bank `REFpb` commands requested.
    pub bank_refs: u64,
    /// Rows refreshed through row-granular actions (a pair counts two, a
    /// refresh-access ride-along counts one).
    pub rows_refreshed: u64,
    /// Rows a binned policy skipped because their retention bin was not
    /// due this window.
    pub rows_skipped: u64,
    /// Preventive (PARA) victims queued.
    pub preventive_queued: u64,
}

impl PolicyStats {
    /// Component-wise sum (composition layers aggregate with this).
    pub fn merge(self, other: PolicyStats) -> PolicyStats {
        PolicyStats {
            rank_refs: self.rank_refs + other.rank_refs,
            bank_refs: self.bank_refs + other.bank_refs,
            rows_refreshed: self.rows_refreshed + other.rows_refreshed,
            rows_skipped: self.rows_skipped + other.rows_skipped,
            preventive_queued: self.preventive_queued + other.preventive_queued,
        }
    }
}

/// A per-rank refresh arrangement: request generation, deadline tracking
/// and pairing decisions, driven by the channel controller.
///
/// ## Timing contract
///
/// All `now_ns` arguments are nanoseconds on the memory-controller command
/// clock, monotonically non-decreasing across calls. Per controller tick
/// (one command-clock cycle) the controller:
///
/// 1. calls [`tick`](Self::tick) exactly once — advance request generation
///    to `now_ns` here; the controller guarantees at least one call per
///    `tRC`, so generators may emit several requests per call after a gap;
/// 2. calls [`next_action`](Self::next_action) repeatedly until it returns
///    `None` (or a safety bound of a few actions per bank is hit). Every
///    returned action **is executed**: the policy must commit its
///    bookkeeping (deadlines met, pointers advanced, stats counted) when it
///    returns the action, and must eventually return `None` so the tick
///    terminates. The [`RankView`] borrows the controller's live bank
///    records, so each poll already sees earlier actions of the same tick.
///
/// During demand scheduling the controller additionally calls:
///
/// * [`on_demand_act`](Self::on_demand_act) — *before* issuing a demand
///   `ACT`, at the activation's scheduled time. Returning
///   [`DemandDecision::Hira`] converts the `ACT` into a refresh-access HiRA
///   operation (§5.1.3 Case 1); the policy must treat the returned refresh
///   row as served.
/// * [`on_act_executed`](Self::on_act_executed) — *after* every executed
///   activation on the rank: demand rows, refresh singles, both rows of a
///   pair, and preventive victims alike. This is PARA's sampling point
///   (preventive refreshes disturb their own neighbours, §9), so the
///   controller never filters it.
///
/// Under the event-driven kernel ([`crate::config::KernelMode::Event`])
/// steps 1–2 are elided on ticks the policy has declared uninteresting
/// through [`next_wake`](Self::next_wake); the dense kernel
/// ([`crate::config::KernelMode::Dense`]) always performs them, and the
/// two must be observationally identical. The hook's contract is exactly
/// that guarantee.
pub trait RefreshPolicy: fmt::Debug + Send {
    /// Display name (diagnostics and stats attribution).
    fn name(&self) -> &str;

    /// Advances request generation to `now_ns`. Called once per controller
    /// tick, before any [`next_action`](Self::next_action) poll.
    fn tick(&mut self, _now_ns: f64) {}

    /// The next instant (ns) at which this policy may need attention under
    /// `view` — the contract that lets the event-driven simulation kernel
    /// skip time.
    ///
    /// By returning a wake `w > now_ns` the policy **guarantees** that at
    /// every controller tick `t` with `now_ns <= t < w` (on the dense tick
    /// grid), [`tick`](Self::tick) would not change its state and
    /// [`next_action`](Self::next_action) would return `None` *under this*
    /// view: the same bank records and demand counts, with `now` advanced
    /// to `t` — so the controller may simply not call them. The controller
    /// asks again after every tick it processes and after every request
    /// queued to the rank, so an answer never outlives the bank state it
    /// was computed from (until then it is cached, and the next tick's
    /// gate may read it at a later `t`, which this guarantee covers): work
    /// held for a backlogged or busy bank can name the cycle that bank
    /// state releases it, through [`RankView::unbacklogged_at`],
    /// [`RankView::idle_at`] and [`RankView::ns`]. The controller still
    /// delivers [`on_demand_act`](Self::on_demand_act) and
    /// [`on_act_executed`](Self::on_act_executed) whenever demand work
    /// executes, so a policy whose next action depends on those callbacks
    /// (e.g. a PARA layer) must return `now_ns` while it holds serveable
    /// work. A policy that never acts answers `f64::INFINITY`.
    ///
    /// Waking *early* is always safe (the skipped calls are no-ops by the
    /// same argument the dense kernel relies on); waking *late* breaks
    /// bit-identity with the dense kernel. The default returns `now_ns` —
    /// "poll me every tick" — which preserves exact legacy behavior for
    /// out-of-tree policies that predate this hook.
    fn next_wake(&self, now_ns: f64, _view: &RankView<'_>) -> f64 {
        now_ns
    }

    /// The next refresh the controller should execute now, or `None` when
    /// the policy has nothing (more) to issue this tick.
    fn next_action(&mut self, now_ns: f64, view: &RankView<'_>) -> Option<RefreshAction>;

    /// Case-1 hook: the scheduler is about to activate `row` in `bank`.
    fn on_demand_act(&mut self, _now_ns: f64, _bank: BankId, _row: RowId) -> DemandDecision {
        DemandDecision::Plain
    }

    /// Reports an executed activation (demand, refresh or preventive).
    fn on_act_executed(&mut self, _now_ns: f64, _bank: BankId, _row: RowId) {}

    /// Asks the policy to absorb a PARA layer natively (HiRA-MC-backed
    /// policies host PARA inside their Preventive Refresh Controller).
    /// `slack_acts` is the victim queueing slack (in `tRC`) the layer's
    /// `p_th` was certified for; a policy must refuse (return `false`, so
    /// the caller wraps it instead) unless it can honour exactly that
    /// slack — absorbing under a different deadline would void the §9.1
    /// security analysis behind `pth`.
    fn attach_para(&mut self, _pth: f64, _slack_acts: u32) -> bool {
        false
    }

    /// The `(t1, t2)` ns timings the controller should use for HiRA
    /// operations issued on this policy's behalf; `None` when the policy
    /// never emits [`RefreshAction::Pair`] or [`DemandDecision::Hira`].
    fn hira_lead(&self) -> Option<(f64, f64)> {
        None
    }

    /// HiRA-MC statistics, for HiRA-MC-backed policies (composition layers
    /// concatenate).
    fn mc_stats(&self) -> Vec<McStats> {
        Vec::new()
    }

    /// Service counters, aggregated across composition layers.
    fn stats(&self) -> PolicyStats;
}

/// Factory signature behind a [`PolicyHandle`].
pub type PolicyFactory = dyn Fn(&PolicyEnv) -> Box<dyn RefreshPolicy> + Send + Sync;

/// A cloneable, comparable *selection* of a refresh policy: the registry
/// key plus the factory that builds per-rank instances. This is what
/// [`crate::config::SystemConfig`] stores and what sweeps pass around —
/// equality and hashing go by name, so two configs selecting the same
/// registered policy compare (and bucket) equal.
#[derive(Clone)]
pub struct PolicyHandle {
    name: Arc<str>,
    summary: Arc<str>,
    factory: Arc<PolicyFactory>,
}

impl PolicyHandle {
    /// Wraps a factory under a registry name. Parameterized policies must
    /// encode their parameters in the name (e.g. `hira4`,
    /// `baseline+para(p=0.5157)`): the name is the identity.
    pub fn new(
        name: impl Into<String>,
        factory: impl Fn(&PolicyEnv) -> Box<dyn RefreshPolicy> + Send + Sync + 'static,
    ) -> Self {
        PolicyHandle {
            name: Arc::from(name.into()),
            summary: Arc::from(""),
            factory: Arc::new(factory),
        }
    }

    /// Attaches a one-line description (registry `--list` output). Not
    /// part of the identity: equality stays by name.
    pub fn with_summary(mut self, summary: impl Into<String>) -> Self {
        self.summary = Arc::from(summary.into());
        self
    }

    /// The policy's registry name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// One-line description (empty when the registrant set none).
    pub fn summary(&self) -> &str {
        &self.summary
    }

    /// Builds one per-rank instance.
    pub fn build(&self, env: &PolicyEnv) -> Box<dyn RefreshPolicy> {
        (self.factory)(env)
    }

    /// Layers immediately-served PARA preventive refreshes (§9's plain
    /// "PARA" baseline) onto this policy: every executed activation
    /// triggers with probability `pth`, and victims are refreshed as
    /// standalone singles on the very next tick.
    pub fn with_para_immediate(self, pth: f64) -> PolicyHandle {
        let name = preventive::immediate_name(&self.name, pth);
        let summary = format!("{} + immediate PARA (p_th = {pth:.4})", self.name);
        PolicyHandle::new(name, move |env| {
            Box::new(ImmediatePara::new(self.build(env), pth, env))
        })
        .with_summary(summary)
    }

    /// Layers HiRA-queued PARA preventive refreshes onto this policy:
    /// victims queue with `tRefSlack = slack_acts × tRC` and are served
    /// through HiRA-MC (refresh-access and refresh-refresh parallelized).
    /// A policy that already hosts a HiRA-MC absorbs the layer natively
    /// ([`RefreshPolicy::attach_para`]); anything else runs under a
    /// [`HiraPolicy::para_layer`].
    pub fn with_para_hira(self, pth: f64, slack_acts: u32) -> PolicyHandle {
        let name = hira::queued_name(&self.name, pth, slack_acts);
        let summary = format!(
            "{} + HiRA-{slack_acts}-queued PARA (p_th = {pth:.4})",
            self.name
        );
        PolicyHandle::new(name, move |env| {
            let mut inner = self.build(env);
            if inner.attach_para(pth, slack_acts) {
                inner
            } else {
                Box::new(HiraPolicy::para_layer(inner, pth, slack_acts, env))
            }
        })
        .with_summary(summary)
    }
}

impl fmt::Debug for PolicyHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("PolicyHandle").field(&self.name).finish()
    }
}

impl PartialEq for PolicyHandle {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
    }
}

impl Eq for PolicyHandle {}

impl std::hash::Hash for PolicyHandle {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.name.hash(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_compare_by_name() {
        assert_eq!(baseline(), baseline());
        assert_ne!(baseline(), noref());
        assert_ne!(hira(2), hira(4));
        // Parameters are part of the identity through the name.
        assert_ne!(
            baseline().with_para_immediate(0.25),
            baseline().with_para_immediate(0.5)
        );
    }

    /// A closed bank with nothing pending.
    pub(super) const IDLE: Bank = Bank {
        open_row: None,
        next_act: 0,
        next_pre: 0,
        next_cas: 0,
    };

    /// A bank whose next `ACT` never comes: backlogged for good.
    pub(super) const BLOCKED: Bank = Bank {
        next_act: MemCycle::MAX,
        ..IDLE
    };

    /// A DDR4-2400 view at cycle `now` over `banks` and their `queued`
    /// demand counts.
    pub(super) fn view<'a>(now: MemCycle, banks: &'a [Bank], queued: &'a [u32]) -> RankView<'a> {
        RankView {
            now,
            clock: MemClock::ddr4_2400(),
            t_rc: 56,
            banks,
            queued,
        }
    }

    #[test]
    fn probe_reflects_the_selected_policy() {
        let cfg = |h: &PolicyHandle| SystemConfig::table3(8.0, h.clone());
        let idle = view(0, &[IDLE; 16], &[0; 16]);
        assert_eq!(probe(&cfg(&noref())).next_wake(0.0, &idle), f64::INFINITY);
        for h in [baseline(), refpb(), raidr(), hira(4)] {
            let p = probe(&cfg(&h));
            assert_eq!(p.name(), h.name());
            assert!(p.next_wake(0.0, &idle).is_finite(), "{}", h.name());
        }
    }

    #[test]
    fn para_composition_names_encode_parameters() {
        let h = baseline().with_para_hira(0.5, 4);
        assert_eq!(h.name(), "baseline+para@hira4(p=0.5000)");
        let h = noref().with_para_immediate(0.125);
        assert_eq!(h.name(), "noref+para(p=0.1250)");
    }

    /// Polls two instances of `handle` under one fixed bank state: a dense
    /// twin every cycle, an event twin only once its
    /// [`RefreshPolicy::next_wake`] (taken after the previous cycle, as the
    /// event controller takes it) has arrived. Both see the same executed
    /// activations. They must issue identical actions at identical cycles;
    /// returns the event twin's poll count and the dense twin's action
    /// count.
    fn refined_polls_match_dense_polls(handle: PolicyHandle, cycles: u64) -> (u64, usize) {
        let clock = MemClock::ddr4_2400();
        let banks: Vec<Bank> = (0..16)
            .map(|b| Bank {
                open_row: (b % 5 == 0).then_some(0),
                next_act: (b % 4) * 700,
                ..IDLE
            })
            .collect();
        let queued: Vec<u32> = (0..16).map(|b| u32::from(b % 3 == 0)).collect();
        let env = PolicyEnv::for_rank(&SystemConfig::table3(8.0, handle.clone()), 0, 0);
        let (mut dense, mut event) = (handle.build(&env), handle.build(&env));
        let (mut dense_log, mut event_log) = (Vec::new(), Vec::new());
        let (mut wake, mut polls) = (0, 0);
        for c in 0..cycles {
            let (ns, v) = (clock.cycles_to_ns(c), view(c, &banks, &queued));
            dense.tick(ns);
            while let Some(a) = dense.next_action(ns, &v) {
                dense_log.push((c, a));
            }
            if c >= wake {
                polls += 1;
                event.tick(ns);
                while let Some(a) = event.next_action(ns, &v) {
                    event_log.push((c, a));
                }
            }
            if c % 97 == 0 {
                let (bank, row) = (BankId((c % 16) as u16), RowId(c as u32));
                dense.on_act_executed(ns, bank, row);
                event.on_act_executed(ns, bank, row);
            }
            wake = clock.wake_cycle(event.next_wake(ns, &v));
        }
        assert_eq!(dense_log, event_log, "{}: polls diverged", handle.name());
        assert_eq!(dense.stats(), event.stats());
        assert_eq!(dense.mc_stats(), event.mc_stats());
        (polls, dense_log.len())
    }

    #[test]
    fn refined_wakes_never_hide_an_action() {
        let cycles = 12_000;
        for handle in [hira(0), hira(4), hira(8), raidr()] {
            let (polls, acts) = refined_polls_match_dense_polls(handle.clone(), cycles);
            assert!(acts > 0, "{}: nothing issued", handle.name());
            assert!(
                polls * 2 < cycles,
                "{}: polled {polls} of {cycles} cycles",
                handle.name()
            );
        }
        // Time-gated policies sleep between their own commands: noref
        // issues nothing and is polled once (at cycle 0), baseline and
        // refpb are polled exactly once per REF/REFpb they issue.
        assert_eq!(refined_polls_match_dense_polls(noref(), cycles), (1, 0));
        for handle in [baseline(), refpb()] {
            let (polls, acts) = refined_polls_match_dense_polls(handle.clone(), cycles);
            assert!(acts > 0, "{}: nothing issued", handle.name());
            assert_eq!(polls, acts as u64, "{}", handle.name());
        }
        for handle in [
            baseline().with_para_hira(0.5, 4),
            hira(4).with_para_hira(0.5, 4),
            refpb().with_para_immediate(0.5),
        ] {
            let (_, acts) = refined_polls_match_dense_polls(handle.clone(), cycles);
            assert!(acts > 0, "{}: nothing issued", handle.name());
        }
    }

    #[test]
    fn hira_handles_absorb_a_para_layer_natively() {
        let cfg = SystemConfig::table3(8.0, hira(4).with_para_hira(0.5, 4));
        let p = probe(&cfg);
        // Absorbed: one HiraMc, not a wrapper around a second one.
        assert_eq!(p.mc_stats().len(), 1);
        // A baseline inner requires the wrapper (its own HiRA-MC).
        let cfg = SystemConfig::table3(8.0, baseline().with_para_hira(0.5, 4));
        assert_eq!(probe(&cfg).mc_stats().len(), 1);
        assert!(probe(&cfg).hira_lead().is_some());
    }
}
