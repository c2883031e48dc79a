//! The Concurrent Refresh Finder and the assembled HiRA-MC (§5, Fig. 7/8).
//!
//! [`HiraMc`] owns the four hardware structures (Refresh Table, RefPtr
//! Table, PR-FIFOs, SPT) plus the two request generators (PeriodicRC and the
//! PARA-hosting preventive flow) and makes the paper's scheduling decisions:
//!
//! * **Case 1** (`on_demand_act`): when the memory request scheduler is about
//!   to activate a row, search the Refresh Table (deadline order) for a
//!   refresh of the same bank that the SPT allows to ride along; if found,
//!   the `ACT` becomes a HiRA operation whose first activation performs the
//!   refresh (refresh-access parallelization).
//! * **Case 2** (`deadline_work`): a watchdog serves any request whose
//!   deadline falls within the next `tRC`, pairing it with a second queued
//!   refresh when the SPT allows (refresh-refresh parallelization) and
//!   falling back to a conventional single-row refresh otherwise.
//!
//! The host simulator drives the controller with nanosecond timestamps and
//! executes the returned actions on its DRAM timing model; it reports every
//! executed activation back via [`HiraMc::on_row_activated`] so PARA sees
//! preventive refreshes as activations too (they are).

use crate::config::HiraConfig;
use crate::para::Para;
use crate::periodic::PeriodicRc;
use crate::prfifo::PrFifo;
use crate::refptr::RefPtrTable;
use crate::refresh_table::{RefreshEntry, RefreshKind, RefreshTable};
use crate::spt::Spt;
use hira_dram::addr::{BankId, RowId, SubarrayId};
use hira_dram::timing::TimingParams;
use std::collections::VecDeque;

/// Construction parameters for one per-rank HiRA-MC instance.
#[derive(Debug, Clone)]
pub struct HiraMcParams {
    /// Banks in the rank.
    pub banks: u16,
    /// Rows per bank.
    pub rows_per_bank: u32,
    /// Rows per subarray.
    pub rows_per_subarray: u32,
    /// Refresh window in ns.
    pub t_refw_ns: f64,
    /// DDR timing parameters.
    pub timing: TimingParams,
    /// HiRA-N configuration.
    pub config: HiraConfig,
    /// Perform periodic refresh through HiRA operations (§8). When false the
    /// host uses conventional rank-level `REF` and HiRA-MC only handles
    /// preventive refreshes (§9).
    pub periodic_via_hira: bool,
    /// PARA probability threshold; `None` disables preventive refreshes.
    pub para_pth: Option<f64>,
    /// Fraction of row pairs the SPT reports compatible (§7: 32 %).
    pub spt_fraction: f64,
    /// Seed for the SPT predicate and PARA.
    pub seed: u64,
}

impl HiraMcParams {
    /// The paper's Table 3 system: 16 banks, 64 ms window, DDR4-2400.
    pub fn table3(rows_per_bank: u32, config: HiraConfig) -> Self {
        HiraMcParams {
            banks: 16,
            rows_per_bank,
            rows_per_subarray: 512,
            t_refw_ns: 64.0e6,
            timing: TimingParams::ddr4_2400(),
            config,
            periodic_via_hira: true,
            para_pth: None,
            spt_fraction: 0.32,
            seed: 0x4849_5241,
        }
    }
}

/// Case-1 decision for a demand activation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum McAction {
    /// Issue a plain `ACT` for the demand row.
    Plain,
    /// Issue a HiRA operation: first `ACT` refreshes `refresh_row`, second
    /// `ACT` opens the demand row (costs `t1 + t2` extra lead time and a
    /// second activation toward `tFAW`).
    Hira {
        /// Row refreshed by the hidden activation.
        refresh_row: RowId,
        /// Bookkeeping: what kind of refresh rode along.
        kind: RefreshKind,
    },
}

/// Case-2 work item the host must execute now.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DeadlineWork {
    /// One HiRA op refreshing both rows (`t1+t2+tRAS+tRP` bank-busy).
    Pair {
        /// Target bank.
        bank: BankId,
        /// First refreshed row.
        first: RowId,
        /// Second refreshed row.
        second: RowId,
    },
    /// A conventional single-row refresh (`tRAS+tRP` bank-busy).
    Single {
        /// Target bank.
        bank: BankId,
        /// Refreshed row.
        row: RowId,
    },
}

impl DeadlineWork {
    /// The bank the work occupies.
    pub fn bank(&self) -> BankId {
        match *self {
            DeadlineWork::Pair { bank, .. } | DeadlineWork::Single { bank, .. } => bank,
        }
    }
}

/// Controller statistics (observed by the benches and tests).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct McStats {
    /// Periodic refresh requests generated.
    pub periodic_generated: u64,
    /// Preventive refresh requests generated (PARA triggers).
    pub preventive_generated: u64,
    /// Refreshes performed by riding a demand activation (Case 1).
    pub refresh_access: u64,
    /// Refreshes performed inside refresh-refresh pairs (counts rows).
    pub refresh_refresh: u64,
    /// Refreshes performed as conventional singles.
    pub singles: u64,
    /// Requests that overflowed a full structure and were force-served.
    pub overflows: u64,
    /// Worst observed service lateness past a deadline, ns.
    pub max_lateness_ns: f64,
    /// Refresh windows completed (per rank).
    pub windows_completed: u64,
    /// Largest per-window deficit of rows refreshed vs rows required.
    pub worst_window_deficit: i64,
}

/// The per-rank HiRA Memory Controller.
#[derive(Debug, Clone)]
pub struct HiraMc {
    params: HiraMcParams,
    spt: Spt,
    table: RefreshTable,
    refptr: RefPtrTable,
    prfifo: Vec<PrFifo>,
    periodic: Option<PeriodicRc>,
    para: Option<Para>,
    /// Requests that could not be queued (structure full): served first.
    overflow: VecDeque<RefreshEntry>,
    window_end: f64,
    stats: McStats,
}

impl HiraMc {
    /// Builds the controller with a synthetic (probabilistic) SPT.
    pub fn new(params: HiraMcParams) -> Self {
        let spt = Spt::probabilistic(params.seed, params.spt_fraction, params.rows_per_subarray);
        Self::with_spt(params, spt)
    }

    /// Builds the controller around an explicit SPT (e.g. one learned from a
    /// characterized module's isolation map).
    ///
    /// HiRA-0 (`slack_acts == 0`) performs every refresh immediately after
    /// generation (§8), which leaves no window for refresh-access or
    /// refresh-refresh pairing; both are disabled in that configuration.
    pub fn with_spt(mut params: HiraMcParams, spt: Spt) -> Self {
        if params.config.slack_acts == 0 {
            params.config.refresh_access = false;
            params.config.refresh_refresh = false;
        }
        let periodic = params
            .periodic_via_hira
            .then(|| PeriodicRc::new(params.t_refw_ns, params.rows_per_bank, params.banks));
        let para = params
            .para_pth
            .map(|pth| Para::new(pth, params.seed ^ 0xACE));
        // Refresh Table sizing (§6 generalized): enough for the periodic
        // requests generated within tRefSlack at this capacity's rate, plus
        // one PR-FIFO's worth of preventive entries per bank. The paper's
        // 64K-row / 4·tRC point yields the published 68 entries.
        let per_rank_period_ns =
            params.t_refw_ns / (f64::from(params.rows_per_bank) * f64::from(params.banks));
        let slack_ns = params.config.slack_ns(&params.timing);
        let periodic_entries = (slack_ns / per_rank_period_ns).ceil() as usize + 4;
        let capacity = periodic_entries + PrFifo::PAPER_CAPACITY * params.banks as usize;
        HiraMc {
            spt,
            table: RefreshTable::new(capacity.max(RefreshTable::PAPER_CAPACITY)),
            refptr: RefPtrTable::new(params.banks, params.rows_per_bank, params.rows_per_subarray),
            prfifo: (0..params.banks).map(|_| PrFifo::default()).collect(),
            periodic,
            para,
            overflow: VecDeque::new(),
            window_end: params.t_refw_ns,
            stats: McStats::default(),
            params,
        }
    }

    /// Controller configuration.
    pub fn config(&self) -> &HiraConfig {
        &self.params.config
    }

    /// Enables the PARA preventive-request generator on an existing
    /// controller — the hook refresh-policy layers use to fold a preventive
    /// layer into a HiRA-MC that already performs periodic refresh, instead
    /// of instantiating a second controller per rank.
    pub fn enable_para(&mut self, pth: f64) {
        self.params.para_pth = Some(pth);
        self.para = Some(Para::new(pth, self.params.seed ^ 0xACE));
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> McStats {
        self.stats
    }

    /// Advances request generation to `now`. Call at least once per `tRC`.
    pub fn tick(&mut self, now: f64) {
        // Window rollover accounting (refresh-completeness verification).
        while now >= self.window_end {
            for b in 0..self.params.banks {
                let refreshed = self.refptr.roll_window(BankId(b));
                let deficit = i64::from(self.params.rows_per_bank) - i64::from(refreshed);
                self.stats.worst_window_deficit = self.stats.worst_window_deficit.max(deficit);
            }
            self.stats.windows_completed += 1;
            self.window_end += self.params.t_refw_ns;
        }
        let slack = self.params.config.slack_ns(&self.params.timing);
        if let Some(periodic) = &mut self.periodic {
            for (gen_t, bank) in periodic.tick(now) {
                self.stats.periodic_generated += 1;
                let entry = RefreshEntry {
                    deadline: gen_t + slack,
                    bank,
                    kind: RefreshKind::Periodic,
                    victim: None,
                };
                if !self.table.insert(entry) {
                    self.stats.overflows += 1;
                    self.overflow.push_back(entry);
                }
            }
        }
    }

    /// PARA hook: the host reports **every** executed row activation —
    /// demand rows, HiRA hidden rows, and preventive-refresh rows alike.
    pub fn on_row_activated(&mut self, now: f64, bank: BankId, row: RowId) {
        let Some(para) = &mut self.para else { return };
        let Some(side) = para.on_activate() else {
            return;
        };
        self.stats.preventive_generated += 1;
        let victim = Para::victim(row, side, self.params.rows_per_bank);
        let slack = self.params.config.slack_ns(&self.params.timing);
        let entry = RefreshEntry {
            deadline: now + slack,
            bank,
            kind: RefreshKind::Preventive,
            victim: Some(victim),
        };
        let fits = !self.prfifo[bank.index()].is_full() && !self.table.is_full();
        if fits {
            let pushed = self.prfifo[bank.index()].push(victim);
            debug_assert!(pushed);
            let inserted = self.table.insert(entry);
            debug_assert!(inserted);
        } else {
            self.stats.overflows += 1;
            self.overflow.push_back(entry);
        }
    }

    /// Case 1: the scheduler is about to activate `demand_row` in `bank`.
    pub fn on_demand_act(&mut self, now: f64, bank: BankId, demand_row: RowId) -> McAction {
        if !self.params.config.refresh_access {
            return McAction::Plain;
        }
        // Walk this bank's queued requests in deadline order (§5.1.3 a).
        let mut candidates: Vec<RefreshEntry> = self
            .table
            .iter()
            .filter(|e| e.bank == bank)
            .copied()
            .collect();
        candidates.sort_by(|a, b| a.deadline.total_cmp(&b.deadline));
        for entry in candidates {
            match entry.kind {
                RefreshKind::Periodic => {
                    // Find a compatible subarray with the least progress.
                    let pick = self.refptr.select(bank, |row| {
                        row != demand_row && self.spt.compatible(row, demand_row)
                    });
                    if let Some((sa, row)) = pick {
                        self.consume(now, &entry);
                        self.refptr.advance(bank, sa);
                        self.stats.refresh_access += 1;
                        return McAction::Hira {
                            refresh_row: row,
                            kind: RefreshKind::Periodic,
                        };
                    }
                }
                RefreshKind::Preventive => {
                    // Only the PR-FIFO head may be served (§5.1.3 c).
                    let Some(head) = self.prfifo[bank.index()].head() else {
                        continue;
                    };
                    if entry.victim == Some(head)
                        && head != demand_row
                        && self.spt.compatible(head, demand_row)
                    {
                        self.consume(now, &entry);
                        self.prfifo[bank.index()].pop();
                        self.stats.refresh_access += 1;
                        return McAction::Hira {
                            refresh_row: head,
                            kind: RefreshKind::Preventive,
                        };
                    }
                }
            }
        }
        McAction::Plain
    }

    /// Case 2: returns refresh work whose deadline falls within the next
    /// `tRC` (call repeatedly until `None`).
    pub fn deadline_work(&mut self, now: f64) -> Option<DeadlineWork> {
        let horizon = now + self.params.timing.t_rc;
        let entry = if let Some(e) = self.overflow.pop_front() {
            e
        } else {
            self.table.pop_due(horizon)?
        };
        self.note_lateness(now, &entry);
        let bank = entry.bank;
        let first = self.resolve_row(&entry);

        // Refresh-refresh pairing (§5.1.3 case 2, step 7-8).
        if self.params.config.refresh_refresh {
            if let Some(second) = self.pair_partner(bank, first) {
                self.stats.refresh_refresh += 2;
                return Some(DeadlineWork::Pair {
                    bank,
                    first,
                    second,
                });
            }
        }
        self.stats.singles += 1;
        Some(DeadlineWork::Single { bank, row: first })
    }

    /// Opportunistic service (Case 2 extension): when `bank` is idle and has
    /// no queued demand, serve its earliest queued refresh *before* the
    /// deadline. This trades a (no-longer-possible) refresh-access pairing
    /// for zero-interference service — the behaviour a deadline-driven
    /// scheduler converges to on idle banks.
    pub fn opportunistic_work(&mut self, now: f64, bank: BankId) -> Option<DeadlineWork> {
        let entry = self.table.pop_for_bank(bank)?;
        self.note_lateness(now, &entry);
        let first = self.resolve_row(&entry);
        if self.params.config.refresh_refresh {
            if let Some(second) = self.pair_partner(bank, first) {
                self.stats.refresh_refresh += 2;
                return Some(DeadlineWork::Pair {
                    bank,
                    first,
                    second,
                });
            }
        }
        self.stats.singles += 1;
        Some(DeadlineWork::Single { bank, row: first })
    }

    /// Whether any request is queued for `bank` (any deadline).
    pub fn has_queued(&self, bank: BankId) -> bool {
        self.table.iter().any(|e| e.bank == bank)
    }

    /// The bank of the next work item [`HiraMc::deadline_work`] would return
    /// at `now`, without popping it (lets hosts pace refresh issue per bank).
    pub fn next_due_bank(&self, now: f64) -> Option<BankId> {
        if let Some(e) = self.overflow.front() {
            return Some(e.bank);
        }
        let horizon = now + self.params.timing.t_rc;
        self.table
            .iter()
            .filter(|e| e.deadline <= horizon)
            .min_by(|a, b| a.deadline.total_cmp(&b.deadline))
            .map(|e| e.bank)
    }

    /// The next instant [`HiraMc::tick`] changes state at: the earliest of
    /// the next periodic generation and the window-rollover accounting
    /// point. Queued requests do not move it: when they can be served
    /// depends on bank state the controller cannot see, so a time-skipping
    /// host combines this with [`HiraMc::next_due`] and
    /// [`HiraMc::queued_banks`] under its own bank state. With nothing
    /// queued, [`HiraMc::deadline_work`] and [`HiraMc::opportunistic_work`]
    /// have nothing to serve and [`HiraMc::on_demand_act`] returns
    /// [`McAction::Plain`] before this instant.
    pub fn generation_wake(&self) -> f64 {
        let gen = self
            .periodic
            .as_ref()
            .map_or(f64::INFINITY, PeriodicRc::next_due);
        gen.min(self.window_end)
    }

    /// When [`HiraMc::next_due_bank`] starts naming a bank, and which one,
    /// while the queues stay as they are: the earliest `now` at which it
    /// returns `Some(bank)`, found with its own float test
    /// (`deadline <= now + tRC`), so the instant is exact. Overflowed
    /// requests are due at any instant (`f64::NEG_INFINITY`). `None` with
    /// nothing queued.
    pub fn next_due(&self) -> Option<(f64, BankId)> {
        if let Some(e) = self.overflow.front() {
            return Some((f64::NEG_INFINITY, e.bank));
        }
        let t_rc = self.params.timing.t_rc;
        let e = self.table.earliest()?;
        // The smallest f64 `now` with `deadline <= now + t_rc`: the float
        // sum is monotone in `now`, so step from the algebraic guess to
        // the boundary.
        let mut now = e.deadline - t_rc;
        while now + t_rc < e.deadline {
            now = now.next_up();
        }
        while now.next_down() + t_rc >= e.deadline {
            now = now.next_down();
        }
        Some((now, e.bank))
    }

    /// The bank of every request in the Refresh Table, one per entry (a
    /// bank may repeat): the banks [`HiraMc::opportunistic_work`] can
    /// serve.
    pub fn queued_banks(&self) -> impl Iterator<Item = BankId> + '_ {
        self.table.iter().map(|e| e.bank)
    }

    fn consume(&mut self, now: f64, entry: &RefreshEntry) {
        self.note_lateness(now, entry);
        self.table.remove(entry);
    }

    fn note_lateness(&mut self, now: f64, entry: &RefreshEntry) {
        let lateness = now - entry.deadline;
        if lateness > self.stats.max_lateness_ns {
            self.stats.max_lateness_ns = lateness;
        }
    }

    /// Resolves the row an entry refreshes (RefPtr for periodic, the queued
    /// victim for preventive) and advances the bookkeeping.
    fn resolve_row(&mut self, entry: &RefreshEntry) -> RowId {
        match entry.kind {
            RefreshKind::Periodic => {
                let (sa, row) = self.refptr.select_any(entry.bank);
                self.refptr.advance(entry.bank, sa);
                row
            }
            RefreshKind::Preventive => {
                // The victim may not be the FIFO head if overflow reordered
                // things; remove it wherever it is (hardware would drain in
                // order — the distinction does not affect timing).
                let fifo = &mut self.prfifo[entry.bank.index()];
                match entry.victim {
                    Some(v) => {
                        if fifo.head() == Some(v) {
                            fifo.pop();
                        }
                        v
                    }
                    None => fifo.pop().unwrap_or(RowId(0)),
                }
            }
        }
    }

    /// Finds a second refresh for `bank` compatible with `first`.
    fn pair_partner(&mut self, bank: BankId, first: RowId) -> Option<RowId> {
        let candidates: Vec<RefreshEntry> = {
            let mut v: Vec<RefreshEntry> = self
                .table
                .iter()
                .filter(|e| e.bank == bank)
                .copied()
                .collect();
            v.sort_by(|a, b| a.deadline.total_cmp(&b.deadline));
            v
        };
        for entry in candidates {
            match entry.kind {
                RefreshKind::Periodic => {
                    let pick = self
                        .refptr
                        .select(bank, |row| row != first && self.spt.compatible(row, first));
                    if let Some((sa, row)) = pick {
                        self.table.remove(&entry);
                        self.refptr.advance(bank, sa);
                        return Some(row);
                    }
                }
                RefreshKind::Preventive => {
                    let Some(head) = self.prfifo[bank.index()].head() else {
                        continue;
                    };
                    if entry.victim == Some(head)
                        && head != first
                        && self.spt.compatible(head, first)
                    {
                        self.table.remove(&entry);
                        self.prfifo[bank.index()].pop();
                        return Some(head);
                    }
                }
            }
        }
        None
    }

    /// Periodic-refresh progress of `bank` within the current window.
    pub fn window_progress(&self, bank: BankId) -> u32 {
        self.refptr.window_progress(bank)
    }

    /// The subarray a row belongs to (convenience for hosts).
    pub fn subarray_of(&self, row: RowId) -> SubarrayId {
        SubarrayId((row.0 / self.params.rows_per_subarray) as u16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(n: u32) -> HiraMcParams {
        HiraMcParams::table3(64 * 1024, HiraConfig::hira_n(n))
    }

    #[test]
    fn periodic_requests_flow_into_the_table() {
        let mut mc = HiraMc::new(params(4));
        mc.tick(200.0);
        // 200 ns / (976 ns / 16 banks) ≈ 3-4 staggered requests.
        let s = mc.stats();
        assert!(
            s.periodic_generated >= 3 && s.periodic_generated <= 5,
            "{s:?}"
        );
    }

    #[test]
    fn case1_pairs_a_periodic_refresh_with_an_access() {
        let mut mc = HiraMc::new(params(4));
        mc.tick(200.0);
        // Demand ACT to bank 0 (which received the first request at t=0).
        let action = mc.on_demand_act(210.0, BankId(0), RowId(40_000));
        match action {
            McAction::Hira { refresh_row, kind } => {
                assert_eq!(kind, RefreshKind::Periodic);
                assert!(mc.spt.compatible(refresh_row, RowId(40_000)));
            }
            McAction::Plain => panic!("expected a refresh-access pairing"),
        }
        assert_eq!(mc.stats().refresh_access, 1);
        // The request is consumed: nothing due for bank 0 now.
        assert!(mc.on_demand_act(211.0, BankId(0), RowId(40_000)) == McAction::Plain);
    }

    #[test]
    fn case1_respects_the_ablation_flag() {
        let p = HiraMcParams::table3(64 * 1024, HiraConfig::hira_n(4).without_refresh_access());
        let mut mc = HiraMc::new(p);
        mc.tick(200.0);
        assert_eq!(
            mc.on_demand_act(210.0, BankId(0), RowId(40_000)),
            McAction::Plain
        );
    }

    #[test]
    fn case2_serves_due_requests_and_pairs_when_possible() {
        // Slack 2 with a stalled service: several requests per bank become
        // simultaneously due and must pair.
        let mut mc = HiraMc::new(params(2));
        mc.tick(4_000.0);
        let mut singles = 0;
        let mut paired = 0;
        while let Some(w) = mc.deadline_work(4_000.0) {
            match w {
                DeadlineWork::Pair { first, second, .. } => {
                    assert_ne!(first, second);
                    paired += 2;
                }
                DeadlineWork::Single { .. } => singles += 1,
            }
        }
        let total = singles + paired;
        assert!(total >= 30, "served {total}");
        assert!(paired > 0, "expected at least one refresh-refresh pair");
    }

    #[test]
    fn hira_0_never_pairs() {
        let mut mc = HiraMc::new(params(0)); // immediate service: no pairing
        mc.tick(4_000.0);
        while let Some(w) = mc.deadline_work(4_000.0) {
            assert!(
                matches!(w, DeadlineWork::Single { .. }),
                "HiRA-0 paired: {w:?}"
            );
        }
        assert_eq!(mc.stats().refresh_refresh, 0);
        // And Case 1 is inert too.
        mc.tick(5_000.0);
        assert_eq!(
            mc.on_demand_act(5_000.0, BankId(0), RowId(40_000)),
            McAction::Plain
        );
    }

    #[test]
    fn deadline_work_respects_the_horizon() {
        let mut mc = HiraMc::new(params(8)); // slack = 370 ns
        mc.tick(10.0);
        // Deadline of the first request is ~370 ns; at now=10 the horizon is
        // 10+46.25 — nothing due yet.
        assert!(mc.deadline_work(10.0).is_none());
        assert!(mc.deadline_work(330.0).is_some());
    }

    #[test]
    fn para_triggers_enqueue_preventive_refreshes() {
        let mut p = params(4);
        p.para_pth = Some(1.0); // always trigger
        p.periodic_via_hira = false;
        let mut mc = HiraMc::new(p);
        mc.on_row_activated(100.0, BankId(3), RowId(500));
        assert_eq!(mc.stats().preventive_generated, 1);
        // The victim is adjacent to the activated row.
        let w = mc.deadline_work(300.0).expect("preventive refresh due");
        match w {
            DeadlineWork::Single { bank, row } => {
                assert_eq!(bank, BankId(3));
                assert!(row.0.abs_diff(500) == 1, "victim {row}");
            }
            DeadlineWork::Pair { .. } => panic!("single victim cannot pair"),
        }
    }

    #[test]
    fn preventive_overflow_is_force_served() {
        let mut p = params(8);
        p.para_pth = Some(1.0);
        p.periodic_via_hira = false;
        let mut mc = HiraMc::new(p);
        // 6 triggers into a 4-deep FIFO: 2 overflows.
        for i in 0..6 {
            mc.on_row_activated(f64::from(i), BankId(0), RowId(1000 + i * 2));
        }
        assert_eq!(mc.stats().overflows, 2);
        // Overflow work is available immediately despite the 8·tRC slack.
        assert!(mc.deadline_work(6.0).is_some());
    }

    #[test]
    fn window_accounting_reports_deficits() {
        // A controller that never gets服务 would show a full-window deficit;
        // serve everything through case 2 and the deficit stays ~zero.
        let rows = 2_048u32;
        let mut p = params(0);
        p.rows_per_bank = rows;
        p.t_refw_ns = 1.0e6; // small window for a fast test
        let mut mc = HiraMc::new(p);
        let mut now = 0.0;
        while now < 1.0e6 {
            mc.tick(now);
            while let Some(_w) = mc.deadline_work(now) {}
            now += 400.0;
        }
        mc.tick(1.0e6 + 1.0);
        let s = mc.stats();
        assert_eq!(s.windows_completed, 1);
        assert!(
            s.worst_window_deficit <= 64,
            "deficit {} (of {} rows)",
            s.worst_window_deficit,
            rows
        );
    }

    #[test]
    fn lateness_is_tracked() {
        let mut mc = HiraMc::new(params(0));
        mc.tick(10.0);
        let _ = mc.deadline_work(500.0);
        assert!(mc.stats().max_lateness_ns > 0.0);
    }

    #[test]
    fn generation_wake_is_the_next_generation_instant() {
        let mut mc = HiraMc::new(params(4));
        // Fresh controller: nothing queued, first generation at t = 0.
        assert_eq!(mc.generation_wake(), 0.0);
        assert_eq!(mc.next_due(), None);
        // Generate: queued requests name their earliest deadline.
        mc.tick(200.0);
        assert!(mc.next_due().is_some());
        assert!(mc.queued_banks().next().is_some());
        // Drain every queued request (opportunistic service ignores
        // deadlines): only the next generation instant is left.
        for b in 0..16 {
            while mc.opportunistic_work(200.0, BankId(b)).is_some() {}
        }
        assert_eq!(mc.next_due(), None);
        let wake = mc.generation_wake();
        assert!(wake > 200.0, "drained controller must sleep ({wake})");
        // The declared wake really is the next generation instant: a tick
        // just before it generates nothing, a tick at it does.
        let before = mc.stats().periodic_generated;
        mc.tick(wake - 1.0);
        assert_eq!(mc.stats().periodic_generated, before);
        mc.tick(wake);
        assert!(mc.stats().periodic_generated > before);
    }
}
