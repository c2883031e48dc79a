//! The module-level chip model: command execution, stored data, RowHammer
//! and retention state.
//!
//! A DDR4 module's chips operate in lock-step (§2.1), so the model treats the
//! module as one logical chip whose row is the module-level row (8 KB). Rows
//! are materialized lazily — only rows that are written or disturbed occupy
//! memory — which keeps multi-gigabyte modules cheap to model.
//!
//! Like real silicon, [`DramModule::execute`] performs **no timing checks**:
//! it hands the command to the bank circuit ([`crate::bank`]) which decides
//! what the analog circuits would do. Host-level helpers (`write_row`,
//! `read_row`, `hira`, `hammer_pair`) issue nominally-timed sequences and
//! advance the module's internal clock.

use crate::addr::{BankId, PhysRowId, RowId};
use crate::bank::{BankCircuit, CircuitCtx, CircuitEffect};
use crate::command::DramCommand;
use crate::error::DramError;
use crate::geometry::ChipGeometry;
use crate::isolation::IsolationMap;
use crate::module_spec::ModuleSpec;
use crate::rng::Stream;
use crate::timing::{HiraTimings, TimingParams};
use std::collections::HashMap;

/// Restoration fraction at/above which a close counts as a full restore.
const FULL_RESTORE_FRAC: f64 = 0.97;

/// Per-row dynamic state (lazily created).
#[derive(Debug, Clone, Default)]
struct RowState {
    /// Stored bits; `None` until first written.
    data: Option<Box<[u8]>>,
    /// Accumulated disturbance from neighbour activations.
    hammer: f64,
    /// Timestamp (ns) of the last full charge restoration.
    last_restore: f64,
    /// Number of sensing events (keys measurement noise).
    senses: u64,
    /// Number of corruption events (keys the garble mask).
    corruptions: u64,
}

/// Counters of decoder/circuit events, useful for verification (§4.3 checks
/// that HiRA's second `ACT` is *not* ignored).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ModuleStats {
    /// `ACT` commands dropped by the decoder.
    pub acts_ignored: u64,
    /// `PRE` commands dropped by the decoder.
    pub pres_ignored: u64,
    /// Rows fully corrupted by circuit events.
    pub corruption_events: u64,
    /// Rows closed with partial restoration.
    pub partial_restores: u64,
    /// Rows closed fully restored.
    pub full_restores: u64,
    /// RowHammer bit-flip materializations.
    pub rowhammer_flips: u64,
    /// Retention-failure materializations.
    pub retention_flips: u64,
}

/// A behavioural model of one DRAM module (rank).
#[derive(Debug, Clone)]
pub struct DramModule {
    spec: ModuleSpec,
    isolation: IsolationMap,
    timing: TimingParams,
    banks: Vec<BankCircuit>,
    rows: HashMap<u64, RowState>,
    now: f64,
    temp_c: f64,
    stats: ModuleStats,
}

impl DramModule {
    /// Builds a module from its spec. The isolation matrix is generated once
    /// (identical across banks, §4.4.1).
    pub fn new(spec: ModuleSpec) -> Self {
        let isolation = spec.isolation_map();
        let banks = (0..spec.geometry.banks)
            .map(|_| BankCircuit::new())
            .collect();
        let timing = TimingParams::ddr4_2400_with_capacity(spec.geometry.chip_gbit());
        DramModule {
            spec,
            isolation,
            timing,
            banks,
            rows: HashMap::new(),
            now: 0.0,
            temp_c: 45.0,
            stats: ModuleStats::default(),
        }
    }

    /// Module geometry.
    pub fn geometry(&self) -> &ChipGeometry {
        &self.spec.geometry
    }

    /// Module specification.
    pub fn spec(&self) -> &ModuleSpec {
        &self.spec
    }

    /// The module's row-pair isolation predicate.
    pub fn isolation(&self) -> &IsolationMap {
        &self.isolation
    }

    /// Nominal timing parameters for this module's capacity.
    pub fn timing(&self) -> &TimingParams {
        &self.timing
    }

    /// Current module time in ns.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Event counters.
    pub fn stats(&self) -> ModuleStats {
        self.stats
    }

    /// Sets the ambient temperature (the heater rig of §4.1).
    pub fn set_temperature(&mut self, temp_c: f64) {
        self.temp_c = temp_c;
    }

    /// Current temperature in °C.
    pub fn temperature(&self) -> f64 {
        self.temp_c
    }

    fn key(bank: BankId, row: RowId) -> u64 {
        (u64::from(bank.0) << 32) | u64::from(row.0)
    }

    /// Runs `f` on the bank circuit with a borrowed context (the context
    /// borrows `spec`/`isolation`, disjoint from the mutable bank borrow).
    fn with_bank<R>(
        &mut self,
        bank: BankId,
        f: impl FnOnce(&mut BankCircuit, &CircuitCtx<'_>) -> R,
    ) -> R {
        let ctx = CircuitCtx {
            seed: self.spec.seed,
            bank,
            rows_per_bank: self.spec.geometry.rows_per_bank,
            rows_per_subarray: self.spec.geometry.rows_per_subarray,
            analog: &self.spec.analog,
            isolation: &self.isolation,
            behavior: self.spec.manufacturer.violation_behavior(),
        };
        f(&mut self.banks[bank.index()], &ctx)
    }

    fn check_bank(&self, bank: BankId) -> Result<(), DramError> {
        if bank.index() >= self.banks.len() {
            return Err(DramError::BankOutOfRange {
                bank,
                banks: self.spec.geometry.banks,
            });
        }
        Ok(())
    }

    fn check_row(&self, row: RowId) -> Result<(), DramError> {
        if row.0 >= self.spec.geometry.rows_per_bank {
            return Err(DramError::RowOutOfRange {
                row,
                rows_per_bank: self.spec.geometry.rows_per_bank,
            });
        }
        Ok(())
    }

    /// Executes a command at absolute time `at` (ns).
    ///
    /// # Panics
    ///
    /// Panics if `at` precedes the module clock (commands must be issued in
    /// time order) or if the command addresses a non-existent bank/row.
    pub fn execute(&mut self, cmd: DramCommand, at: f64) {
        assert!(
            at >= self.now - 1e-9,
            "command {cmd} at {at} ns precedes module time {} ns",
            self.now
        );
        self.now = self.now.max(at);
        match cmd {
            DramCommand::Act { bank, row } => {
                self.check_bank(bank).expect("bank in range");
                self.check_row(row).expect("row in range");
                let effects = self.with_bank(bank, |b, ctx| b.act(ctx, row, at));
                let activated = effects
                    .iter()
                    .any(|e| matches!(e, CircuitEffect::Sensed { .. }));
                self.apply_effects(bank, &effects, at);
                if activated {
                    self.hammer_neighbors(bank, row, 1);
                }
            }
            DramCommand::Pre { bank } => {
                self.check_bank(bank).expect("bank in range");
                let effects = self.with_bank(bank, |b, ctx| b.pre(ctx, at));
                self.apply_effects(bank, &effects, at);
            }
            DramCommand::PreAll => {
                for b in 0..self.banks.len() {
                    let bank = BankId(b as u16);
                    let effects = self.with_bank(bank, |b, ctx| b.pre(ctx, at));
                    self.apply_effects(bank, &effects, at);
                }
            }
            DramCommand::Ref => {
                // The chip-internal refresh engine is disabled in all of §4's
                // experiments; the model treats REF as a rank-busy no-op here
                // (the cycle simulator accounts tRFC at the controller).
            }
            DramCommand::Rd { .. }
            | DramCommand::RdA { .. }
            | DramCommand::Wr { .. }
            | DramCommand::WrA { .. }
            | DramCommand::Nop => {
                // Column traffic moves data the host helpers already model.
            }
        }
    }

    fn apply_effects(&mut self, bank: BankId, effects: &[CircuitEffect], at: f64) {
        for eff in effects {
            match *eff {
                CircuitEffect::Sensed { row, .. } => self.on_sense(bank, row, at),
                CircuitEffect::Corrupt { row } => self.corrupt_row(bank, row, at),
                CircuitEffect::Restored {
                    row,
                    frac,
                    at: close_t,
                } => self.on_restore(bank, row, frac, close_t),
                CircuitEffect::ActIgnored { .. } => self.stats.acts_ignored += 1,
                CircuitEffect::PreIgnored => self.stats.pres_ignored += 1,
            }
        }
    }

    fn hammer_neighbors(&mut self, bank: BankId, row: RowId, count: u32) {
        let phys = self.spec.mapping.to_physical(row);
        for p in
            crate::mapping::RowMapping::physical_neighbors(phys, self.spec.geometry.rows_per_bank)
        {
            let victim = self.spec.mapping.to_logical(PhysRowId(p.0));
            let state = self.rows.entry(Self::key(bank, victim)).or_default();
            state.hammer += f64::from(count);
        }
    }

    fn on_sense(&mut self, bank: BankId, row: RowId, at: f64) {
        let seed = self.spec.seed;
        let rh = self.spec.rowhammer;
        let ret = self.spec.retention;
        let temp = self.temp_c;
        let row_bytes = self.spec.geometry.row_bytes;
        let state = self.rows.entry(Self::key(bank, row)).or_default();
        state.senses += 1;
        let senses = state.senses;
        let hammer = state.hammer;
        let elapsed = at - state.last_restore;
        let retention_hit = state.data.is_some() && ret.expired(seed, bank, row, temp, elapsed);
        let rh_hit =
            state.data.is_some() && hammer >= rh.nrh_instance(seed, bank, row, senses, temp);
        if retention_hit || rh_hit {
            let cells = rh.weak_cells(seed, bank, row, row_bytes);
            let polarity = crate::rng::splitmix64(seed ^ u64::from(row.0)) & 1 == 1;
            let state = self
                .rows
                .get_mut(&Self::key(bank, row))
                .expect("row exists");
            if let Some(data) = state.data.as_deref_mut() {
                flip_cells(data, &cells, polarity);
            }
            if rh_hit {
                self.stats.rowhammer_flips += 1;
            }
            if retention_hit {
                self.stats.retention_flips += 1;
            }
        }
    }

    fn on_restore(&mut self, bank: BankId, row: RowId, frac: f64, at: f64) {
        let margin = self.spec.analog.restore_margin;
        if frac < margin {
            self.corrupt_row(bank, row, at);
            return;
        }
        let seed = self.spec.seed;
        let eff = self.spec.rowhammer.restore_eff(seed, bank, row);
        if frac >= FULL_RESTORE_FRAC {
            let state = self.rows.entry(Self::key(bank, row)).or_default();
            state.hammer *= 1.0 - eff;
            state.last_restore = at;
            self.stats.full_restores += 1;
        } else {
            // Partial restoration: some weak cells lose enough margin to flip
            // and the disturbance scrub is proportionally weaker.
            let cells =
                self.spec
                    .rowhammer
                    .weak_cells(seed, bank, row, self.spec.geometry.row_bytes);
            let k = ((1.0 - frac) * cells.len() as f64).ceil() as usize;
            let polarity = crate::rng::splitmix64(seed ^ u64::from(row.0)) & 1 == 1;
            let state = self.rows.entry(Self::key(bank, row)).or_default();
            state.hammer *= 1.0 - eff * frac;
            if let Some(data) = state.data.as_deref_mut() {
                flip_cells(data, &cells[..k.min(cells.len())], polarity);
            }
            self.stats.partial_restores += 1;
        }
    }

    fn corrupt_row(&mut self, bank: BankId, row: RowId, at: f64) {
        self.stats.corruption_events += 1;
        let seed = self.spec.seed;
        let state = self.rows.entry(Self::key(bank, row)).or_default();
        state.corruptions += 1;
        state.hammer = 0.0;
        state.last_restore = at;
        if let Some(data) = state.data.as_deref_mut() {
            let mut s = Stream::from_words(&[
                seed,
                0xC0_5217,
                u64::from(bank.0),
                u64::from(row.0),
                state.corruptions,
            ]);
            // Garble roughly half the bits; force at least one flip.
            for b in data.iter_mut() {
                *b ^= (s.next_u64() & 0xFF) as u8;
            }
            data[0] |= 1; // ensure the row cannot silently match its pattern
            data[0] ^= 1;
            let idx = (s.next_below(data.len() as u64)) as usize;
            data[idx] ^= 1 << (s.next_u64() % 8);
        }
    }

    // ------------------------------------------------------------------
    // Host-level helpers (nominally-timed command sequences)
    // ------------------------------------------------------------------

    /// Writes a full row: `PRE`, `ACT`, burst writes, `PRE`, using nominal
    /// timing. Fully re-drives the cells (hammer state cleared).
    ///
    /// # Errors
    ///
    /// Returns an error for out-of-range addresses or wrong buffer length.
    pub fn write_row(&mut self, bank: BankId, row: RowId, data: &[u8]) {
        self.try_write_row(bank, row, data)
            .expect("write_row arguments valid")
    }

    /// Fallible variant of [`DramModule::write_row`].
    pub fn try_write_row(
        &mut self,
        bank: BankId,
        row: RowId,
        data: &[u8],
    ) -> Result<(), DramError> {
        self.check_bank(bank)?;
        self.check_row(row)?;
        if data.len() != self.spec.geometry.row_bytes {
            return Err(DramError::BadRowBuffer {
                expected: self.spec.geometry.row_bytes,
                got: data.len(),
            });
        }
        let t = self.timing;
        let t0 = self.now;
        self.execute(DramCommand::Pre { bank }, t0);
        self.execute(DramCommand::Act { bank, row }, t0 + t.t_rp);
        let write_done = t0 + t.t_rp + t.t_rcd + t.t_cwl;
        let state = self.rows.entry(Self::key(bank, row)).or_default();
        state.data = Some(data.to_vec().into_boxed_slice());
        state.hammer = 0.0;
        state.last_restore = write_done;
        self.execute(
            DramCommand::Pre { bank },
            t0 + t.t_rp + t.t_ras.max(t.t_rcd + t.t_cwl + t.t_wr),
        );
        self.now += t.t_rp;
        Ok(())
    }

    /// Reads a full row with a nominal `PRE`/`ACT`/read/`PRE` sequence.
    /// Unwritten rows read as zeros.
    pub fn read_row(&mut self, bank: BankId, row: RowId) -> Vec<u8> {
        self.try_read_row(bank, row)
            .expect("read_row arguments valid")
    }

    /// Fallible variant of [`DramModule::read_row`].
    pub fn try_read_row(&mut self, bank: BankId, row: RowId) -> Result<Vec<u8>, DramError> {
        self.check_bank(bank)?;
        self.check_row(row)?;
        let t = self.timing;
        let t0 = self.now;
        self.execute(DramCommand::Pre { bank }, t0);
        self.execute(DramCommand::Act { bank, row }, t0 + t.t_rp);
        self.execute(DramCommand::Pre { bank }, t0 + t.t_rp + t.t_ras);
        self.now += t.t_rp;
        Ok(self
            .rows
            .get(&Self::key(bank, row))
            .and_then(|s| s.data.as_deref())
            .map(<[u8]>::to_vec)
            .unwrap_or_else(|| vec![0u8; self.spec.geometry.row_bytes]))
    }

    /// Performs one HiRA operation (§3, Fig. 2): `ACT RowA — t1 — PRE — t2 —
    /// ACT RowB`, waits `tRAS`, then closes both rows with a single `PRE`.
    pub fn hira(&mut self, bank: BankId, row_a: RowId, row_b: RowId, h: HiraTimings) {
        let t = self.timing;
        let t0 = self.now;
        self.execute(DramCommand::Act { bank, row: row_a }, t0);
        self.execute(DramCommand::Pre { bank }, t0 + h.t1);
        self.execute(DramCommand::Act { bank, row: row_b }, t0 + h.t1 + h.t2);
        self.execute(DramCommand::Pre { bank }, t0 + h.t1 + h.t2 + t.t_ras);
        self.now = t0 + h.t1 + h.t2 + t.t_ras + t.t_rp;
    }

    /// Fast-path double-sided hammering: `iters` iterations of
    /// `ACT a / PRE / ACT b / PRE` at nominal timing (Algorithm 2, steps 2
    /// and 4). Semantically identical to issuing the commands one by one —
    /// verified by `hammer_fast_path_matches_slow_path` — but O(1) in
    /// `iters`.
    pub fn hammer_pair(&mut self, bank: BankId, aggr_a: RowId, aggr_b: RowId, iters: u32) {
        if iters == 0 {
            return;
        }
        let t = self.timing;
        // Close any open rows first, as the slow path's first PRE would.
        self.execute(DramCommand::Pre { bank }, self.now);
        let start = self.now + t.t_rp;
        // First activation of each aggressor performs its sense checks with
        // the pre-loop counters (materializes any pending flips).
        self.execute(DramCommand::Act { bank, row: aggr_a }, start);
        self.execute(DramCommand::Pre { bank }, start + t.t_ras);
        self.execute(DramCommand::Act { bank, row: aggr_b }, start + t.t_rc);
        self.execute(DramCommand::Pre { bank }, start + t.t_rc + t.t_ras);
        self.now = start + 2.0 * t.t_rc;
        let remaining = iters - 1;
        if remaining > 0 {
            // Remaining iterations in bulk: each ACT disturbs the aggressor's
            // physical neighbours once; the aggressors themselves are fully
            // restored every cycle, which repeatedly scrubs their own counters
            // to (1-eff)^remaining ≈ 0 of an already-negligible value.
            self.hammer_neighbors(bank, aggr_a, remaining);
            self.hammer_neighbors(bank, aggr_b, remaining);
            let seed = self.spec.seed;
            for &r in &[aggr_a, aggr_b] {
                let eff = self.spec.rowhammer.restore_eff(seed, bank, r);
                let state = self.rows.entry(Self::key(bank, r)).or_default();
                state.senses += u64::from(remaining);
                state.hammer *= (1.0 - eff).powi(remaining.min(1000) as i32);
                state.last_restore = self.now;
            }
            self.now += f64::from(remaining) * 2.0 * t.t_rc;
        }
    }

    /// Advances the module clock without issuing commands (Algorithm 2's
    /// "without HiRA" arm waits exactly as long as the HiRA arm takes).
    pub fn wait(&mut self, ns: f64) {
        assert!(ns >= 0.0, "cannot wait a negative duration");
        self.now += ns;
    }

    /// Current accumulated hammer count of a row (test/diagnostic hook).
    pub fn hammer_count(&self, bank: BankId, row: RowId) -> f64 {
        self.rows
            .get(&Self::key(bank, row))
            .map_or(0.0, |s| s.hammer)
    }
}

fn flip_cells(data: &mut [u8], cells: &[(usize, u8)], polarity: bool) {
    for &(byte, bit) in cells {
        if byte < data.len() {
            if polarity {
                data[byte] &= !(1 << bit); // true cell: charge loss reads 0
            } else {
                data[byte] |= 1 << bit; // anti cell: charge loss reads 1
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn module() -> DramModule {
        DramModule::new(ModuleSpec::sk_hynix_4gb(0xFEED))
    }

    fn pattern(module: &DramModule, byte: u8) -> Vec<u8> {
        vec![byte; module.geometry().row_bytes]
    }

    #[test]
    fn write_then_read_roundtrips() {
        let mut m = module();
        let data = pattern(&m, 0x5A);
        m.write_row(BankId(0), RowId(123), &data);
        assert_eq!(m.read_row(BankId(0), RowId(123)), data);
    }

    #[test]
    fn unwritten_rows_read_as_zeros() {
        let mut m = module();
        let z = m.read_row(BankId(2), RowId(77));
        assert!(z.iter().all(|&b| b == 0));
    }

    #[test]
    fn out_of_range_addresses_error() {
        let mut m = module();
        let rows = m.geometry().rows_per_bank;
        assert!(matches!(
            m.try_read_row(BankId(99), RowId(0)),
            Err(DramError::BankOutOfRange { .. })
        ));
        assert!(matches!(
            m.try_read_row(BankId(0), RowId(rows)),
            Err(DramError::RowOutOfRange { .. })
        ));
        assert!(matches!(
            m.try_write_row(BankId(0), RowId(0), &[0u8; 3]),
            Err(DramError::BadRowBuffer { .. })
        ));
    }

    #[test]
    fn hira_on_isolated_pair_preserves_both_rows() {
        let mut m = module();
        let bank = BankId(0);
        let row_a = RowId(10);
        let row_b = m
            .isolation()
            .find_partner(row_a)
            .expect("row has a partner");
        let pa = pattern(&m, 0xAA);
        let pb = pattern(&m, 0x55);
        m.write_row(bank, row_a, &pa);
        m.write_row(bank, row_b, &pb);
        m.hira(bank, row_a, row_b, HiraTimings::nominal());
        assert_eq!(m.read_row(bank, row_a), pa);
        assert_eq!(m.read_row(bank, row_b), pb);
    }

    #[test]
    fn hira_on_adjacent_subarrays_corrupts() {
        let mut m = module();
        let bank = BankId(0);
        let row_a = RowId(10); // subarray 0
        let row_b = RowId(512 + 10); // subarray 1 (shares sense amps)
        let pa = pattern(&m, 0xFF);
        let pb = pattern(&m, 0x00);
        m.write_row(bank, row_a, &pa);
        m.write_row(bank, row_b, &pb);
        m.hira(bank, row_a, row_b, HiraTimings::nominal());
        let flips = m.read_row(bank, row_a) != pa || m.read_row(bank, row_b) != pb;
        assert!(flips, "expected corruption for a shared-sense-amp pair");
        assert!(m.stats().corruption_events > 0);
    }

    #[test]
    fn hammer_fast_path_matches_slow_path() {
        let victim = RowId(1000);
        let mut slow = module();
        let mut fast = module();
        let aggr = slow
            .spec()
            .mapping
            .logical_aggressors(victim, slow.geometry().rows_per_bank);
        let (a, b) = (aggr[0], aggr[1]);
        let iters = 40u32;
        // Slow path: explicit command stream.
        let t = *slow.timing();
        slow.execute(DramCommand::Pre { bank: BankId(0) }, slow.now());
        let mut at = slow.now() + t.t_rp;
        for _ in 0..iters {
            slow.execute(
                DramCommand::Act {
                    bank: BankId(0),
                    row: a,
                },
                at,
            );
            slow.execute(DramCommand::Pre { bank: BankId(0) }, at + t.t_ras);
            slow.execute(
                DramCommand::Act {
                    bank: BankId(0),
                    row: b,
                },
                at + t.t_rc,
            );
            slow.execute(DramCommand::Pre { bank: BankId(0) }, at + t.t_rc + t.t_ras);
            at += 2.0 * t.t_rc;
        }
        // Fast path.
        fast.hammer_pair(BankId(0), a, b, iters);
        let dv = slow.hammer_count(BankId(0), victim) - fast.hammer_count(BankId(0), victim);
        assert!(dv.abs() < 1e-6, "victim hammer mismatch: {dv}");
        assert_eq!(
            slow.hammer_count(BankId(0), victim),
            f64::from(2 * iters),
            "victim receives two hammers per iteration"
        );
    }

    #[test]
    fn sustained_hammering_flips_victim_bits() {
        let mut m = module();
        let bank = BankId(0);
        let victim = RowId(2000);
        let aggr = m
            .spec()
            .mapping
            .logical_aggressors(victim, m.geometry().rows_per_bank);
        let data = pattern(&m, 0xAA);
        m.write_row(bank, victim, &data);
        // Hammer far past any plausible threshold.
        m.hammer_pair(bank, aggr[0], aggr[1], 150_000);
        let read = m.read_row(bank, victim);
        assert_ne!(read, data, "expected RowHammer flips");
        assert!(m.stats().rowhammer_flips > 0);
    }

    #[test]
    fn refreshed_victim_resists_the_same_hammer_count() {
        let mut m = module();
        let bank = BankId(0);
        let victim = RowId(3000);
        let aggr = m
            .spec()
            .mapping
            .logical_aggressors(victim, m.geometry().rows_per_bank);
        let nrh = m.spec().rowhammer.nrh_base(m.spec().seed, bank, victim) as u32;
        let data = pattern(&m, 0x55);

        // Slightly above threshold without refresh: flips.
        m.write_row(bank, victim, &data);
        m.hammer_pair(bank, aggr[0], aggr[1], nrh * 11 / 20);
        assert_ne!(m.read_row(bank, victim), data);

        // Same total with a mid-point refresh (activate + close): no flips.
        m.write_row(bank, victim, &data);
        m.hammer_pair(bank, aggr[0], aggr[1], nrh * 11 / 40);
        let t0 = m.now();
        m.execute(DramCommand::Act { bank, row: victim }, t0);
        m.execute(DramCommand::Pre { bank }, t0 + m.timing().t_ras);
        m.wait(m.timing().t_rp);
        m.hammer_pair(bank, aggr[0], aggr[1], nrh * 11 / 40);
        assert_eq!(m.read_row(bank, victim), data);
    }

    #[test]
    fn micron_module_ignores_hira_commands() {
        let mut m = DramModule::new(ModuleSpec::micron_4gb(7));
        let bank = BankId(0);
        let row_a = RowId(10);
        let row_b = m.isolation().find_partner(row_a).unwrap();
        let pa = pattern(&m, 0xAA);
        let pb = pattern(&m, 0x55);
        m.write_row(bank, row_a, &pa);
        m.write_row(bank, row_b, &pb);
        m.hira(bank, row_a, row_b, HiraTimings::nominal());
        // No data corrupted (looks like success)...
        assert_eq!(m.read_row(bank, row_a), pa);
        assert_eq!(m.read_row(bank, row_b), pb);
        // ...but the commands were silently dropped (§4.3's ambiguity).
        let s = m.stats();
        assert!(s.pres_ignored > 0 && s.acts_ignored > 0, "stats: {s:?}");
    }

    #[test]
    fn commands_must_be_time_ordered() {
        let mut m = module();
        m.execute(
            DramCommand::Act {
                bank: BankId(0),
                row: RowId(0),
            },
            100.0,
        );
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            m.execute(DramCommand::Pre { bank: BankId(0) }, 50.0);
        }));
        assert!(r.is_err());
    }

    #[test]
    fn retention_failure_after_long_neglect() {
        let mut m = module();
        let bank = BankId(0);
        // Find a weak-retention row among the first few thousand.
        let ret = m.spec().retention;
        let seed = m.spec().seed;
        let weak = (0..4000u32)
            .map(RowId)
            .min_by(|&x, &y| {
                ret.retention_ms(seed, bank, x, 45.0)
                    .total_cmp(&ret.retention_ms(seed, bank, y, 45.0))
            })
            .unwrap();
        // Charge loss reads 0 in true cells and 1 in anti cells, so test both
        // all-ones and all-zeros: one of them must expose the decay.
        let ms = ret.retention_ms(seed, bank, weak, 45.0);
        let mut decayed = false;
        for byte in [0xFFu8, 0x00] {
            let data = pattern(&m, byte);
            m.write_row(bank, weak, &data);
            m.wait(ms * 1.0e6 * 2.0);
            decayed |= m.read_row(bank, weak) != data;
        }
        assert!(decayed, "row should have decayed");
        assert!(m.stats().retention_flips > 0);
    }
}
