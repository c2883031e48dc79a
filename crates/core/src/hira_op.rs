//! The Hidden Row Activation operation (§3).
//!
//! A HiRA operation is the timed command triple `ACT RowA — t1 — PRE — t2 —
//! ACT RowB`. Its first activation refreshes `RowA`; its second activation
//! refreshes `RowB` *and* opens it for column access. This module captures
//! the operation's timing arithmetic and expands it into the scheduled
//! command list a memory controller issues.

use hira_dram::addr::{BankId, RowId};
use hira_dram::command::DramCommand;
use hira_dram::timing::{HiraTimings, TimingParams};

/// A fully-specified HiRA operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HiraOperation {
    /// The custom `t1`/`t2` timings.
    pub timings: HiraTimings,
}

/// One command of an expanded operation, offset in ns from the first `ACT`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduledCommand {
    /// Offset from the start of the operation, ns.
    pub offset_ns: f64,
    /// The DDR4 command to issue.
    pub command: DramCommand,
}

impl HiraOperation {
    /// The best experimentally-validated configuration (`t1 = t2 = 3 ns`).
    pub fn nominal() -> Self {
        HiraOperation {
            timings: HiraTimings::nominal(),
        }
    }

    /// Builds an operation with explicit timings.
    pub fn with_timings(timings: HiraTimings) -> Self {
        HiraOperation { timings }
    }

    /// Added lead latency before the second row's activation starts
    /// (`t1 + t2` — as small as 6 ns, §3).
    pub fn lead_ns(&self) -> f64 {
        self.timings.lead_ns()
    }

    /// Latency of refreshing two rows with this operation:
    /// `t1 + t2 + tRAS` (38 ns nominally vs 78.25 ns conventional, §4.2).
    pub fn two_row_refresh_ns(&self, t: &TimingParams) -> f64 {
        self.timings.two_row_refresh_ns(t)
    }

    /// Latency reduction over two conventional back-to-back refreshes
    /// (51.4 % at nominal timings).
    pub fn refresh_latency_reduction(&self, t: &TimingParams) -> f64 {
        1.0 - self.two_row_refresh_ns(t) / t.two_row_refresh_ns()
    }

    /// Expands a **refresh-access** parallelization: `refresh_row` is
    /// refreshed by the first `ACT` while `access_row` is opened by the
    /// second. Column commands may follow `tRCD` after the second `ACT`.
    pub fn refresh_access(
        &self,
        bank: BankId,
        refresh_row: RowId,
        access_row: RowId,
    ) -> [ScheduledCommand; 3] {
        [
            ScheduledCommand {
                offset_ns: 0.0,
                command: DramCommand::Act {
                    bank,
                    row: refresh_row,
                },
            },
            ScheduledCommand {
                offset_ns: self.timings.t1,
                command: DramCommand::Pre { bank },
            },
            ScheduledCommand {
                offset_ns: self.timings.t1 + self.timings.t2,
                command: DramCommand::Act {
                    bank,
                    row: access_row,
                },
            },
        ]
    }

    /// Expands a **refresh-refresh** parallelization: both rows are refreshed
    /// and the bank is closed again with the trailing `PRE` once `tRAS` after
    /// the second `ACT` has elapsed (footnote 1: one `PRE` closes both).
    pub fn refresh_refresh(
        &self,
        bank: BankId,
        row_c: RowId,
        row_d: RowId,
        t: &TimingParams,
    ) -> [ScheduledCommand; 4] {
        let second_act = self.timings.t1 + self.timings.t2;
        [
            ScheduledCommand {
                offset_ns: 0.0,
                command: DramCommand::Act { bank, row: row_c },
            },
            ScheduledCommand {
                offset_ns: self.timings.t1,
                command: DramCommand::Pre { bank },
            },
            ScheduledCommand {
                offset_ns: second_act,
                command: DramCommand::Act { bank, row: row_d },
            },
            ScheduledCommand {
                offset_ns: second_act + t.t_ras,
                command: DramCommand::Pre { bank },
            },
        ]
    }
}

impl Default for HiraOperation {
    fn default() -> Self {
        Self::nominal()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headline_latency_numbers() {
        let t = TimingParams::ddr4_2400();
        let op = HiraOperation::nominal();
        assert!((op.two_row_refresh_ns(&t) - 38.0).abs() < 1e-9);
        assert!((op.refresh_latency_reduction(&t) - 0.514) < 0.002);
        assert!((op.lead_ns() - 6.0).abs() < 1e-9);
    }

    #[test]
    fn refresh_access_expansion_is_ordered() {
        let op = HiraOperation::nominal();
        let cmds = op.refresh_access(BankId(2), RowId(10), RowId(900));
        assert_eq!(cmds.len(), 3);
        assert!(cmds.windows(2).all(|w| w[0].offset_ns < w[1].offset_ns));
        assert!(matches!(
            cmds[0].command,
            DramCommand::Act { row: RowId(10), .. }
        ));
        assert!(matches!(cmds[1].command, DramCommand::Pre { .. }));
        assert!(matches!(
            cmds[2].command,
            DramCommand::Act {
                row: RowId(900),
                ..
            }
        ));
    }

    #[test]
    fn refresh_refresh_expansion_closes_the_bank() {
        let t = TimingParams::ddr4_2400();
        let op = HiraOperation::nominal();
        let cmds = op.refresh_refresh(BankId(0), RowId(1), RowId(800), &t);
        assert_eq!(cmds.len(), 4);
        assert!(matches!(cmds[3].command, DramCommand::Pre { .. }));
        assert!((cmds[3].offset_ns - 38.0).abs() < 1e-9);
    }
}
