//! DDR4 command vocabulary shared by the chip model and the cycle simulator.

use crate::addr::{BankId, ColId, RowId};
use std::fmt;

/// A DDR4 command as seen on the command/address bus.
///
/// The chip model accepts any sequence of these with arbitrary timestamps —
/// like real silicon, it performs no timing validation. Timing correctness is
/// the issuer's (memory controller's / SoftMC program's) responsibility, and
/// *violating* it deliberately is exactly how HiRA works.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DramCommand {
    /// Activate (open) `row` in `bank`.
    Act { bank: BankId, row: RowId },
    /// Precharge `bank` (close any open row(s); no row address is supplied,
    /// which is why one `PRE` suffices to close both HiRA rows, §3 fn. 1).
    Pre { bank: BankId },
    /// Precharge all banks in the rank.
    PreAll,
    /// Read a burst from the open row.
    Rd { bank: BankId, col: ColId },
    /// Read with auto-precharge.
    RdA { bank: BankId, col: ColId },
    /// Write a burst to the open row.
    Wr { bank: BankId, col: ColId },
    /// Write with auto-precharge.
    WrA { bank: BankId, col: ColId },
    /// All-bank refresh (the rank is busy for `tRFC`).
    Ref,
    /// No operation / DES. Present so programs can pad slots explicitly.
    Nop,
}

impl DramCommand {
    /// Returns the bank the command targets, if it is bank-scoped.
    pub fn bank(&self) -> Option<BankId> {
        match *self {
            DramCommand::Act { bank, .. }
            | DramCommand::Pre { bank }
            | DramCommand::Rd { bank, .. }
            | DramCommand::RdA { bank, .. }
            | DramCommand::Wr { bank, .. }
            | DramCommand::WrA { bank, .. } => Some(bank),
            DramCommand::PreAll | DramCommand::Ref | DramCommand::Nop => None,
        }
    }
}

impl fmt::Display for DramCommand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            DramCommand::Act { bank, row } => write!(f, "ACT b{bank} r{row}"),
            DramCommand::Pre { bank } => write!(f, "PRE b{bank}"),
            DramCommand::PreAll => write!(f, "PREA"),
            DramCommand::Rd { bank, col } => write!(f, "RD b{bank} c{col}"),
            DramCommand::RdA { bank, col } => write!(f, "RDA b{bank} c{col}"),
            DramCommand::Wr { bank, col } => write!(f, "WR b{bank} c{col}"),
            DramCommand::WrA { bank, col } => write!(f, "WRA b{bank} c{col}"),
            DramCommand::Ref => write!(f, "REF"),
            DramCommand::Nop => write!(f, "NOP"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bank_extraction_matches_scope() {
        let act = DramCommand::Act {
            bank: BankId(2),
            row: RowId(5),
        };
        assert_eq!(act.bank(), Some(BankId(2)));
        assert_eq!(DramCommand::Ref.bank(), None);
        assert_eq!(DramCommand::PreAll.bank(), None);
    }

    #[test]
    fn display_is_compact() {
        let act = DramCommand::Act {
            bank: BankId(1),
            row: RowId(7),
        };
        assert_eq!(format!("{act}"), "ACT b1 r7");
    }
}
