//! The SoftMC host: executes programs against a DRAM module model.
//!
//! The real infrastructure issues a DRAM command every 1.5 ns (SoftMC's
//! double-data-rate command slot on the Alveo U200, §4.1 footnote 5), so
//! every inter-command `wait` is quantized *up* to the 1.5 ns grid — which is
//! exactly why the paper sweeps `t1`/`t2` over multiples of 1.5 ns.

use crate::patterns::DataPattern;
use crate::program::{Instruction, Program};
use crate::temperature::TemperatureController;
use hira_dram::addr::{BankId, RowId};
use hira_dram::command::DramCommand;
use hira_dram::{DramModule, ModuleSpec};

/// Command-grid period of the FPGA in ns.
pub const COMMAND_GRID_NS: f64 = 1.5;

/// Data read back by `ReadRow` instructions, in program order.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    reads: Vec<(BankId, RowId, Vec<u8>)>,
}

impl RunResult {
    /// All row read-backs in program order.
    pub fn reads(&self) -> &[(BankId, RowId, Vec<u8>)] {
        &self.reads
    }

    /// The recorded data of the first read of `row`, if any.
    pub fn data_of(&self, bank: BankId, row: RowId) -> Option<&[u8]> {
        self.reads
            .iter()
            .find(|(b, r, _)| *b == bank && *r == row)
            .map(|(_, _, d)| d.as_slice())
    }

    /// Total bit flips of the first read of `row` against `pattern`.
    pub fn flips_of(&self, bank: BankId, row: RowId, pattern: DataPattern) -> Option<u64> {
        self.data_of(bank, row).map(|d| pattern.count_flips(d))
    }
}

/// SoftMC host bound to one module model.
#[derive(Debug)]
pub struct SoftMc {
    module: DramModule,
    temperature: TemperatureController,
}

impl SoftMc {
    /// Builds the infrastructure around a fresh module. DRAM self-refresh and
    /// on-die mitigations are disabled, as in all of §4's experiments.
    pub fn new(spec: ModuleSpec) -> Self {
        let mut host = SoftMc {
            module: DramModule::new(spec),
            temperature: TemperatureController::new(45.0),
        };
        host.module.set_temperature(host.temperature.current_c());
        host
    }

    /// Access to the module under test.
    pub fn module(&self) -> &DramModule {
        &self.module
    }

    /// Sets the heater target; the module sees the settled temperature.
    pub fn set_temperature(&mut self, target_c: f64) {
        self.temperature.set_target(target_c);
        self.module.set_temperature(self.temperature.current_c());
    }

    /// The temperature controller (diagnostics).
    pub fn temperature(&self) -> &TemperatureController {
        &self.temperature
    }

    /// Quantizes a wait to the FPGA command grid (rounded up).
    pub fn quantize(wait_ns: f64) -> f64 {
        (wait_ns / COMMAND_GRID_NS).ceil().max(1.0) * COMMAND_GRID_NS
    }

    /// Runs a program to completion and returns the read-back data.
    pub fn run(&mut self, program: &Program) -> RunResult {
        let mut result = RunResult::default();
        let row_bytes = self.module.geometry().row_bytes;
        for inst in program.instructions() {
            match *inst {
                Instruction::Act { bank, row, wait_ns } => {
                    let at = self.module.now();
                    self.module.execute(DramCommand::Act { bank, row }, at);
                    self.module.wait(Self::quantize(wait_ns));
                }
                Instruction::Pre { bank, wait_ns } => {
                    let at = self.module.now();
                    self.module.execute(DramCommand::Pre { bank }, at);
                    self.module.wait(Self::quantize(wait_ns));
                }
                Instruction::WriteRow { bank, row, pattern } => {
                    self.module.write_row(bank, row, &pattern.fill(row_bytes));
                }
                Instruction::ReadRow { bank, row } => {
                    let data = self.module.read_row(bank, row);
                    result.reads.push((bank, row, data));
                }
                Instruction::Wait { ns } => {
                    self.module.wait(ns.max(0.0));
                }
                Instruction::HammerPair {
                    bank,
                    aggr_a,
                    aggr_b,
                    count,
                } => {
                    self.module.hammer_pair(bank, aggr_a, aggr_b, count);
                }
            }
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host() -> SoftMc {
        SoftMc::new(ModuleSpec::sk_hynix_4gb(0xBEEF))
    }

    #[test]
    fn quantization_rounds_up_to_grid() {
        assert_eq!(SoftMc::quantize(3.0), 3.0);
        assert_eq!(SoftMc::quantize(2.9), 3.0);
        assert_eq!(SoftMc::quantize(0.1), 1.5);
        assert_eq!(SoftMc::quantize(4.6), 6.0);
    }

    #[test]
    fn write_then_read_program_roundtrips() {
        let mut mc = host();
        let mut p = Program::new();
        p.write_row(BankId(0), RowId(9), DataPattern::Checkerboard)
            .read_row(BankId(0), RowId(9));
        let r = mc.run(&p);
        assert_eq!(
            r.flips_of(BankId(0), RowId(9), DataPattern::Checkerboard),
            Some(0)
        );
        assert_eq!(
            r.flips_of(BankId(0), RowId(9), DataPattern::InverseCheckerboard),
            Some(8 * 8192)
        );
    }

    #[test]
    fn nominal_act_pre_program_preserves_data() {
        let mut mc = host();
        let t = *mc.module().timing();
        let mut p = Program::new();
        p.write_row(BankId(0), RowId(3), DataPattern::Ones)
            .act_wait(BankId(0), RowId(3), t.t_ras)
            .pre_wait(BankId(0), t.t_rp)
            .read_row(BankId(0), RowId(3));
        let r = mc.run(&p);
        assert_eq!(r.flips_of(BankId(0), RowId(3), DataPattern::Ones), Some(0));
    }

    #[test]
    fn hira_program_with_shared_subarray_flips_bits() {
        let mut mc = host();
        let t = *mc.module().timing();
        let (a, b) = (RowId(10), RowId(512 + 10)); // adjacent subarrays
        let mut p = Program::new();
        p.write_row(BankId(0), a, DataPattern::Ones)
            .write_row(BankId(0), b, DataPattern::Zeros)
            .hira(BankId(0), a, b, 3.0, 3.0, t.t_ras, t.t_rp)
            .read_row(BankId(0), a)
            .read_row(BankId(0), b);
        let r = mc.run(&p);
        let flips = r.flips_of(BankId(0), a, DataPattern::Ones).unwrap()
            + r.flips_of(BankId(0), b, DataPattern::Zeros).unwrap();
        assert!(flips > 0, "shared-subarray HiRA should corrupt data");
    }

    #[test]
    fn temperature_reaches_module() {
        let mut mc = host();
        mc.set_temperature(85.0);
        assert!((mc.module().temperature() - 85.0).abs() < 0.2);
    }

    #[test]
    fn hammer_loop_instruction_advances_time() {
        let mut mc = host();
        let before = mc.module().now();
        let mut p = Program::new();
        p.hammer_pair(BankId(0), RowId(99), RowId(101), 1000);
        mc.run(&p);
        let elapsed = mc.module().now() - before;
        // 1000 iterations × 2 × tRC ≈ 92.5 µs.
        assert!(elapsed > 90_000.0, "elapsed {elapsed}");
    }
}
