//! The execution plans every workload runs through, and their settings.

use crate::workload::Kernel;
use herbgrind::{AnalysisConfig, Report};

/// One way of running the analysis over a kernel's inputs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Plan {
    /// `analyze`: BigFloat 256-bit shadows, one thread.
    Serial,
    /// `analyze_parallel` on one thread per hardware thread.
    Parallel,
    /// `analyze_batched`, lane width 8, one thread.
    Batched,
    /// `analyze_tiered`, one thread, no declared input region.
    Tiered,
    /// `analyze_tiered` with the kernel's sampling region armed (tier 0).
    Tier0,
    /// `analyze_isolated`, one thread.
    Isolated,
}

pub const PLANS: [Plan; 6] = [
    Plan::Serial,
    Plan::Parallel,
    Plan::Batched,
    Plan::Tiered,
    Plan::Tier0,
    Plan::Isolated,
];

/// Lane width of the batched plan.
pub const BATCH_WIDTH: usize = 8;

impl Plan {
    pub fn name(self) -> &'static str {
        match self {
            Plan::Serial => "serial",
            Plan::Parallel => "parallel",
            Plan::Batched => "batched",
            Plan::Tiered => "tiered",
            Plan::Tier0 => "tier0",
            Plan::Isolated => "isolated",
        }
    }

    /// The span name of one sweep under this plan.
    pub fn span(self) -> &'static str {
        match self {
            Plan::Serial => "plan.serial",
            Plan::Parallel => "plan.parallel",
            Plan::Batched => "plan.batched",
            Plan::Tiered => "plan.tiered",
            Plan::Tier0 => "plan.tier0",
            Plan::Isolated => "plan.isolated",
        }
    }

    /// The analysis configuration of this plan for one kernel. Everything
    /// but the thread count, lane width and tier-0 region is the default.
    pub fn config(self, kernel: &Kernel, threads: usize) -> AnalysisConfig {
        let base = AnalysisConfig::default()
            .with_threads(1)
            .with_batch_width(BATCH_WIDTH);
        match self {
            Plan::Parallel => base.with_threads(threads),
            Plan::Tier0 => base.with_input_ranges(kernel.region.clone()),
            _ => base,
        }
    }

    /// Sweeps `inputs` of `kernel` under this plan.
    pub fn run(
        self,
        kernel: &Kernel,
        inputs: &[Vec<f64>],
        threads: usize,
    ) -> Result<Report, String> {
        let config = self.config(kernel, threads);
        let program = &kernel.program;
        let report = match self {
            Plan::Serial => herbgrind::analyze(program, inputs, &config),
            Plan::Parallel => herbgrind::analyze_parallel(program, inputs, &config),
            Plan::Batched => herbgrind::analyze_batched(program, inputs, &config),
            Plan::Tiered | Plan::Tier0 => herbgrind::analyze_tiered(program, inputs, &config),
            Plan::Isolated => Ok(herbgrind::analyze_isolated(program, inputs, &config)),
        };
        report.map_err(|e| format!("{} under {}: {e}", kernel.name(), self.name()))
    }
}
