//! Correctness checks run inside every round. Each compares the program
//! against a computation made apart from it (the FPCore AST evaluator) or
//! against a property the method guarantees; none compares against a stored
//! copy of earlier reports.

use crate::workload::Kernel;
use fpvm::Machine;
use herbgrind::{Report, SpotReport};
use shadowreal::{BigFloat, MAX_ERROR_BITS};
use staticerr::StaticVerdict;

/// Loop kernels whose sharded, batched and tiered reports describe the
/// loop-carried accumulator's root cause with different input
/// characteristics than the serial report: another `:pre` range, another
/// example input. Whether they differ depends on the sampled inputs, so on
/// seeded inputs these kernels are compared with the input characteristics
/// masked, and [`known_fault_inputs`] pins the unmasked comparison on fixed
/// inputs where it fails every time.
pub const MERGE_FAULT: [&str; 2] = [
    "compensation-free running sum",
    "naive variance accumulation",
];

/// Fixed inputs (independent of `--seed`) on which the merge fault
/// shows for every sharded plan.
pub fn known_fault_inputs(kernel: &Kernel) -> Result<Vec<Vec<f64>>, String> {
    herbie_lite::sample_inputs(&kernel.core, 48, 2024).map_err(|e| e.to_string())
}

/// What the AST evaluator says about one kernel's inputs, computed once per
/// run outside the timed sweeps.
pub struct Oracle {
    /// `eval_f64` of every input.
    pub client: Vec<f64>,
    /// Maximum over inputs of the output error measured against a BigFloat
    /// evaluation of the AST (64 bits where the double result is NaN).
    pub max_output_error: f64,
}

pub fn oracle(kernel: &Kernel) -> Result<Oracle, String> {
    let mut client = Vec::with_capacity(kernel.inputs.len());
    let mut max_output_error = 0.0f64;
    for input in &kernel.inputs {
        let value = fpcore::eval::eval_f64(&kernel.core, input).map_err(|e| e.to_string())?;
        let (_, _, bits) = fpcore::eval::reference_error::<BigFloat>(&kernel.core, input)
            .map_err(|e| e.to_string())?;
        let error = if value.is_nan() { MAX_ERROR_BITS } else { bits };
        max_output_error = max_output_error.max(error);
        client.push(value);
    }
    Ok(Oracle {
        client,
        max_output_error,
    })
}

/// `Machine::run` outputs equal the AST evaluation bit for bit (NaN
/// matches NaN).
pub fn native_outputs(kernel: &Kernel, oracle: &Oracle) -> Result<(), String> {
    let machine = Machine::new(&kernel.program);
    for (input, &expected) in kernel.inputs.iter().zip(&oracle.client) {
        let run = machine.run(input).map_err(|e| e.to_string())?;
        let same = match run.outputs.as_slice() {
            [got] => got.to_bits() == expected.to_bits() || (got.is_nan() && expected.is_nan()),
            _ => false,
        };
        if !same {
            return Err(format!(
                "machine output {:?} differs from the AST's {expected:?} on {input:?}",
                run.outputs
            ));
        }
    }
    Ok(())
}

/// The Output spot carries the AST oracle's maximum error, and is reported
/// exactly when that maximum exceeds the output threshold.
pub fn output_spot(report: &Report, oracle: &Oracle, threshold: f64) -> Result<(), String> {
    let outputs: Vec<&SpotReport> = report
        .spots
        .iter()
        .filter(|s| s.kind_label == "Output")
        .collect();
    let expected = oracle.max_output_error;
    match outputs.as_slice() {
        [] if expected <= threshold => Ok(()),
        [spot] if expected > threshold && spot.max_error_bits == expected => Ok(()),
        [] => Err(format!(
            "no Output spot, but the AST oracle measures {expected} bits"
        )),
        [spot] => Err(format!(
            "Output spot has {} bits, the AST oracle {expected}",
            spot.max_error_bits
        )),
        _ => Err(format!("{} Output spots for one output", outputs.len())),
    }
}

/// A report as text, for bit-exact comparison between plans.
pub fn fingerprint(report: &Report) -> String {
    format!("{report:?}")
}

/// The report with every root cause's input characteristics (observed
/// ranges and example input) cleared.
pub fn without_input_characteristics(report: &Report) -> String {
    let mut masked = report.clone();
    for spot in &mut masked.spots {
        for cause in &mut spot.root_causes {
            cause.precondition = None;
            cause.fpcore.clear();
            cause.example_input.clear();
        }
    }
    fingerprint(&masked)
}

/// No statement the dynamic analysis flags is `CertifiedStable` in the
/// static pass.
pub fn static_soundness(kernel: &Kernel, report: &Report) -> Result<(), String> {
    let certified = |pc: usize| kernel.analysis.verdict(pc) == StaticVerdict::CertifiedStable;
    for spot in &report.spots {
        if spot.erroneous > 0 && certified(spot.pc) {
            return Err(format!(
                "flagged spot at pc {} is certified stable",
                spot.pc
            ));
        }
        for cause in &spot.root_causes {
            if cause.erroneous_count > 0 && certified(cause.pc) {
                return Err(format!(
                    "flagged root cause at pc {} is certified stable",
                    cause.pc
                ));
            }
        }
    }
    Ok(())
}

/// The isolated plan quarantines nothing on clean inputs.
pub fn nothing_quarantined(report: &Report) -> Result<(), String> {
    match report.quarantined.as_slice() {
        [] => Ok(()),
        q => Err(format!("{} inputs quarantined, first: {}", q.len(), q[0])),
    }
}
