//! The three workloads, cut from the embedded benchmark suite by its section
//! headers, and the set-up that prepares them: parse, compile, sample
//! inputs, and run the static pass.

use crate::spans::Spans;
use fpcore::FPCore;
use fpvm::{Addr, Machine, Program, Tracer};
use shadowreal::RealOp;
use staticerr::{PruneMask, StaticAnalysis, StaticParams};
use std::time::Instant;

/// A named slice of the suite.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Cancellation,
    Accurate,
    Loops,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "cancellation" => Some(Workload::Cancellation),
            "accurate" => Some(Workload::Accurate),
            "loops" => Some(Workload::Loops),
            _ => None,
        }
    }

    /// Words that pick this workload's section headers in the suite source.
    fn sections(self) -> &'static [&'static str] {
        match self {
            Workload::Cancellation => &["Hamming", "Quadratic", "Geometry"],
            Workload::Accurate => &["Rosa", "Polynomial", "Well-conditioned"],
            Workload::Loops => &["Loop kernels"],
        }
    }

    /// How many kernels the sections hold; set-up fails if the suite no
    /// longer splits this way.
    fn expected_kernels(self) -> usize {
        match self {
            Workload::Cancellation => 53,
            Workload::Accurate => 69,
            Workload::Loops => 6,
        }
    }

    /// Sampled inputs per kernel: sized so that one round of every plan
    /// takes about a second and every plan sees the same inputs.
    pub fn samples(self) -> usize {
        match self {
            Workload::Cancellation => 192,
            Workload::Accurate => 256,
            Workload::Loops => 64,
        }
    }

    /// The FPCore text of this workload's sections of the suite.
    pub fn source(self) -> String {
        let mut out = String::new();
        let mut keep = false;
        for line in fpbench::suite::SUITE_SOURCE.lines() {
            if let Some(header) = line.strip_prefix(";; ----") {
                keep = self.sections().iter().any(|word| header.contains(word));
            }
            if keep {
                out.push_str(line);
                out.push('\n');
            }
        }
        out
    }
}

/// One kernel, ready to sweep.
pub struct Kernel {
    pub core: FPCore,
    pub program: Program,
    pub inputs: Vec<Vec<f64>>,
    /// The declared input region (one interval per argument), which arms
    /// tier 0.
    pub region: Vec<(f64, f64)>,
    pub analysis: StaticAnalysis,
    pub mask: PruneMask,
    /// Client compute statements executed over all inputs.
    pub ops: u64,
}

impl Kernel {
    pub fn name(&self) -> &str {
        self.core.display_name()
    }
}

/// A prepared workload and the time each set-up layer took.
pub struct Prepared {
    pub kernels: Vec<Kernel>,
    pub parse_s: f64,
    pub compile_s: f64,
    pub sample_s: f64,
    pub static_s: f64,
}

impl Prepared {
    pub fn ops(&self) -> u64 {
        self.kernels.iter().map(|k| k.ops).sum()
    }
}

fn timed<T>(spans: &mut Spans, name: &'static str, acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = spans.time(name, f);
    *acc += start.elapsed().as_secs_f64();
    out
}

/// Parses, compiles, samples and statically analyzes one workload.
pub fn prepare(
    workload: Workload,
    samples: usize,
    seed: u64,
    spans: &mut Spans,
) -> Result<Prepared, String> {
    let source = workload.source();
    let open = spans.enter("setup");
    let (mut parse_s, mut compile_s, mut sample_s, mut static_s) = (0.0, 0.0, 0.0, 0.0);
    let cores = timed(spans, "fpcore.parse", &mut parse_s, || {
        fpcore::parse_cores(&source)
    })
    .map_err(|e| format!("suite does not parse: {e}"))?;
    if cores.len() != workload.expected_kernels() {
        return Err(format!(
            "{workload:?} holds {} kernels, expected {}",
            cores.len(),
            workload.expected_kernels()
        ));
    }
    let params = StaticParams::default();
    let mut kernels = Vec::with_capacity(cores.len());
    for core in cores {
        let name = core.display_name().to_string();
        let program = timed(spans, "fpvm.compile", &mut compile_s, || {
            fpvm::compile_core(&core, Default::default())
        })
        .map_err(|e| format!("{name}: {e}"))?;
        let (inputs, region) = timed(spans, "herbie.sample", &mut sample_s, || {
            let inputs = herbie_lite::sample_inputs(&core, samples, seed);
            (inputs, region_of(&core))
        });
        let inputs = inputs.map_err(|e| format!("{name}: {e}"))?;
        let (analysis, mask) = timed(spans, "staticerr.analyze", &mut static_s, || {
            let analysis = staticerr::analyze_program(&program, &region, &params);
            let mask = staticerr::prune_mask(&program, &analysis);
            (analysis, mask)
        });
        kernels.push(Kernel {
            core,
            program,
            inputs,
            region,
            analysis,
            mask,
            ops: 0,
        });
    }
    spans.exit(open);
    Ok(Prepared {
        kernels,
        parse_s,
        compile_s,
        sample_s,
        static_s,
    })
}

/// The kernel's declared input region, in argument order: the ranges the
/// input sampler draws from.
fn region_of(core: &FPCore) -> Vec<(f64, f64)> {
    let ranges = herbie_lite::sampling::ranges_from_precondition(core);
    core.arguments
        .iter()
        .map(|name| {
            let r = ranges.get(name).copied().unwrap_or_default();
            (r.lo, r.hi)
        })
        .collect()
}

/// Counts executed client compute statements, the denominator of every
/// ops/s figure.
#[derive(Default)]
struct OpCounter {
    computes: u64,
}

impl Tracer for OpCounter {
    fn on_compute(&mut self, _: usize, _: RealOp, _: Addr, _: &[Addr], _: &[f64], _: f64) {
        self.computes += 1;
    }
}

/// Client compute statements executed by one kernel over its inputs.
pub fn count_ops(program: &Program, inputs: &[Vec<f64>]) -> Result<u64, String> {
    let machine = Machine::new(program);
    let mut counter = OpCounter::default();
    for input in inputs {
        machine
            .run_traced(input, &mut counter)
            .map_err(|e| e.to_string())?;
    }
    Ok(counter.computes)
}
