//! The layer ledger: the same kernels and inputs run with one layer added
//! at a time, each timed from outside around calls into that layer's public
//! functions.
//!
//! * `fpvm.native`   — `Machine::run`, no tracer.
//! * `ledger.trace`  — `Machine::run_traced` with an empty tracer.
//! * `ledger.shadow` — a tracer of this crate doing BigFloat shadow
//!   arithmetic through `shadowreal`'s public ops, nothing else.
//! * `ledger.localerr` — the same plus `herbgrind::localerr::local_error_ref`.
//! * `ledger.{f64,dd,bigfloat}` — the full serial analysis per shadow type.
//! * `core.report`   — `Herbgrind::report()` alone, after driving
//!   `Herbgrind` as a tracer.

use crate::spans::Spans;
use crate::workload::Kernel;
use fpvm::{Addr, Machine, NullTracer, Program, Tracer, Value, MAX_ARITY};
use herbgrind::{AnalysisConfig, Herbgrind};
use shadowreal::{BigFloat, DoubleDouble, Real, RealOp};
use std::hint::black_box;
use std::time::Instant;

/// BigFloat shadow memory, without traces, records or influences.
struct ShadowTracer {
    slots: Vec<Option<BigFloat>>,
    precision: u32,
    local_error: bool,
    error_bits: f64,
}

impl ShadowTracer {
    fn new(precision: u32, local_error: bool) -> ShadowTracer {
        ShadowTracer {
            slots: Vec::new(),
            precision,
            local_error,
            error_bits: 0.0,
        }
    }
}

impl Tracer for ShadowTracer {
    fn on_start(&mut self, program: &Program, _: &[f64]) {
        self.slots.clear();
        self.slots.resize(program.num_addrs, None);
    }

    fn on_compute(
        &mut self,
        _: usize,
        op: RealOp,
        dest: Addr,
        args: &[Addr],
        values: &[f64],
        _: f64,
    ) {
        // Operands without a shadow yet (arguments, constants) are shadowed
        // from their client value, as the analysis does.
        for (&addr, &value) in args.iter().zip(values) {
            if self.slots[addr].is_none() {
                self.slots[addr] = Some(BigFloat::from_f64_prec(value, self.precision));
            }
        }
        let exact = {
            let first = self.slots[args[0]].as_ref().expect("shadowed above");
            let mut refs: [&BigFloat; MAX_ARITY] = [first; MAX_ARITY];
            for (slot, &addr) in refs.iter_mut().zip(args) {
                *slot = self.slots[addr].as_ref().expect("shadowed above");
            }
            if self.local_error {
                let (bits, exact) = herbgrind::localerr::local_error_ref(op, &refs[..args.len()]);
                self.error_bits += bits;
                exact
            } else {
                BigFloat::apply_ref(op, &refs[..args.len()])
            }
        };
        self.slots[dest] = Some(exact);
    }

    fn on_const_f(&mut self, _: usize, dest: Addr, _: f64) {
        self.slots[dest] = None;
    }

    fn on_const_i(&mut self, _: usize, dest: Addr, _: i64) {
        self.slots[dest] = None;
    }

    fn on_copy(&mut self, _: usize, dest: Addr, src: Addr, value: Value) {
        self.slots[dest] = if value.is_float() {
            self.slots[src].clone()
        } else {
            None
        };
    }

    fn on_cast_to_int(&mut self, _: usize, dest: Addr, _: Addr, _: f64, _: i64) {
        self.slots[dest] = None;
    }
}

/// Seconds per layer for one pass over every kernel.
pub struct LedgerRound {
    pub native_s: f64,
    pub trace_s: f64,
    pub shadow_s: f64,
    pub localerr_s: f64,
    pub f64_s: f64,
    pub dd_s: f64,
    pub bigfloat_s: f64,
    pub report_s: f64,
}

fn time_into(spans: &mut Spans, name: &'static str, acc: &mut f64, f: impl FnOnce()) {
    let start = Instant::now();
    spans.time(name, f);
    *acc += start.elapsed().as_secs_f64();
}

fn run_all<T: Tracer>(machine: &Machine<'_>, inputs: &[Vec<f64>], tracer: &mut T) {
    for input in inputs {
        black_box(machine.run_traced(input, tracer).expect("kernel runs"));
    }
}

/// Runs every ledger layer over every kernel once.
pub fn measure(kernels: &[Kernel], spans: &mut Spans) -> LedgerRound {
    let config = AnalysisConfig::default().with_threads(1);
    let precision = config.shadow_precision;
    let mut r = LedgerRound {
        native_s: 0.0,
        trace_s: 0.0,
        shadow_s: 0.0,
        localerr_s: 0.0,
        f64_s: 0.0,
        dd_s: 0.0,
        bigfloat_s: 0.0,
        report_s: 0.0,
    };
    for kernel in kernels {
        let (program, inputs) = (&kernel.program, kernel.inputs.as_slice());
        let machine = Machine::new(program);
        // The untraced interpreter is cheap enough for a cold instruction
        // cache to show: run it once untimed first.
        for input in inputs {
            black_box(machine.run(input).expect("kernel runs"));
        }
        time_into(spans, "fpvm.native", &mut r.native_s, || {
            for input in inputs {
                black_box(machine.run(input).expect("kernel runs"));
            }
        });
        time_into(spans, "ledger.trace", &mut r.trace_s, || {
            run_all(&machine, inputs, &mut NullTracer)
        });
        time_into(spans, "ledger.shadow", &mut r.shadow_s, || {
            run_all(&machine, inputs, &mut ShadowTracer::new(precision, false))
        });
        time_into(spans, "ledger.localerr", &mut r.localerr_s, || {
            let mut tracer = ShadowTracer::new(precision, true);
            run_all(&machine, inputs, &mut tracer);
            black_box(tracer.error_bits);
        });
        time_into(spans, "ledger.f64", &mut r.f64_s, || {
            black_box(
                herbgrind::analyze_with_shadow::<f64>(program, inputs, &config)
                    .expect("kernel runs"),
            );
        });
        time_into(spans, "ledger.dd", &mut r.dd_s, || {
            black_box(
                herbgrind::analyze_with_shadow::<DoubleDouble>(program, inputs, &config)
                    .expect("kernel runs"),
            );
        });
        time_into(spans, "ledger.bigfloat", &mut r.bigfloat_s, || {
            black_box(
                herbgrind::analyze_with_shadow::<BigFloat>(program, inputs, &config)
                    .expect("kernel runs"),
            );
        });
        let mut analysis = Herbgrind::<BigFloat>::new(config.clone());
        let mut memory = Vec::new();
        spans.time("core.drive", || {
            for input in inputs {
                machine
                    .run_traced_reusing(input, &mut analysis, &mut memory)
                    .expect("kernel runs");
            }
        });
        time_into(spans, "core.report", &mut r.report_s, || {
            black_box(analysis.report());
        });
    }
    r
}
