//! One unit through the pipeline, every call into a layer timed from here.
//!
//! The calls are the public ones a user of the library makes:
//! `rcp_lang::parse_program` → `Session::load` (together exactly what
//! `Session::parse` does) → `Analyzed::plan` → `Analyzed::partition_with`
//! and the first `Partitioned::partition` → `Partitioned::schedule` →
//! `Scheduled::sequential` and `Scheduled::verify` (what `rcp run` pays) →
//! back-to-back pairs of trusted parallel execution and
//! `execute_sequential`.  Afterwards, outside every timed region, the
//! unit is replayed through `Program::enumerate_instances` with a fresh
//! `RefKernel` and `ArrayStore` — a direct loop-tree walk that shares no
//! code with the partitioner, the schedule construction or the executor — and
//! the parallel store must match it element for element.

use crate::spans::Recorder;
use rcp_runtime::{execute_sequential, ArrayStore, Kernel, ParallelExecutor, RefKernel};
use rcp_session::{Analyzed, Session};

/// Back-to-back (parallel, sequential) execution pairs per unit and pass;
/// the order alternates so drift within a pair cancels.
pub const EXEC_PAIRS: usize = 5;

/// What a unit starts from: source text (`chains`, `dataflow`) or a
/// program analysed and planned during set-up (`bindings`).
pub enum Start<'a> {
    Text(&'a str),
    Analyzed(&'a Analyzed),
}

/// The timings of one pass of one unit, in seconds; after
/// [`Sample::scale_to_reference`], in seconds at the reference speed.
#[derive(Clone, Debug, Default)]
pub struct Sample {
    pub pass: usize,
    pub traced: bool,
    /// The factor applied by [`Sample::scale_to_reference`].
    pub factor: f64,
    pub parse: f64,
    pub analyze: f64,
    pub plan: f64,
    pub partition: f64,
    pub schedule: f64,
    pub sequential: f64,
    pub verify: f64,
    pub par: Vec<f64>,
    pub seq: Vec<f64>,
    pub t1: Option<f64>,
    pub diff: f64,
    pub phase_ms: Vec<f64>,
}

impl Sample {
    /// Source text → validated schedule.
    pub fn compile(&self) -> f64 {
        self.parse + self.analyze + self.plan + self.partition + self.schedule
    }

    /// Binding an analysed program: `partition_with` → `partition` →
    /// `schedule`.
    pub fn bind(&self) -> f64 {
        self.partition + self.schedule
    }

    /// The check `rcp run` pays: the sequential reference schedule plus
    /// `Scheduled::verify`.
    pub fn verification(&self) -> f64 {
        self.sequential + self.verify
    }

    /// Scales every time by `factor` (see `calib`).
    pub fn scale_to_reference(&mut self, factor: f64) {
        self.factor = factor;
        for t in [
            &mut self.parse,
            &mut self.analyze,
            &mut self.plan,
            &mut self.partition,
            &mut self.schedule,
            &mut self.sequential,
            &mut self.verify,
            &mut self.diff,
        ] {
            *t *= factor;
        }
        for t in self.par.iter_mut().chain(&mut self.seq).chain(&mut self.t1) {
            *t *= factor;
        }
        for ms in &mut self.phase_ms {
            *ms *= factor;
        }
    }
}

/// Counts of one unit; they depend only on the inputs, so they repeat
/// exactly for a seed.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub pairs: usize,
    pub survivors: usize,
    pub instances: usize,
    pub critical_path: usize,
    pub instantiated: bool,
    pub phases: usize,
    pub pool: bool,
    pub store_elems: usize,
}

pub struct Pipeline {
    pub session: Session,
    pub threads: usize,
}

impl Pipeline {
    /// Runs one unit.  `Err` carries why the unit failed: a typed error, a
    /// failed verification, a race or a mismatch against the independent
    /// reference.
    pub fn run(
        &self,
        start: &Start<'_>,
        params: &[(String, i64)],
        rec: &mut Recorder,
    ) -> Result<(Sample, Counts), String> {
        let mut s = Sample {
            traced: rec.keeps_spans(),
            ..Sample::default()
        };
        let owned;
        let analyzed = match start {
            Start::Analyzed(analyzed) => *analyzed,
            Start::Text(text) => {
                let (program, t) = rec.time("lang.parse", || rcp_lang::parse_program(text));
                s.parse = t;
                let program = program.map_err(|e| format!("parse: {e}"))?;
                let (analyzed, t) = rec.time("depend.analyze", || self.session.load(program));
                s.analyze = t;
                owned = analyzed.map_err(|e| format!("analyze: {e}"))?;
                if owned.symbolic_analysis().is_some() {
                    // `Err` is the typed "no recurrence-chain plan" answer
                    // of a dataflow nest, not a failure.
                    let (_, t) = rec.time("core.plan", || owned.plan());
                    s.plan = t;
                }
                &owned
            }
        };
        let (partitioned, t) = rec.time("core.partition", || {
            analyzed.partition_with(params).inspect(|p| {
                p.partition();
            })
        });
        s.partition = t;
        let partitioned = partitioned.map_err(|e| format!("partition: {e}"))?;
        let (scheduled, t) = rec.time("codegen.schedule", || partitioned.schedule());
        s.schedule = t;
        let scheduled = scheduled.map_err(|e| format!("schedule: {e}"))?;
        let (_, t) = rec.time("codegen.sequential", || scheduled.sequential().n_phases());
        s.sequential = t;
        let (verification, t) = rec.time("session.verify", || scheduled.verify());
        s.verify = t;
        if !verification.passed() {
            return Err(format!(
                "verify: {} mismatches, {} races",
                verification.mismatches.len(),
                verification.races.len()
            ));
        }

        let kernel = scheduled.kernel();
        let executor = ParallelExecutor::new(self.threads).with_race_detection(false);
        let mut store = None;
        for rep in 0..EXEC_PAIRS {
            let par_first = rep % 2 == 0;
            if !par_first {
                s.seq.push(self.sequential(&scheduled, &kernel, rec));
            }
            let (result, t) = rec.time("runtime.exec_par", || {
                executor.execute(scheduled.schedule(), &kernel)
            });
            s.par.push(t);
            if !result.race_free() {
                return Err(format!("parallel run: {} races", result.races.len()));
            }
            if store.is_none() {
                s.phase_ms = result
                    .phase_times
                    .iter()
                    .map(|d| d.as_secs_f64() * 1e3)
                    .collect();
                store = Some(result.store);
            }
            if par_first {
                s.seq.push(self.sequential(&scheduled, &kernel, rec));
            }
        }
        if rec.keeps_spans() {
            let single = ParallelExecutor::new(1).with_race_detection(false);
            let (_, t) = rec.time("runtime.exec_t1", || {
                single.execute(scheduled.schedule(), &kernel)
            });
            s.t1 = Some(t);
        }
        let store = store.expect("EXEC_PAIRS is at least one");

        let program = partitioned.runtime_program();
        let values = partitioned.runtime_values();
        let (reference, _) = rec.time("check.reference", || {
            let instances = program.enumerate_instances(values);
            let kernel = RefKernel::new(program);
            let mut reference = ArrayStore::new();
            for (stmt, indices) in &instances {
                kernel.execute(*stmt, indices, &mut reference);
            }
            (reference, instances.len())
        });
        let (reference, n_instances) = reference;
        let (mismatches, t) = rec.time("runtime.diff", || reference.diff(&store, 1e-9));
        s.diff = t;
        if !mismatches.is_empty() {
            return Err(format!(
                "{} elements differ from the independent reference",
                mismatches.len()
            ));
        }
        let schedule = scheduled.schedule();
        if schedule.n_instances() != n_instances {
            return Err(format!(
                "schedule holds {} instances, the loop walk {n_instances}",
                schedule.n_instances()
            ));
        }

        let stats = partitioned.stats();
        let screen = &partitioned.analysis().screen;
        let counts = Counts {
            pairs: screen.n_pairs,
            survivors: screen.n_pairs - screen.screened(),
            instances: stats.total_iterations,
            critical_path: stats.critical_path,
            instantiated: partitioned.instantiated(),
            phases: schedule.n_phases(),
            pool: executor.uses_pool(schedule),
            store_elems: store.written_len(),
        };
        Ok((s, counts))
    }

    fn sequential(
        &self,
        scheduled: &rcp_session::Scheduled,
        kernel: &RefKernel,
        rec: &mut Recorder,
    ) -> f64 {
        let (store, t) = rec.time("runtime.exec_seq", || {
            execute_sequential(scheduled.sequential(), kernel)
        });
        drop(store);
        t
    }
}
