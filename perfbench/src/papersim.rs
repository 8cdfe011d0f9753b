//! `paper-sim`: Figures 3–6 at paper scale (all six panels each) and the
//! mesh-generation study at `MeshEvalSpec::paper()`, on the discrete-event
//! simulator. The only workload that runs `sim`, `harness`, `metis`,
//! `charm` and `mesh`; it never starts the threaded runtime.
//!
//! The workload seed becomes the policy seed of every PREMA run (both
//! PREMA panels of each figure and the mesh study's PREMA run); the
//! baselines the paper compares against run with the paper's own seeds, so
//! their exact makespans guard them independently of the seed.
//!
//! The end-to-end metrics, bar `setup_s` and `peak_rss_mb`, are the
//! simulated results of the PREMA-implicit runs, which are exact for a
//! given seed. The wall time of the drivers is reported per layer
//! (`harness.*.wall_s`) and in the notes, not as a bounded end-to-end
//! metric: on a shared 2-vCPU host the same deterministic driver call takes
//! 340 or 620 ms depending on outside load, and slow stretches last a
//! minute or more, so ten runs spread by a quarter of their median
//! whatever statistic summarises a run.

use crate::report::{iter_seed, median, mix, quantile, ratio, Budget, Outcome};
use crate::span::{self, Name};
use prema_harness::drivers::{charm_drv, nolb, parmetis_drv, prema_drv};
use prema_harness::mesh_eval::{self, CostMatrix, MeshEvalSpec};
use prema_harness::runner::{assert_work_conserved, shape_criteria};
use prema_harness::{BenchSpec, Config, FigureReport};
use prema_sim::{Category, SimReport};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;

const FIGURES: [u32; 4] = [3, 4, 5, 6];

fn panel_key(c: Config) -> &'static str {
    match c {
        Config::NoLb => "nolb",
        Config::PremaExplicit => "prema_explicit",
        Config::PremaImplicit => "prema_implicit",
        Config::ParMetis => "parmetis",
        Config::CharmNoSync => "charm_nosync",
        Config::CharmSync4 => "charm_sync4",
    }
}

fn panel_span(c: Config) -> Name {
    match c {
        Config::NoLb => Name::HarnessNolb,
        Config::PremaExplicit => Name::HarnessPremaExplicit,
        Config::PremaImplicit => Name::HarnessPremaImplicit,
        Config::ParMetis => Name::HarnessParmetis,
        Config::CharmNoSync => Name::HarnessCharmNosync,
        Config::CharmSync4 => Name::HarnessCharmSync4,
    }
}

/// Run one panel's driver — the same calls `runner::run_figure` makes,
/// with `prema_seed` as the PREMA panels' policy seed.
fn run_panel(c: Config, spec: &BenchSpec, prema_seed: u64) -> SimReport {
    let seeded = BenchSpec {
        seed: prema_seed,
        ..*spec
    };
    let prema = |implicit| prema_drv::PremaCfg {
        implicit,
        ..prema_drv::PremaCfg::default()
    };
    match c {
        Config::NoLb => nolb::run(spec),
        Config::PremaExplicit => prema_drv::run(&seeded, prema(false)),
        Config::PremaImplicit => prema_drv::run(&seeded, prema(true)),
        Config::ParMetis => parmetis_drv::run(spec, parmetis_drv::ParMetisCfg::default()),
        Config::CharmNoSync => charm_drv::run(spec, 0),
        Config::CharmSync4 => charm_drv::run(spec, 4),
    }
}

/// One timed driver call.
struct Call {
    label: String,
    wall_s: f64,
    report: SimReport,
}

struct Pass {
    setup_s: f64,
    wall_s: f64,
    calls: Vec<Call>,
    efficiency: f64,
    /// Simulated PREMA-implicit makespan, mean over Figs. 3-6, in seconds.
    implicit_makespan_s: f64,
    /// Simulated messages per simulated second over the PREMA-implicit
    /// runs of Figs. 3-6.
    implicit_msgs_per_s: f64,
    /// Time each PREMA-implicit processor that ran dry before finishing
    /// spent waiting for work, in simulated ms.
    implicit_idle_ms: Vec<f64>,
    mesher_s: f64,
    tets: f64,
}

fn timed(name: Name, label: String, f: impl FnOnce() -> SimReport) -> Call {
    let t = span::now_ns();
    let report = span::span(name, 0, f);
    Call {
        label,
        wall_s: (span::now_ns() - t) as f64 / 1e9,
        report,
    }
}

/// Run a check; a failed assertion or a false criterion is a failed
/// operation.
fn check(out: &mut Outcome, what: &str, f: impl FnOnce() -> bool) {
    out.attempted += 1;
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(true) => {}
        Ok(false) => out.fail(1, what.to_string()),
        Err(_) => out.fail(1, format!("{what}: assertion failed")),
    }
}

fn pass(seed: u64, out: &mut Outcome) -> Pass {
    let t0 = span::now_ns();
    let specs: Vec<BenchSpec> = FIGURES
        .iter()
        .map(|&n| BenchSpec::paper_figure(n))
        .collect();
    let mesh_spec = MeshEvalSpec::paper();
    let mesh_prema = MeshEvalSpec {
        seed: mix(seed ^ 0x3E5),
        ..mesh_spec
    };
    let m0 = span::now_ns();
    let matrix = span::span(Name::MeshMesher, 0, || {
        Rc::new(CostMatrix::generate(&mesh_spec))
    });
    let mesher_s = (span::now_ns() - m0) as f64 / 1e9;
    let start = span::now_ns();

    let mut calls = Vec::new();
    let mut reports = Vec::new();
    let mut effs = Vec::new();
    let mut idle = Vec::new();
    let (mut imp_secs, mut imp_msgs) = (0.0, 0u64);
    for (spec, &fig) in specs.iter().zip(&FIGURES) {
        let mut panels = Vec::new();
        for c in Config::ALL {
            let call = timed(panel_span(c), format!("fig{fig}.{}", panel_key(c)), || {
                run_panel(c, spec, mix(seed ^ fig as u64))
            });
            panels.push((c, call.report.clone()));
            calls.push(call);
        }
        let report = FigureReport {
            figure: fig,
            panels,
        };
        let imp = report.get(Config::PremaImplicit);
        effs.push(ratio(
            spec.balanced_compute_secs(),
            imp.makespan.as_secs_f64(),
        ));
        imp_secs += imp.makespan.as_secs_f64();
        imp_msgs += imp.msgs_sent.iter().sum::<u64>();
        idle.extend(
            imp.breakdowns
                .iter()
                .map(|b| {
                    b.iter()
                        .filter(|(c, _)| *c == Category::Idle)
                        .map(|(_, t)| t.as_secs_f64() * 1e3)
                        .sum::<f64>()
                })
                .filter(|&ms| ms > 0.0),
        );
        check(
            out,
            &format!("fig{fig}: work conserved across panels"),
            || {
                assert_work_conserved(&report);
                true
            },
        );
        reports.push(report);
    }
    for (criterion, ok) in shape_criteria(&reports[0], &reports[1]) {
        check(out, &format!("shape: {criterion}"), || ok);
    }

    let mesh_t = span::now_ns();
    let mesh_calls = span::span(Name::HarnessMeshStudy, 0, || {
        vec![
            timed(Name::MeshRunNolb, "mesh.nolb".into(), || {
                mesh_eval::run_nolb(&mesh_spec, &matrix)
            }),
            timed(Name::MeshRunStopRepart, "mesh.stop_repart".into(), || {
                mesh_eval::run_stop_repartition(&mesh_spec, &matrix)
            }),
            timed(Name::MeshRunPrema, "mesh.prema".into(), || {
                mesh_eval::run_prema(&mesh_prema, &matrix)
            }),
        ]
    });
    let mesh_wall = (span::now_ns() - mesh_t) as f64 / 1e9;
    let expect = matrix.total_mflop() / mesh_spec.machine.mflops;
    for c in &mesh_calls {
        let got = c.report.total_of(Category::Computation).as_secs_f64();
        check(out, &format!("{}: mesh work conserved", c.label), || {
            (got - expect).abs() <= expect * 1e-9 + 1e-6
        });
    }
    let (nolb_m, prema_m) = (mesh_calls[0].report.makespan, mesh_calls[2].report.makespan);
    check(out, "mesh: PREMA implicit beats no load balancing", || {
        prema_m < nolb_m
    });
    calls.extend(mesh_calls);
    out.note(format!("mesh study wall {mesh_wall:.4} s"));

    Pass {
        setup_s: (start - t0) as f64 / 1e9,
        wall_s: (span::now_ns() - start) as f64 / 1e9,
        calls,
        efficiency: effs.iter().sum::<f64>() / effs.len() as f64,
        implicit_makespan_s: imp_secs / FIGURES.len() as f64,
        implicit_msgs_per_s: ratio(imp_msgs as f64, imp_secs),
        implicit_idle_ms: idle,
        mesher_s,
        tets: matrix.total_mflop() / mesh_spec.mflop_per_tet,
    }
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let mut budget = Budget::new(seconds);
    let mut i = 0u64;
    if !trace {
        let (mut setup, mut eff, mut makespan, mut rate) = (vec![], vec![], vec![], vec![]);
        let (mut idle, mut wall) = (vec![], vec![]);
        while budget.another() {
            let p = pass(iter_seed(seed, i), &mut out);
            i += 1;
            setup.push(p.setup_s);
            eff.push(p.efficiency);
            makespan.push(p.implicit_makespan_s);
            rate.push(p.implicit_msgs_per_s);
            idle.extend(p.implicit_idle_ms);
            wall.push(p.wall_s);
        }
        let idle_us: Vec<f64> = idle.iter().map(|ms| ms * 1e3).collect();
        out.metric("setup_s", median(&setup), "s");
        out.metric("makespan_s", median(&makespan), "s");
        out.metric("efficiency", median(&eff), "ratio");
        out.metric("lb_reaction_p50_ms", median(&idle), "ms");
        out.metric("msgs_per_s", median(&rate), "1/s");
        out.metric("msg_latency_p50_us", quantile(&idle_us, 0.5), "us");
        out.metric("msg_latency_p99_us", quantile(&idle_us, 0.99), "us");
        out.note(format!(
            "samples: n={} passes (Figs. 3-6 x 6 panels + mesh study), each with its own PREMA seed; makespan_s, msgs_per_s = median over passes of the simulated PREMA-implicit makespan (mean over Figs. 3-6) and messages per simulated second; lb_reaction, msg_latency = percentiles of the simulated wait for work of PREMA-implicit processors that ran dry (the work request's round trip), n={}",
            setup.len(),
            idle.len(),
        ));
        out.note(format!(
            "wall (not bounded: outside load moves it by a quarter run to run): pass after setup median {:.4} s, min {:.4} s, max {:.4} s",
            median(&wall),
            wall.iter().copied().fold(f64::INFINITY, f64::min),
            wall.iter().copied().fold(0.0, f64::max),
        ));
        return out;
    }
    // Traced: an untraced pass and a traced pass of the same inputs.
    let (mut plain, mut traced) = (vec![], vec![]);
    let mut last = None;
    while budget.another() {
        let s = iter_seed(seed, i);
        i += 1;
        plain.push(pass(s, &mut out).wall_s);
        span::set_enabled(true);
        let p = pass(s, &mut out);
        span::set_enabled(false);
        traced.push(p.wall_s);
        last = Some(p);
    }
    let p = last.expect("at least one traced pass");
    let (threads, dropped) = span::drain();
    let mut wall_by = std::collections::BTreeMap::<&str, f64>::new();
    let mut runtime_spans = 0u64;
    let mut spans = 0u64;
    let mut events = 0u64;
    let mut driver_s = 0.0;
    for s in threads.iter().flat_map(|t| &t.spans) {
        spans += 1;
        if s.name.layer() != span::Layer::Sim {
            runtime_spans += 1;
        }
        *wall_by.entry(s.name.label()).or_default() += (s.end - s.start) as f64 / 1e9;
    }
    for c in &p.calls {
        events += c.report.events;
        driver_s += c.wall_s;
    }
    let n = traced.len() as f64;
    for c in Config::ALL {
        let key = format!("harness.{}", panel_key(c));
        let w = wall_by.get(key.as_str()).copied().unwrap_or(0.0) / n;
        out.metric(format!("{key}.wall_s"), w, "s");
    }
    out.metric(
        "harness.mesh_study.wall_s",
        wall_by.get("harness.mesh_study").copied().unwrap_or(0.0) / n,
        "s",
    );
    out.metric("sim.events", events as f64, "count");
    out.metric("sim.events_per_s", ratio(events as f64, driver_s), "1/s");
    out.metric("mesh.tets", p.tets, "count");
    out.metric("mesh.mesher_wall_s", p.mesher_s, "s");
    for c in p.calls.iter() {
        out.metric(
            format!("sim.{}.makespan_s", c.label),
            c.report.makespan.as_secs_f64(),
            "s",
        );
    }
    out.metric(
        "trace.overhead_frac",
        ratio(median(&traced), median(&plain)) - 1.0,
        "ratio",
    );
    out.metric("trace.spans", spans as f64, "count");
    out.metric("trace.runtime_spans", runtime_spans as f64, "count");
    out.metric("trace.dropped_spans", dropped as f64, "count");
    out.note(format!(
        "trace: {} traced passes; per-pass driver wall {:.4} s over {events} simulated events; overhead from median pass wall {:.4} s traced vs {:.4} s untraced",
        traced.len(),
        driver_s,
        median(&traced),
        median(&plain)
    ));
    crate::spans_out::write("paper-sim", &threads, &mut out);
    out
}
