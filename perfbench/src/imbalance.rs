//! `imbalance-ring`: the paper's Figure 3 shape on the threaded runtime.
//!
//! `BenchSpec::figure3` on two ranks: 50% imbalance (rank 0 holds every
//! heavy unit), heavy = 2 × light, and every hint equal to the mean weight.
//! Each unit is a mobile object with one message; its handler spins a fixed
//! number of iterations per Mflop (no runtime calibration), so a light unit
//! is about 1 ms on a ~2.3 ns/iteration core. Nearly all time goes to
//! handlers and to the balancer moving heavy units to the idle rank; wire
//! traffic is small.

use crate::report::{iter_seed, median, mix, ratio, Budget, Outcome};
use crate::rt::{self, LatHist, RankEnd, TracedRun, NPROCS};
use crate::span::{self, Name, Role};
use crate::timed::WireCounts;
use bytes::Bytes;
use prema::{launch_with_transports, Migratable, PremaConfig};
use prema_harness::BenchSpec;
use prema_sim::MachineConfig;
use std::hint::black_box;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Duration;

const UNITS_PER_RANK: usize = 1000;
/// Spin iterations per Mflop of unit weight (250 Mflop ≈ 1 ms).
const ITERS_PER_MFLOP: f64 = 1700.0;
const H_UNIT: u32 = 1;
/// A run that has not finished by then is failed.
const DEADLINE: Duration = Duration::from_secs(30);

struct Unit {
    id: u32,
    mflop: f64,
    /// Last sequence number delivered from each sending rank.
    last_seq: [u64; NPROCS],
}

impl Migratable for Unit {
    fn pack(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.id.to_le_bytes());
        buf.extend_from_slice(&self.mflop.to_le_bytes());
        for s in self.last_seq {
            buf.extend_from_slice(&s.to_le_bytes());
        }
    }
    fn unpack(b: &[u8]) -> Self {
        let u64_at = |i: usize| u64::from_le_bytes(b[i..i + 8].try_into().expect("8 bytes"));
        Unit {
            id: u32::from_le_bytes(b[..4].try_into().expect("4 bytes")),
            mflop: f64::from_le_bytes(b[4..12].try_into().expect("8 bytes")),
            last_seq: [u64_at(12), u64_at(20)],
        }
    }
}

/// A fixed amount of dependent integer work (xorshift steps).
fn spin(iters: u64, seed: u64) -> u64 {
    let mut x = seed | 1;
    for _ in 0..iters {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x)
}

/// Payload of a unit's message: per-(sender, object) sequence number and
/// the benchmark-clock send time.
fn encode(seq: u64, sent_ns: u64) -> Bytes {
    let mut v = Vec::with_capacity(16);
    v.extend_from_slice(&seq.to_le_bytes());
    v.extend_from_slice(&sent_ns.to_le_bytes());
    Bytes::from(v)
}

fn decode(p: &[u8]) -> (u64, u64) {
    (
        u64::from_le_bytes(p[..8].try_into().expect("payload seq")),
        u64::from_le_bytes(p[8..16].try_into().expect("payload time")),
    )
}

struct Shared {
    total: u64,
    hits: Vec<AtomicU32>,
    executed: AtomicU64,
    order_violations: AtomicU64,
    busy_ns: [AtomicU64; NPROCS],
    last_handler_start: [AtomicU64; NPROCS],
    lat: [Mutex<LatHist>; NPROCS],
    setup_end: AtomicU64,
    done_ns: AtomicU64,
    deadline_ns: u64,
}

struct Run {
    setup_ns: u64,
    makespan_ns: Option<u64>,
    busy_ns: u64,
    units: u64,
    executed: u64,
    ranks: Vec<RankEnd>,
    lat: LatHist,
}

fn run_once(seed: u64, traced: bool, out: &mut Outcome) -> (Run, Option<Vec<Arc<WireCounts>>>) {
    let mut spec = BenchSpec::figure3(MachineConfig::small(NPROCS), UNITS_PER_RANK);
    spec.seed = seed;
    let total = spec.total_units() as u64;
    let lat = [
        Mutex::new(LatHist::default()),
        Mutex::new(LatHist::default()),
    ];
    let t0 = span::now_ns();
    let shared = Arc::new(Shared {
        total,
        hits: (0..total).map(|_| AtomicU32::new(0)).collect(),
        executed: AtomicU64::new(0),
        order_violations: AtomicU64::new(0),
        busy_ns: Default::default(),
        last_handler_start: Default::default(),
        lat,
        setup_end: AtomicU64::new(0),
        done_ns: AtomicU64::new(0),
        deadline_ns: t0 + DEADLINE.as_nanos() as u64,
    });
    span::set_enabled(traced);
    let stack = rt::build_stack(traced);
    let barrier = Arc::new(Barrier::new(NPROCS));
    let sh = shared.clone();
    let cfg = PremaConfig {
        seed,
        ..PremaConfig::implicit(NPROCS)
    };
    let ranks =
        launch_with_transports::<Unit, RankEnd, _>(cfg, stack.transports, None, move |rt| {
            let rank = rt.rank();
            span::set_role(Role::App(rank));
            let sh2 = sh.clone();
            rt.on_message(H_UNIT, move |ctx, unit, item| {
                let r = ctx.rank();
                span::set_current_id(unit.id as u64 + 1);
                span::span(Name::AppHandler, r, || {
                    let start = span::now_ns();
                    sh2.last_handler_start[r].store(start, Ordering::Relaxed);
                    let (seq, sent) = decode(&item.payload);
                    sh2.lat[r]
                        .lock()
                        .expect("lat lock")
                        .record(start.saturating_sub(sent));
                    if seq != unit.last_seq[item.sender] + 1 {
                        sh2.order_violations.fetch_add(1, Ordering::Relaxed);
                    }
                    unit.last_seq[item.sender] = seq;
                    spin((unit.mflop * ITERS_PER_MFLOP) as u64, unit.id as u64);
                    sh2.hits[unit.id as usize].fetch_add(1, Ordering::Relaxed);
                    let end = span::now_ns();
                    sh2.busy_ns[r].fetch_add(end - start, Ordering::Relaxed);
                    if sh2.executed.fetch_add(1, Ordering::SeqCst) + 1 == sh2.total {
                        sh2.done_ns.store(end, Ordering::SeqCst);
                    }
                })
            });
            // Setup: register this rank's block of units and seed one message
            // each, in a seed-shuffled order.
            let mut units = spec.units_of_proc(rank);
            let mut state = mix(seed ^ (rank as u64) << 32);
            for i in (1..units.len()).rev() {
                state = mix(state);
                units.swap(i, (state % (i as u64 + 1)) as usize);
            }
            for u in units {
                let ptr = rt::register(
                    &rt,
                    Unit {
                        id: u.id,
                        mflop: u.mflop,
                        last_seq: [0; NPROCS],
                    },
                );
                rt::message(&rt, ptr, H_UNIT, u.hint_mflop, encode(1, span::now_ns()));
            }
            barrier.wait();
            let start = span::now_ns();
            sh.setup_end.fetch_max(start, Ordering::SeqCst);

            let mut gaps = Vec::new();
            let mut idle_since = None;
            while sh.executed.load(Ordering::SeqCst) < sh.total && span::now_ns() < sh.deadline_ns {
                if rt::step(&rt) {
                    if let Some(t) = idle_since.take() {
                        let began = sh.last_handler_start[rank].load(Ordering::Relaxed);
                        gaps.push(began.saturating_sub(t));
                    }
                } else {
                    idle_since.get_or_insert_with(span::now_ns);
                    rt::poll(&rt);
                    rt::idle_wait(rank);
                }
            }
            RankEnd::collect(&rt, start, gaps)
        });
    span::set_enabled(false);

    let setup_end = shared.setup_end.load(Ordering::SeqCst);
    let done = shared.done_ns.load(Ordering::SeqCst);
    let executed = shared.executed.load(Ordering::SeqCst);
    let wrong: u64 = shared
        .hits
        .iter()
        .filter(|h| h.load(Ordering::Relaxed) != 1)
        .count() as u64;
    if wrong > 0 {
        out.fail(
            wrong,
            format!("{wrong} of {total} units did not run exactly once ({executed} executions)"),
        );
    }
    let order = shared.order_violations.load(Ordering::SeqCst);
    if order > 0 {
        out.fail(order, "per-(sender, object) order violations");
    }
    let mut lat = LatHist::default();
    for l in &shared.lat {
        lat.merge(&l.lock().expect("lat lock"));
    }
    let run = Run {
        setup_ns: setup_end - t0,
        makespan_ns: (done > 0).then(|| done - setup_end),
        busy_ns: shared
            .busy_ns
            .iter()
            .map(|b| b.load(Ordering::SeqCst))
            .sum(),
        units: total,
        executed,
        ranks,
        lat,
    };
    (run, stack.probes)
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let mut budget = Budget::new(seconds);
    let mut iter = 0u64;
    if !trace {
        let (mut setup, mut makespan, mut eff, mut rate) = (vec![], vec![], vec![], vec![]);
        let (mut gaps, mut p50, mut p99) = (vec![], vec![], vec![]);
        let (mut samples, mut gap_samples) = (0, 0);
        while budget.another() {
            let (mut r, _) = run_once(iter_seed(seed, iter), false, &mut out);
            iter += 1;
            out.attempted += r.units;
            setup.push(r.setup_ns as f64 / 1e9);
            match r.makespan_ns {
                Some(m) => {
                    let m = m as f64 / 1e9;
                    makespan.push(m);
                    eff.push(ratio(r.busy_ns as f64 / 1e9, NPROCS as f64 * m));
                    rate.push(r.units as f64 / m);
                }
                None => {
                    out.note("a run passed its deadline; its unexecuted units are failed above")
                }
            }
            let g: Vec<f64> = r
                .ranks
                .iter()
                .flat_map(|x| x.gaps_ns.iter().map(|&g| g as f64 / 1e6))
                .collect();
            gap_samples += g.len();
            gaps.push(median(&g));
            samples += r.lat.count();
            p50.push(r.lat.quantile_ns(0.5) / 1e3);
            p99.push(r.lat.quantile_ns(0.99) / 1e3);
        }
        out.metric("setup_s", median(&setup), "s");
        out.metric("makespan_s", median(&makespan), "s");
        out.metric("efficiency", median(&eff), "ratio");
        out.metric("lb_reaction_p50_ms", median(&gaps), "ms");
        out.metric("msgs_per_s", median(&rate), "1/s");
        out.metric("msg_latency_p50_us", median(&p50), "us");
        out.metric("msg_latency_p99_us", median(&p99), "us");
        out.note(format!(
            "samples: n={} runs of {} units (every metric is the median over runs of that run's value); lb_reaction over n={gap_samples} idle gaps; msg_latency over n={samples} unit messages",
            setup.len(),
            NPROCS * UNITS_PER_RANK,
        ));
        return out;
    }
    // Traced: alternate untraced and traced runs of the same inputs; the
    // traced ones give the per-layer numbers, the pair the overhead.
    let (mut plain, mut traced) = (vec![], vec![]);
    let mut runs = Vec::new();
    let mut fold = rt::SpanFold::default();
    while budget.another() {
        let s = iter_seed(seed, iter);
        iter += 1;
        let (a, _) = run_once(s, false, &mut out);
        let (b, probes) = run_once(s, true, &mut out);
        fold.take();
        out.attempted += a.units + b.units;
        if a.executed != b.executed {
            out.fail(1, "traced and untraced runs executed different unit counts");
        }
        match (a.makespan_ns, b.makespan_ns) {
            (Some(x), Some(y)) => {
                plain.push(x as f64);
                traced.push(y as f64);
            }
            _ => out.note("a run passed its deadline; its unexecuted units are failed above"),
        }
        runs.push(TracedRun {
            msgs: b.units,
            ranks: b.ranks,
            probes: probes.expect("traced stack has probes"),
        });
    }
    let overhead = ratio(median(&traced), median(&plain)) - 1.0;
    rt::report_layers(&mut out, &runs, &fold, overhead);
    out.note(format!(
        "trace: {} traced runs; overhead from median makespan {:.4} s traced vs {:.4} s untraced",
        runs.len(),
        median(&traced) / 1e9,
        median(&plain) / 1e9
    ));
    crate::spans_out::write("imbalance-ring", &fold.kept, &mut out);
    out
}
