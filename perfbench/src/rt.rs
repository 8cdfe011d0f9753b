//! Pieces shared by the threaded-runtime workloads: transport stacks, the
//! span-wrapped `Runtime` calls, latency recording, and the per-layer
//! report built from a traced run.

use crate::report::{median, ratio, Outcome};
use crate::span::{self, Layer, Name, Role, ThreadSpans, NO_PARENT};
use crate::timed::{Timed, WireCounts};
use bytes::Bytes;
use prema::dcs::{LocalFabric, Transport};
use prema::ilb::SchedStats;
use prema::mol::MolStats;
use prema::{Migratable, MobilePtr, Runtime};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Ranks in every runtime workload: one process, two ranks.
pub const NPROCS: usize = 2;

/// One transport per rank, in rank order, plus, for a traced stack, the
/// counters of each rank's timing decorator.
pub struct Stack {
    pub transports: Vec<Box<dyn Transport>>,
    pub probes: Option<Vec<Arc<WireCounts>>>,
}

/// Build the ranks' ring-mesh transports. `traced` wraps each in the timing
/// decorator; untraced stacks are exactly what the runtime would be given
/// without the benchmark.
pub fn build_stack(traced: bool) -> Stack {
    let endpoints = LocalFabric::new(NPROCS).into_iter();
    if !traced {
        return Stack {
            transports: endpoints
                .map(|ep| Box::new(ep) as Box<dyn Transport>)
                .collect(),
            probes: None,
        };
    }
    let mut probes = Vec::new();
    let transports = endpoints
        .map(|ep| {
            let t = Timed::new(ep);
            probes.push(t.counts());
            Box::new(t) as Box<dyn Transport>
        })
        .collect();
    Stack {
        transports,
        probes: Some(probes),
    }
}

// ---- `Runtime` calls, each inside a span when tracing is on -------------

pub fn register<O: Migratable>(rt: &Runtime<O>, obj: O) -> MobilePtr {
    span::span(Name::CoreRegister, rt.rank(), || rt.register(obj))
}

pub fn message<O: Migratable>(rt: &Runtime<O>, ptr: MobilePtr, h: u32, hint: f64, p: Bytes) {
    span::span(Name::CoreMessage, rt.rank(), || {
        rt.message_with_hint(ptr, h, hint, p)
    })
}

/// `Runtime::step`; the step's span takes the id of the unit its handler
/// ran (see `span::close`).
pub fn step<O: Migratable>(rt: &Runtime<O>) -> bool {
    span::set_current_id(0);
    span::span(Name::CoreStep, rt.rank(), || rt.step())
}

pub fn poll<O: Migratable>(rt: &Runtime<O>) -> usize {
    span::span(Name::CorePoll, rt.rank(), || rt.poll())
}

pub fn migrate<O: Migratable>(rt: &Runtime<O>, ptr: MobilePtr, dst: usize) -> bool {
    span::span(Name::CoreMigrate, rt.rank(), || rt.migrate(ptr, dst))
}

/// The app loop's wait when its queue is empty: give the CPU away, as
/// `Runtime::run_until` does.
pub fn idle_wait(rank: usize) {
    span::span(Name::AppIdle, rank, std::thread::yield_now)
}

// ---- Latency samples ------------------------------------------------------

/// Exact-to-10ns latency recorder with a fixed footprint: a bucket per
/// 10 ns up to 1 ms, and raw values above that.
pub struct LatHist {
    buckets: Vec<u64>,
    over: Vec<u64>,
}

const BUCKET_NS: u64 = 10;
const BUCKETS: usize = 100_000;

impl Default for LatHist {
    fn default() -> Self {
        // Touch every bucket page now, so resident memory does not depend
        // on which latencies a run happens to see.
        let mut buckets = vec![1u64; BUCKETS];
        buckets.fill(0);
        LatHist {
            buckets,
            over: Vec::new(),
        }
    }
}

impl LatHist {
    pub fn record(&mut self, ns: u64) {
        match self.buckets.get_mut((ns / BUCKET_NS) as usize) {
            Some(b) => *b += 1,
            None => self.over.push(ns),
        }
    }

    pub fn merge(&mut self, other: &LatHist) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.over.extend_from_slice(&other.over);
    }

    pub fn count(&self) -> u64 {
        self.buckets.iter().sum::<u64>() + self.over.len() as u64
    }

    /// Nearest-rank `q`-quantile in nanoseconds (bucket midpoints below
    /// 1 ms, exact above).
    pub fn quantile_ns(&mut self, q: f64) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        let want = ((n - 1) as f64 * q.clamp(0.0, 1.0)).round() as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            if seen + c > want {
                return (i as u64 * BUCKET_NS) as f64 + BUCKET_NS as f64 / 2.0;
            }
            seen += c;
        }
        self.over.sort_unstable();
        self.over[(want - seen) as usize] as f64
    }
}

// ---- What each rank hands back ----------------------------------------------

/// A rank's view of one run, collected by its app thread at the end.
pub struct RankEnd {
    pub sched: SchedStats,
    pub mol: MolStats,
    /// App-loop window: end of setup to loop exit (benchmark clock, ns).
    pub start_ns: u64,
    pub end_ns: u64,
    /// Idle episodes that ended in work: queue found empty → next handler
    /// start, in ns.
    pub gaps_ns: Vec<u64>,
    pub migrate_tried: u64,
    pub migrate_ok: u64,
}

impl RankEnd {
    pub fn collect<O: Migratable>(rt: &Runtime<O>, start_ns: u64, gaps_ns: Vec<u64>) -> Self {
        RankEnd {
            sched: rt.sched_stats(),
            mol: rt.mol_stats(),
            start_ns,
            end_ns: span::now_ns(),
            gaps_ns,
            migrate_tried: 0,
            migrate_ok: 0,
        }
    }
}

/// One traced run, for the per-layer report.
pub struct TracedRun {
    pub ranks: Vec<RankEnd>,
    pub probes: Vec<Arc<WireCounts>>,
    /// Application messages delivered (units or hops).
    pub msgs: u64,
}

// ---- Per-layer report ---------------------------------------------------------

#[derive(Default, Clone, Copy)]
struct Acct {
    wall: u64,
    handler: u64,
    core: u64,
    dcs: u64,
    idle: u64,
}

fn mean(sum: u64, n: u64) -> f64 {
    ratio(sum as f64, n as f64)
}

/// Span-derived sums of the traced runs so far.
#[derive(Default, Clone, Copy)]
struct LayerSums {
    acct: [Acct; NPROCS],
    step_over: u64,
    step_exec: u64,
    steps: u64,
    poll_ns: u64,
    polls: u64,
    mig_ns: u64,
    migs: u64,
    handler_ns: u64,
    handlers: u64,
    send_ns: u64,
    sends: u64,
    probe_ns: u64,
    probes: u64,
    poller_dcs: u64,
    poller_wakes: u64,
    /// Self time of every transport span, app and poller threads alike.
    dcs_self: u64,
    runtime_spans: u64,
    total_spans: u64,
}

impl LayerSums {
    fn fold(&mut self, threads: &[ThreadSpans]) {
        for t in threads {
            let spans = &t.spans;
            self.total_spans += spans.len() as u64;
            let selfs = span::self_times(spans);
            let mut handler_in = vec![0u64; spans.len()];
            for s in spans {
                if s.name == Name::AppHandler && s.parent != NO_PARENT {
                    handler_in[s.parent as usize] += s.end - s.start;
                }
            }
            let mut last_end = 0u64;
            for (i, s) in spans.iter().enumerate() {
                let dur = s.end.saturating_sub(s.start);
                let layer = s.name.layer();
                if layer != Layer::Sim {
                    self.runtime_spans += 1;
                }
                // Setup calls (registering objects, seeding work) fall before
                // the measured window and out of the accounting.
                let mut root = i;
                while spans[root].parent != NO_PARENT {
                    root = spans[root].parent as usize;
                }
                let in_setup = matches!(spans[root].name, Name::CoreRegister | Name::CoreMessage);
                match s.name {
                    Name::CoreStep => {
                        self.steps += 1;
                        if handler_in[i] > 0 {
                            self.step_exec += 1;
                            self.step_over += dur - handler_in[i];
                        }
                    }
                    Name::CorePoll => {
                        self.polls += 1;
                        self.poll_ns += dur;
                    }
                    Name::CoreMigrate => {
                        self.migs += 1;
                        self.mig_ns += dur;
                    }
                    Name::AppHandler => {
                        self.handlers += 1;
                        self.handler_ns += dur;
                    }
                    _ => {}
                }
                if layer == Layer::Dcs {
                    self.dcs_self += selfs[i];
                    match s.name {
                        Name::DcsSend | Name::DcsSendBatch => {
                            self.sends += 1;
                            self.send_ns += dur;
                        }
                        Name::DcsTryRecv | Name::DcsTryRecvBatch => {
                            self.probes += 1;
                            self.probe_ns += dur;
                        }
                        _ => {}
                    }
                }
                match t.role {
                    Role::App(r) if !in_setup => {
                        let a = &mut self.acct[r];
                        match layer {
                            Layer::App => a.handler += selfs[i],
                            Layer::Core => a.core += selfs[i],
                            Layer::Dcs => a.dcs += selfs[i],
                            Layer::Idle => a.idle += selfs[i],
                            Layer::Sim => {}
                        }
                    }
                    Role::App(_) => {}
                    Role::Other => {
                        if layer == Layer::Dcs && s.parent == NO_PARENT {
                            self.poller_dcs += dur;
                            // A wake is a burst of transport calls; the poller
                            // sleeps `poll_interval` (1 ms) between bursts.
                            if s.start.saturating_sub(last_end) > 200_000 {
                                self.poller_wakes += 1;
                            }
                            last_end = s.end;
                        }
                    }
                }
            }
        }
    }
}

/// Collects a traced run's spans: each traced iteration's spans are folded
/// into the per-layer sums as soon as it ends, so a traced run lasts the
/// whole measured time in bounded memory. The first iteration's spans are
/// kept to be written out.
#[derive(Default)]
pub struct SpanFold {
    sums: LayerSums,
    dropped: u64,
    pub kept: Vec<ThreadSpans>,
}

impl SpanFold {
    /// Drain the recorder into the sums.
    pub fn take(&mut self) {
        let (threads, dropped) = span::drain();
        self.dropped += dropped;
        self.sums.fold(&threads);
        if self.kept.is_empty() {
            self.kept = threads;
        }
    }
}

/// Turn the traced runs' spans and counters into the per-layer metrics,
/// with the per-rank accounting and every ratio's base in the notes.
pub fn report_layers(out: &mut Outcome, runs: &[TracedRun], fold: &SpanFold, overhead_frac: f64) {
    let LayerSums {
        mut acct,
        step_over,
        step_exec,
        steps,
        poll_ns,
        polls,
        mig_ns,
        migs,
        handler_ns,
        handlers,
        send_ns,
        sends,
        probe_ns,
        probes,
        poller_dcs,
        poller_wakes,
        dcs_self,
        runtime_spans,
        total_spans,
    } = fold.sums;
    let dropped = fold.dropped;
    for run in runs {
        for (r, re) in run.ranks.iter().enumerate() {
            acct[r].wall += re.end_ns.saturating_sub(re.start_ns);
        }
    }

    let wall: u64 = acct.iter().map(|a| a.wall).sum();
    let sum = |f: fn(&Acct) -> u64| acct.iter().map(f).sum::<u64>();
    let (handler, core, dcs, idle) = (
        sum(|a| a.handler),
        sum(|a| a.core),
        sum(|a| a.dcs),
        sum(|a| a.idle),
    );
    let residual = wall as i128 - (handler + core + dcs + idle) as i128;
    for (r, a) in acct.iter().enumerate() {
        let w = a.wall as f64;
        let res = a.wall as i128 - (a.handler + a.core + a.dcs + a.idle) as i128;
        out.note(format!(
            "rank {r} accounting: wall {:.4} s = handler {:.4} s ({:.1}%) + core self {:.4} s ({:.1}%) + dcs {:.4} s ({:.1}%) + idle {:.4} s ({:.1}%) + residual {:.4} s ({:.1}%)",
            w / 1e9,
            a.handler as f64 / 1e9,
            100.0 * ratio(a.handler as f64, w),
            a.core as f64 / 1e9,
            100.0 * ratio(a.core as f64, w),
            a.dcs as f64 / 1e9,
            100.0 * ratio(a.dcs as f64, w),
            a.idle as f64 / 1e9,
            100.0 * ratio(a.idle as f64, w),
            res as f64 / 1e9,
            100.0 * ratio(res as f64, w),
        ));
    }
    let wf = wall as f64;
    let msgs: u64 = runs.iter().map(|r| r.msgs).sum();

    // core
    out.metric(
        "core.step_overhead_us",
        mean(step_over, step_exec) / 1e3,
        "us",
    );
    out.metric("core.poll_us", mean(poll_ns, polls) / 1e3, "us");
    out.metric("core.migrate_us", mean(mig_ns, migs) / 1e3, "us");
    out.metric("core.idle_frac", ratio(idle as f64, wf), "ratio");
    out.metric("core.self_frac", ratio(core as f64, wf), "ratio");
    out.metric(
        "core.poller_wakes_per_s",
        ratio(poller_wakes as f64, wf / 1e9),
        "1/s",
    );
    out.metric("core.steps", steps as f64, "count");
    out.metric("core.poller_wakes", poller_wakes as f64, "count");
    out.note(format!(
        "core: {step_exec} executing steps of {steps}; {polls} polls; {migs} migrate calls; {poller_wakes} poller wakes over {:.4} rank-s; poller transport time {:.4} s",
        wf / 1e9,
        poller_dcs as f64 / 1e9
    ));

    // ilb
    let mut ilb = SchedStats::default();
    let mut share = Vec::new();
    for run in runs {
        let exec: Vec<u64> = run.ranks.iter().map(|r| r.sched.executed).collect();
        let total: u64 = exec.iter().sum();
        share.push(ratio(*exec.iter().max().unwrap_or(&0) as f64, total as f64));
        for re in &run.ranks {
            let s = re.sched;
            ilb.executed += s.executed;
            ilb.requests_sent += s.requests_sent;
            ilb.granted += s.granted;
            ilb.nacks_recv += s.nacks_recv;
            ilb.request_timeouts += s.request_timeouts;
            ilb.hysteresis_refusals += s.hysteresis_refusals;
            ilb.residency_vetoes += s.residency_vetoes;
            ilb.rate_cap_vetoes += s.rate_cap_vetoes;
        }
    }
    let vetoes = ilb.hysteresis_refusals + ilb.residency_vetoes + ilb.rate_cap_vetoes;
    out.metric("ilb.requests_sent", ilb.requests_sent as f64, "count");
    out.metric("ilb.granted", ilb.granted as f64, "count");
    out.metric(
        "ilb.grant_rate",
        ratio(ilb.granted as f64, ilb.requests_sent as f64),
        "ratio",
    );
    out.metric("ilb.nacks_recv", ilb.nacks_recv as f64, "count");
    out.metric("ilb.request_timeouts", ilb.request_timeouts as f64, "count");
    out.metric("ilb.vetoes", vetoes as f64, "count");
    out.metric("ilb.max_exec_share", median(&share), "ratio");
    out.note(format!(
        "ilb: {} granted of {} requests; vetoes = {} hysteresis + {} residency + {} rate cap; {} units executed",
        ilb.granted,
        ilb.requests_sent,
        ilb.hysteresis_refusals,
        ilb.residency_vetoes,
        ilb.rate_cap_vetoes,
        ilb.executed
    ));

    // mol
    let mut mol = MolStats::default();
    let (mut migrate_tried, mut migrate_ok) = (0, 0);
    for re in runs.iter().flat_map(|r| &r.ranks) {
        let m = &re.mol;
        mol.delivered += m.delivered;
        mol.forwarded += m.forwarded;
        mol.migrations_in += m.migrations_in;
        mol.migrations_out += m.migrations_out;
        mol.loc_cache_hits += m.loc_cache_hits;
        mol.loc_cache_misses += m.loc_cache_misses;
        mol.loc_cache_stale += m.loc_cache_stale;
        mol.home_lookups += m.home_lookups;
        mol.dir_publishes += m.dir_publishes;
        for (a, b) in mol.chain_hist.iter_mut().zip(&m.chain_hist) {
            *a += b;
        }
        migrate_tried += re.migrate_tried;
        migrate_ok += re.migrate_ok;
    }
    let lookups = mol.loc_cache_hits + mol.loc_cache_misses;
    out.metric(
        "mol.cache_hit_rate",
        ratio(mol.loc_cache_hits as f64, lookups as f64),
        "ratio",
    );
    out.metric("mol.cache_hits", mol.loc_cache_hits as f64, "count");
    out.metric("mol.cache_misses", mol.loc_cache_misses as f64, "count");
    out.metric("mol.cache_stale", mol.loc_cache_stale as f64, "count");
    out.metric(
        "mol.forwarded_per_msg",
        ratio(mol.forwarded as f64, msgs as f64),
        "ratio",
    );
    out.metric(
        "mol.home_lookups_per_msg",
        ratio(mol.home_lookups as f64, msgs as f64),
        "ratio",
    );
    out.metric(
        "mol.dir_publishes_per_migration",
        ratio(mol.dir_publishes as f64, mol.migrations_out as f64),
        "ratio",
    );
    out.metric("mol.chain_p99", mol.chain_percentile(0.99) as f64, "hops");
    out.metric("mol.migrations_in", mol.migrations_in as f64, "count");
    out.metric("mol.migrations_out", mol.migrations_out as f64, "count");
    out.note(format!(
        "mol: {} hits / {} misses ({} stale); {} forwarded, {} home lookups over {msgs} app messages; {} directory publishes over {} migrations out ({migrate_ok} of {migrate_tried} explicit migrate calls moved an object); chain max {}",
        mol.loc_cache_hits,
        mol.loc_cache_misses,
        mol.loc_cache_stale,
        mol.forwarded,
        mol.home_lookups,
        mol.dir_publishes,
        mol.migrations_out,
        mol.chain_hist.iter().rposition(|&c| c > 0).unwrap_or(0)
    ));

    // dcs
    let total = |f: fn(&WireCounts) -> &AtomicU64| -> u64 {
        runs.iter()
            .flat_map(|r| &r.probes)
            .map(|c| f(c).load(Ordering::Relaxed))
            .sum()
    };
    let envelopes = total(|c| &c.envelopes);
    let frames = total(|c| &c.frames);
    let bytes = total(|c| &c.bytes);
    let nprobes = total(|c| &c.probes);
    let empty = total(|c| &c.empty_probes);
    let wait = total(|c| &c.wait_ns);
    out.metric("dcs.send_us", mean(send_ns, sends) / 1e3, "us");
    out.metric("dcs.recv_probe_us", mean(probe_ns, probes) / 1e3, "us");
    out.metric(
        "dcs.recv_empty_frac",
        ratio(empty as f64, nprobes as f64),
        "ratio",
    );
    out.metric("dcs.recv_wait_s", wait as f64 / 1e9, "s");
    out.metric("dcs.self_frac", ratio(dcs as f64, wf), "ratio");
    out.metric(
        "dcs.envelopes_per_msg",
        ratio(envelopes as f64, msgs as f64),
        "ratio",
    );
    out.metric(
        "dcs.frames_per_msg",
        ratio(frames as f64, msgs as f64),
        "ratio",
    );
    out.metric("dcs.bytes_per_msg", ratio(bytes as f64, msgs as f64), "B");
    out.metric("dcs.envelopes", envelopes as f64, "count");
    out.metric("dcs.probes", nprobes as f64, "count");
    out.note(format!(
        "dcs: {envelopes} envelopes in {frames} frames ({bytes} B) over {msgs} app messages; {empty} of {nprobes} probes empty; transport self time {:.4} s (app and poller threads)",
        dcs_self as f64 / 1e9
    ));

    // app + accounting
    out.metric("app.handler_us", mean(handler_ns, handlers) / 1e3, "us");
    out.metric("app.busy_frac", ratio(handler as f64, wf), "ratio");
    out.metric("app.msgs", msgs as f64, "count");
    out.metric("residual_frac", ratio(residual as f64, wf), "ratio");
    out.metric("trace.overhead_frac", overhead_frac, "ratio");
    out.metric("trace.spans", total_spans as f64, "count");
    out.metric("trace.runtime_spans", runtime_spans as f64, "count");
    out.metric("trace.dropped_spans", dropped as f64, "count");
    if dropped > 0 {
        out.note(format!(
            "trace: {dropped} spans dropped at the {}-span cap; span-derived metrics cover only the recorded part",
            span::MAX_SPANS
        ));
    }
}
