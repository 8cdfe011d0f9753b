//! `chatter-ring`: fine-grained mobile-object messaging in a closed loop
//! over the ring mesh.
//!
//! Each rank registers 64 objects and injects 4 tokens. Every hop runs a
//! tiny handler that forwards the token to a seed-chosen object on either
//! rank, so the next hop is sent only after the previous one ran (a closed
//! loop with 8 clients). Each app thread also migrates one seed-chosen
//! object to the other rank per 64 hops it executes, so directory writes
//! (publishes, forwarding, stale location caches) happen beside cache-hit
//! reads. Handlers do almost no work: the wire, MOL routing and the
//! per-message runtime cost dominate, and the balancer has nothing to do.
//!
//! A round is one launch in which every token makes a fixed number of hops;
//! a run repeats rounds for the requested time after one warm-up round.

use crate::report::{iter_seed, median, mix, ratio, Budget, Outcome};
use crate::rt::{self, LatHist, RankEnd, TracedRun, NPROCS};
use crate::span::{self, Name, Role};
use crate::timed::WireCounts;
use bytes::Bytes;
use prema::{launch_with_transports, Migratable, MobilePtr, PremaConfig};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex, OnceLock};
use std::time::Duration;

const OBJS_PER_RANK: usize = 64;
const TOKENS_PER_RANK: usize = 4;
const OBJS: usize = OBJS_PER_RANK * NPROCS;
const TOKENS: usize = TOKENS_PER_RANK * NPROCS;
/// Each app thread migrates one object per this many hops it executes.
const MIGRATE_EVERY: u64 = 64;
const H_HOP: u32 = 1;
/// A round that has not finished by then is failed.
const DEADLINE: Duration = Duration::from_secs(30);

/// Hops per token in a measured round. Sized so a round lasts under half a
/// second on two cores.
const MEASURED_HOPS: u64 = 20_000;
/// Hops per token in a traced round (and the untraced round it is compared
/// with), well within the span buffer.
const TRACED_HOPS: u64 = 4_000;
/// Unmeasured rounds run this long first: the first rounds of a process
/// run measurably slower.
const WARMUP_SECONDS: f64 = 2.0;

struct Obj {
    /// Last sequence number delivered from each sending rank.
    last_seq: [u64; NPROCS],
}

impl Migratable for Obj {
    fn pack(&self, buf: &mut Vec<u8>) {
        for s in self.last_seq {
            buf.extend_from_slice(&s.to_le_bytes());
        }
    }
    fn unpack(b: &[u8]) -> Self {
        let at = |i: usize| u64::from_le_bytes(b[i..i + 8].try_into().expect("8 bytes"));
        Obj {
            last_seq: [at(0), at(8)],
        }
    }
}

/// Hop payload: token, hop number, per-(sender, object) sequence number,
/// benchmark-clock send time.
fn encode(token: u32, hop: u32, seq: u64, sent_ns: u64) -> Bytes {
    let mut v = Vec::with_capacity(24);
    v.extend_from_slice(&token.to_le_bytes());
    v.extend_from_slice(&hop.to_le_bytes());
    v.extend_from_slice(&seq.to_le_bytes());
    v.extend_from_slice(&sent_ns.to_le_bytes());
    Bytes::from(v)
}

fn decode(p: &[u8]) -> (u32, u32, u64, u64) {
    let u32_at = |i: usize| u32::from_le_bytes(p[i..i + 4].try_into().expect("payload u32"));
    let u64_at = |i: usize| u64::from_le_bytes(p[i..i + 8].try_into().expect("payload u64"));
    (u32_at(0), u32_at(4), u64_at(8), u64_at(16))
}

struct Shared {
    seed: u64,
    hops: u64,
    ptrs: Vec<OnceLock<MobilePtr>>,
    /// Hops each token has executed; a token's hops run strictly in turn,
    /// so hop `h` must find exactly `h` here.
    token_hops: Vec<AtomicU64>,
    hop_violations: AtomicU64,
    order_violations: AtomicU64,
    executed: AtomicU64,
    parked: AtomicU64,
    /// Next sequence number per (sending rank, object).
    send_seq: Vec<AtomicU64>,
    busy_ns: [AtomicU64; NPROCS],
    last_handler_start: [AtomicU64; NPROCS],
    lat: [Mutex<LatHist>; NPROCS],
    setup_end: AtomicU64,
    done_ns: AtomicU64,
    deadline_ns: u64,
}

impl Shared {
    /// The object that hop `hop` of `token` goes to.
    fn dest(&self, token: u32, hop: u32) -> usize {
        (mix(self.seed ^ ((token as u64) << 40) ^ hop as u64) % OBJS as u64) as usize
    }

    fn next_seq(&self, rank: usize, obj: usize) -> u64 {
        self.send_seq[rank * OBJS + obj].fetch_add(1, Ordering::Relaxed) + 1
    }

    fn ptr(&self, obj: usize) -> MobilePtr {
        *self.ptrs[obj]
            .get()
            .expect("every object registered in setup")
    }
}

struct RoundResult {
    setup_ns: u64,
    makespan_ns: Option<u64>,
    busy_ns: u64,
    executed: u64,
    ranks: Vec<RankEnd>,
    lat: LatHist,
    probes: Option<Vec<Arc<WireCounts>>>,
}

fn round(seed: u64, hops: u64, traced: bool, out: &mut Outcome) -> RoundResult {
    let lat = [
        Mutex::new(LatHist::default()),
        Mutex::new(LatHist::default()),
    ];
    let t0 = span::now_ns();
    let sh = Arc::new(Shared {
        seed,
        hops,
        ptrs: (0..OBJS).map(|_| OnceLock::new()).collect(),
        token_hops: (0..TOKENS).map(|_| AtomicU64::new(0)).collect(),
        hop_violations: AtomicU64::new(0),
        order_violations: AtomicU64::new(0),
        executed: AtomicU64::new(0),
        parked: AtomicU64::new(0),
        send_seq: (0..OBJS * NPROCS).map(|_| AtomicU64::new(0)).collect(),
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
    let shared = sh.clone();
    let cfg = PremaConfig {
        seed,
        ..PremaConfig::implicit(NPROCS)
    };
    let ranks = launch_with_transports::<Obj, RankEnd, _>(cfg, stack.transports, None, move |rt| {
        let rank = rt.rank();
        span::set_role(Role::App(rank));
        let sh2 = shared.clone();
        rt.on_message(H_HOP, move |ctx, obj, item| {
            let r = ctx.rank();
            let (token, hop, seq, sent) = decode(&item.payload);
            span::set_current_id(((token as u64) << 32 | hop as u64) + 1);
            span::span(Name::AppHandler, r, || {
                let start = span::now_ns();
                sh2.last_handler_start[r].store(start, Ordering::Relaxed);
                // Latency is a cross-rank figure: a hop to an object on the
                // sender's own rank never reaches the wire.
                if item.sender != r {
                    sh2.lat[r]
                        .lock()
                        .expect("lat lock")
                        .record(start.saturating_sub(sent));
                }
                if seq != obj.last_seq[item.sender] + 1 {
                    sh2.order_violations.fetch_add(1, Ordering::Relaxed);
                }
                obj.last_seq[item.sender] = obj.last_seq[item.sender].max(seq);
                if sh2.token_hops[token as usize].fetch_add(1, Ordering::Relaxed) != hop as u64 {
                    sh2.hop_violations.fetch_add(1, Ordering::Relaxed);
                }
                sh2.executed.fetch_add(1, Ordering::Relaxed);
                let next = hop + 1;
                if (next as u64) < sh2.hops {
                    let dst = sh2.dest(token, next);
                    let p = encode(token, next, sh2.next_seq(r, dst), span::now_ns());
                    ctx.message(sh2.ptr(dst), H_HOP, p);
                } else if sh2.parked.fetch_add(1, Ordering::SeqCst) + 1 == TOKENS as u64 {
                    sh2.done_ns.store(span::now_ns(), Ordering::SeqCst);
                }
                sh2.busy_ns[r].fetch_add(span::now_ns() - start, Ordering::Relaxed);
            })
        });
        // Setup: register this rank's objects, publish their pointers,
        // then inject this rank's tokens.
        for i in 0..OBJS_PER_RANK {
            let ptr = rt::register(
                &rt,
                Obj {
                    last_seq: [0; NPROCS],
                },
            );
            let _ = shared.ptrs[rank * OBJS_PER_RANK + i].set(ptr);
        }
        barrier.wait();
        for t in rank * TOKENS_PER_RANK..(rank + 1) * TOKENS_PER_RANK {
            let dst = shared.dest(t as u32, 0);
            let p = encode(t as u32, 0, shared.next_seq(rank, dst), span::now_ns());
            rt::message(&rt, shared.ptr(dst), H_HOP, 1.0, p);
        }
        barrier.wait();
        let start = span::now_ns();
        shared.setup_end.fetch_max(start, Ordering::SeqCst);

        let mut rng = mix(shared.seed ^ 0xC4A7 ^ rank as u64);
        let (mut ran, mut tried, mut moved) = (0u64, 0u64, 0u64);
        let mut gaps = Vec::new();
        let mut idle_since = None;
        while shared.parked.load(Ordering::SeqCst) < TOKENS as u64
            && span::now_ns() < shared.deadline_ns
        {
            if rt::step(&rt) {
                if let Some(t) = idle_since.take() {
                    let began = shared.last_handler_start[rank].load(Ordering::Relaxed);
                    gaps.push(began.saturating_sub(t));
                }
                ran += 1;
                if ran % MIGRATE_EVERY == 0 {
                    rng = mix(rng);
                    let obj = (rng % OBJS as u64) as usize;
                    tried += 1;
                    moved += u64::from(rt::migrate(&rt, shared.ptr(obj), 1 - rank));
                }
            } else {
                idle_since.get_or_insert_with(span::now_ns);
                rt::poll(&rt);
                rt::idle_wait(rank);
            }
        }
        let mut end = RankEnd::collect(&rt, start, gaps);
        end.migrate_tried = tried;
        end.migrate_ok = moved;
        end
    });
    span::set_enabled(false);

    let expected = hops * TOKENS as u64;
    let executed = sh.executed.load(Ordering::SeqCst);
    let short: u64 = sh
        .token_hops
        .iter()
        .map(|h| hops.abs_diff(h.load(Ordering::SeqCst)))
        .sum();
    let dup = sh.hop_violations.load(Ordering::SeqCst);
    if short + dup > 0 {
        out.fail(
            short.max(dup),
            format!(
                "hops not run exactly once: {executed} of {expected} executed, {dup} out of turn"
            ),
        );
    }
    let order = sh.order_violations.load(Ordering::SeqCst);
    if order > 0 {
        out.fail(order, "per-(sender, object) order violations");
    }
    let setup_end = sh.setup_end.load(Ordering::SeqCst);
    let done = sh.done_ns.load(Ordering::SeqCst);
    let mut lat = LatHist::default();
    for l in &sh.lat {
        lat.merge(&l.lock().expect("lat lock"));
    }
    out.attempted += expected;
    RoundResult {
        setup_ns: setup_end - t0,
        makespan_ns: (done > 0).then(|| done - setup_end),
        busy_ns: sh.busy_ns.iter().map(|b| b.load(Ordering::SeqCst)).sum(),
        executed,
        ranks,
        lat,
        probes: stack.probes,
    }
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let mut warm = Budget::new(WARMUP_SECONDS);
    while warm.another() {
        round(mix(seed ^ 0x3A7), MEASURED_HOPS, false, &mut out);
    }
    let mut budget = Budget::new(seconds);
    let mut i = 0u64;
    if !trace {
        let (mut setup, mut makespan, mut eff, mut rate) = (vec![], vec![], vec![], vec![]);
        let (mut gaps, mut p50, mut p99) = (vec![], vec![], vec![]);
        let (mut samples, mut gap_samples) = (0, 0);
        while budget.another() {
            let mut r = round(iter_seed(seed, i), MEASURED_HOPS, false, &mut out);
            i += 1;
            setup.push(r.setup_ns as f64 / 1e9);
            if let Some(m) = r.makespan_ns {
                let m = m as f64 / 1e9;
                makespan.push(m);
                eff.push(ratio(r.busy_ns as f64 / 1e9, NPROCS as f64 * m));
                rate.push(r.executed as f64 / m);
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
            "samples: n={} rounds of {} hops (every metric is the median over rounds of that round's value); lb_reaction over n={gap_samples} idle gaps; msg_latency over n={samples} hops",
            setup.len(),
            MEASURED_HOPS * TOKENS as u64,
        ));
        return out;
    }
    let (mut plain, mut traced) = (vec![], vec![]);
    let mut runs = Vec::new();
    let mut fold = rt::SpanFold::default();
    while budget.another() {
        let s = iter_seed(seed, i);
        i += 1;
        // An untraced twin runs the same inputs for the overhead.
        let b = round(s, TRACED_HOPS, false, &mut out);
        let a = round(s, TRACED_HOPS, true, &mut out);
        fold.take();
        if a.executed != b.executed {
            out.fail(
                1,
                "traced and untraced rounds executed different hop counts",
            );
        }
        if let (Some(x), Some(y)) = (b.makespan_ns, a.makespan_ns) {
            plain.push(x as f64);
            traced.push(y as f64);
        }
        if let Some(probes) = a.probes {
            runs.push(TracedRun {
                msgs: a.executed,
                ranks: a.ranks,
                probes,
            });
        }
    }
    let overhead = ratio(median(&traced), median(&plain)) - 1.0;
    rt::report_layers(&mut out, &runs, &fold, overhead);
    out.note(format!(
        "trace: {} traced rounds of {} hops; overhead from median round makespan {:.4} s traced vs {:.4} s untraced",
        runs.len(),
        TRACED_HOPS * TOKENS as u64,
        median(&traced) / 1e9,
        median(&plain) / 1e9
    ));
    crate::spans_out::write("chatter-ring", &fold.kept, &mut out);
    out
}
