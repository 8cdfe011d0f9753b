//! Control-traffic gate for the load balancer (DESIGN.md §14): on a chatter
//! workload — tokens hopping among objects with the default weight hint,
//! nothing to balance — `LB_STATUS` traffic must scale with the decisions a
//! status can change, not with every change of queue length; and the
//! balancer evaluates once per polling operation, never at unit finish.
//!
//! Everything is driven in lockstep on one thread over the in-process
//! fabric, so every count below is deterministic.

use bytes::Bytes;
use prema_dcs::{Communicator, LocalFabric, WireReader, WireWriter};
use prema_ilb::{Scheduler, StabilityConfig, WorkStealing};
use prema_mol::{Migratable, MobilePtr, MolNode};
use std::sync::Arc;

const H_HOP: u32 = 1;
const OBJECTS_PER_RANK: usize = 16;
const TOKENS_PER_RANK: u32 = 4;
const HOPS: u32 = 500;
const SEED: u64 = 0x5eed_7a11;

/// A token stop: remembers every `(token, hop)` it executed.
#[derive(Debug, Default)]
struct Stop {
    seen: Vec<u64>,
}

impl Migratable for Stop {
    fn pack(&self, buf: &mut Vec<u8>) {
        for v in &self.seen {
            buf.extend_from_slice(&v.to_le_bytes());
        }
    }
    fn unpack(b: &[u8]) -> Self {
        Stop {
            seen: b
                .chunks_exact(8)
                .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
                .collect(),
        }
    }
}

fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn hop(token: u32, hop: u32, rng: u64) -> Bytes {
    WireWriter::new().u32(token).u32(hop).u64(rng).finish()
}

/// Two work-stealing ranks (water-mark 1.0) over the in-process fabric.
fn pair(stability: StabilityConfig) -> Vec<Scheduler<Stop>> {
    LocalFabric::new(2)
        .into_iter()
        .enumerate()
        .map(|(r, ep)| {
            let node = MolNode::new(Communicator::new(Box::new(ep)));
            let mut s = Scheduler::new(node, Box::new(WorkStealing::new(1.0, r as u64)));
            s.set_stability(stability);
            s
        })
        .collect()
}

/// Two ranks, 16 stops each, 4 tokens per rank, each token forwarded with
/// `message` (hint 1.0) to a seed-chosen stop `HOPS` times in all.
fn chatter_machine(stability: StabilityConfig) -> (Vec<Scheduler<Stop>>, Vec<MobilePtr>) {
    let mut scheds = pair(stability);
    let ptrs: Vec<MobilePtr> = scheds
        .iter_mut()
        .flat_map(|s| {
            (0..OBJECTS_PER_RANK)
                .map(|_| s.node_mut().register(Stop::default()))
                .collect::<Vec<_>>()
        })
        .collect();
    let route = Arc::new(ptrs.clone());
    for s in scheds.iter_mut() {
        let route = route.clone();
        s.on_message(H_HOP, move |ctx, stop: &mut Stop, item| {
            let mut r = WireReader::new(item.payload.clone());
            let (token, n, rng) = (r.u32(), r.u32(), r.u64());
            stop.seen.push(u64::from(token) << 32 | u64::from(n));
            if n + 1 < HOPS {
                let rng = splitmix(rng);
                let next = route[(rng % route.len() as u64) as usize];
                ctx.message(next, H_HOP, hop(token, n + 1, rng));
            }
        });
    }
    for (r, s) in scheds.iter_mut().enumerate() {
        for t in 0..TOKENS_PER_RANK {
            let token = r as u32 * TOKENS_PER_RANK + t;
            let start = ptrs[r * OBJECTS_PER_RANK + t as usize];
            let rng = splitmix(SEED ^ u64::from(token));
            s.node_mut().message(start, H_HOP, hop(token, 0, rng));
        }
    }
    (scheds, ptrs)
}

/// `poll()` + `step()` per rank per round until four rounds in a row
/// execute nothing; returns units executed per rank.
fn drain(scheds: &mut [Scheduler<Stop>]) -> Vec<u64> {
    let mut executed = vec![0u64; scheds.len()];
    let mut quiet_rounds = 0;
    while quiet_rounds < 4 {
        let mut progress = false;
        for (r, s) in scheds.iter_mut().enumerate() {
            s.poll();
            if s.step() {
                executed[r] += 1;
                progress = true;
            }
        }
        quiet_rounds = if progress { 0 } else { quiet_rounds + 1 };
    }
    executed
}

/// Run the chatter workload; asserts every hop ran exactly once and returns
/// `(units executed, statuses sent)` summed over ranks.
fn run_chatter(stability: StabilityConfig) -> (u64, u64) {
    let (mut scheds, ptrs) = chatter_machine(stability);
    let executed: u64 = drain(&mut scheds).iter().sum();
    let total_tokens = 2 * TOKENS_PER_RANK;
    assert_eq!(executed, u64::from(total_tokens * HOPS));
    let mut seen: Vec<u64> = ptrs
        .iter()
        .map(|&p| {
            scheds
                .iter()
                .find_map(|s| s.node().get(p))
                .expect("every stop is resident somewhere after quiescence")
        })
        .flat_map(|stop| stop.seen.iter().copied())
        .collect();
    seen.sort_unstable();
    let want: Vec<u64> = (0..total_tokens)
        .flat_map(|t| (0..HOPS).map(move |n| u64::from(t) << 32 | u64::from(n)))
        .collect();
    assert_eq!(seen, want, "a hop was lost or ran twice");
    let status: u64 = scheds.iter().map(|s| s.stats().status_sent).sum();
    (executed, status)
}

#[test]
fn default_band_keeps_status_traffic_below_a_quarter_per_unit() {
    // Measured: 4000 units, 660 statuses (330 per rank). Publishing on
    // every change, with a second evaluation at each unit finish, sent 4100.
    let (executed, status) = run_chatter(StabilityConfig::default());
    assert!(
        status <= executed / 4,
        "{status} statuses for {executed} units: status traffic tracks queue churn"
    );
}

#[test]
fn stability_off_publishes_every_change() {
    // Measured: 4000 units, 2167 statuses (4111 when unit finishes also
    // evaluated the balancer).
    let (executed, status) = run_chatter(StabilityConfig::off());
    assert!(
        status >= executed / 2,
        "{status} statuses for {executed} units: off() must publish every change"
    );
}

#[test]
fn balancer_evaluates_at_the_poll_not_at_unit_finish() {
    // Rank 1 holds one unit of weight 2.0: above the water-mark while it is
    // queued or executing, empty once it finishes. The finish must not beg;
    // the next polling operation begs exactly once.
    let mut scheds = pair(StabilityConfig::default());
    scheds[1].on_message(H_HOP, |_ctx, _stop: &mut Stop, _item| {});
    let ptr = scheds[1].node_mut().register(Stop::default());
    scheds[1]
        .node_mut()
        .message_with_hint(ptr, H_HOP, 2.0, Bytes::new());
    scheds[1].poll();
    assert_eq!(scheds[1].stats().requests_sent, 0, "begged while loaded");
    let mut exec = scheds[1].begin().expect("work queued");
    exec.run();
    scheds[1].finish(exec);
    assert!(scheds[1].is_idle());
    assert_eq!(
        scheds[1].stats().requests_sent,
        0,
        "finish() evaluated the balancer"
    );
    scheds[1].poll();
    assert_eq!(scheds[1].stats().requests_sent, 1);
    scheds[1].poll();
    assert_eq!(
        scheds[1].stats().requests_sent,
        1,
        "a second request while one is outstanding"
    );
}
