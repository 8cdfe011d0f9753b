//! A timing [`Transport`] decorator: forwards every trait method to the
//! wrapped transport, records a span around each call, and counts what
//! crosses it. Stack it at the top of a rank's transport (what the
//! communicator calls).

use crate::span::{self, Name};
use prema_dcs::{Envelope, Rank, Transport};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Counts of traffic through one decorator (one rank, one stack depth).
#[derive(Default, Debug)]
pub struct WireCounts {
    /// Envelopes handed down: one per `send`, one per batched envelope.
    pub envelopes: AtomicU64,
    /// Transport-level sends: `send` calls plus `send_batch` calls.
    pub frames: AtomicU64,
    /// Wire bytes of the envelopes sent (`Envelope::wire_size`).
    pub bytes: AtomicU64,
    /// Non-blocking receive probes (`try_recv` + `try_recv_batch`).
    pub probes: AtomicU64,
    /// Probes that found nothing.
    pub empty_probes: AtomicU64,
    /// Envelopes received.
    pub received: AtomicU64,
    /// Nanoseconds spent inside `recv_timeout` (blocking waits).
    pub wait_ns: AtomicU64,
}

pub struct Timed<T: Transport> {
    inner: T,
    counts: Arc<WireCounts>,
}

impl<T: Transport> Timed<T> {
    pub fn new(inner: T) -> Self {
        Timed {
            inner,
            counts: Arc::new(WireCounts::default()),
        }
    }

    pub fn counts(&self) -> Arc<WireCounts> {
        self.counts.clone()
    }

    fn time<R>(&self, name: Name, f: impl FnOnce() -> R) -> R {
        span::span(name, self.inner.rank(), f)
    }

    fn count_sent(&self, env: &Envelope) {
        self.counts.envelopes.fetch_add(1, Ordering::Relaxed);
        self.counts
            .bytes
            .fetch_add(env.wire_size() as u64, Ordering::Relaxed);
    }

    fn count_probe(&self, got: usize) {
        self.counts.probes.fetch_add(1, Ordering::Relaxed);
        if got == 0 {
            self.counts.empty_probes.fetch_add(1, Ordering::Relaxed);
        }
        self.counts
            .received
            .fetch_add(got as u64, Ordering::Relaxed);
    }
}

impl<T: Transport> Transport for Timed<T> {
    fn rank(&self) -> Rank {
        self.inner.rank()
    }

    fn nprocs(&self) -> usize {
        self.inner.nprocs()
    }

    fn send(&self, env: Envelope) {
        self.count_sent(&env);
        self.counts.frames.fetch_add(1, Ordering::Relaxed);
        self.time(Name::DcsSend, || self.inner.send(env));
    }

    fn try_recv(&self) -> Option<Envelope> {
        let got = self.time(Name::DcsTryRecv, || self.inner.try_recv());
        self.count_probe(usize::from(got.is_some()));
        got
    }

    fn recv_timeout(&self, timeout: Duration) -> Option<Envelope> {
        let t0 = span::now_ns();
        let got = self.time(Name::DcsRecvTimeout, || self.inner.recv_timeout(timeout));
        self.counts
            .wait_ns
            .fetch_add(span::now_ns() - t0, Ordering::Relaxed);
        if got.is_some() {
            self.counts.received.fetch_add(1, Ordering::Relaxed);
        }
        got
    }

    fn send_batch(&self, dst: Rank, msgs: Vec<Envelope>) {
        msgs.iter().for_each(|e| self.count_sent(e));
        if !msgs.is_empty() {
            self.counts.frames.fetch_add(1, Ordering::Relaxed);
        }
        self.time(Name::DcsSendBatch, || self.inner.send_batch(dst, msgs));
    }

    fn try_recv_batch(&self, out: &mut VecDeque<Envelope>) -> usize {
        let got = self.time(Name::DcsTryRecvBatch, || self.inner.try_recv_batch(out));
        self.count_probe(got);
        got
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use prema_dcs::{HandlerId, LocalFabric, Tag};

    fn env(src: Rank, dst: Rank, n: u32) -> Envelope {
        Envelope {
            src,
            dst,
            handler: HandlerId(n),
            tag: if n.is_multiple_of(2) {
                Tag::App
            } else {
                Tag::System
            },
            payload: Bytes::from(n.to_le_bytes().to_vec()),
        }
    }

    /// Drive one traffic pattern through every `Transport` method and
    /// return what the receiver got, in order.
    fn exchange(a: &dyn Transport, b: &dyn Transport) -> Vec<(Rank, u32, Tag, Vec<u8>)> {
        a.send(env(0, 1, 1));
        a.send_batch(1, (2..6).map(|n| env(0, 1, n)).collect());
        a.send_batch(1, vec![env(0, 1, 6)]);
        a.send_batch(1, Vec::new());
        a.send(env(0, 1, 7));
        let mut got = Vec::new();
        let mut q = VecDeque::new();
        got.extend(b.try_recv());
        b.try_recv_batch(&mut q);
        got.extend(q.drain(..));
        got.extend(b.recv_timeout(Duration::from_millis(100)));
        while b.try_recv_batch(&mut q) > 0 {}
        got.extend(q.drain(..));
        assert!(b.try_recv().is_none());
        assert!(b.recv_timeout(Duration::from_millis(1)).is_none());
        got.into_iter()
            .map(|e| (e.src, e.handler.0, e.tag, e.payload.to_vec()))
            .collect()
    }

    #[test]
    fn decorator_delivers_what_the_bare_endpoint_delivers() {
        let bare = LocalFabric::new(2);
        let want = exchange(&bare[0], &bare[1]);
        let handlers: Vec<u32> = want.iter().map(|w| w.1).collect();
        assert_eq!(handlers, (1..=7).collect::<Vec<_>>());

        for tracing in [false, true] {
            span::set_enabled(tracing);
            let mut eps = LocalFabric::new(2).into_iter();
            let a = Timed::new(eps.next().unwrap());
            let b = Timed::new(eps.next().unwrap());
            assert_eq!((a.rank(), a.nprocs()), (0, 2));
            let got = exchange(&a, &b);
            span::set_enabled(false);
            assert_eq!(got, want, "tracing={tracing}");
            let (ca, cb) = (a.counts(), b.counts());
            let n = |c: &AtomicU64| c.load(Ordering::Relaxed);
            assert_eq!(n(&ca.envelopes), 7);
            assert_eq!(n(&ca.frames), 4, "send, batch of 4, batch of 1, send");
            assert_eq!(n(&cb.received), 7);
        }
        let (threads, dropped) = span::drain();
        assert_eq!(dropped, 0);
        assert!(threads.iter().any(|t| !t.spans.is_empty()));
    }
}
