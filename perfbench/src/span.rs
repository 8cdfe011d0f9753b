//! In-memory span recorder for the traced run.
//!
//! A span is a named interval on one thread with a parent (the span open on
//! the same thread when it started) and an id shared by every span of one
//! unit of work (a token hop or a work unit). Spans are kept in per-thread
//! buffers and read back once the run is over; nothing is recorded while
//! tracing is off, so untraced runs pay one relaxed load per call site.
//!
//! The recorder wraps calls *into* the program from the benchmark's own code
//! (runtime calls, handler bodies, transport calls, simulator drivers); it
//! never instruments the program's internals.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Every span name the benchmark records, grouped by the layer it times.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum Name {
    CoreRegister,
    CoreMessage,
    CoreStep,
    CorePoll,
    CoreMigrate,
    AppHandler,
    AppIdle,
    DcsSend,
    DcsSendBatch,
    DcsTryRecv,
    DcsTryRecvBatch,
    DcsRecvTimeout,
    HarnessNolb,
    HarnessPremaExplicit,
    HarnessPremaImplicit,
    HarnessParmetis,
    HarnessCharmNosync,
    HarnessCharmSync4,
    HarnessMeshStudy,
    MeshMesher,
    MeshRunNolb,
    MeshRunStopRepart,
    MeshRunPrema,
}

impl Name {
    pub fn label(self) -> &'static str {
        match self {
            Name::CoreRegister => "core.register",
            Name::CoreMessage => "core.message",
            Name::CoreStep => "core.step",
            Name::CorePoll => "core.poll",
            Name::CoreMigrate => "core.migrate",
            Name::AppHandler => "app.handler",
            Name::AppIdle => "app.idle",
            Name::DcsSend => "dcs.send",
            Name::DcsSendBatch => "dcs.send_batch",
            Name::DcsTryRecv => "dcs.try_recv",
            Name::DcsTryRecvBatch => "dcs.try_recv_batch",
            Name::DcsRecvTimeout => "dcs.recv_timeout",
            Name::HarnessNolb => "harness.nolb",
            Name::HarnessPremaExplicit => "harness.prema_explicit",
            Name::HarnessPremaImplicit => "harness.prema_implicit",
            Name::HarnessParmetis => "harness.parmetis",
            Name::HarnessCharmNosync => "harness.charm_nosync",
            Name::HarnessCharmSync4 => "harness.charm_sync4",
            Name::HarnessMeshStudy => "harness.mesh_study",
            Name::MeshMesher => "mesh.mesher",
            Name::MeshRunNolb => "mesh.run_nolb",
            Name::MeshRunStopRepart => "mesh.run_stop_repartition",
            Name::MeshRunPrema => "mesh.run_prema",
        }
    }

    /// The layer whose self time this span counts toward.
    pub fn layer(self) -> Layer {
        match self {
            Name::CoreRegister
            | Name::CoreMessage
            | Name::CoreStep
            | Name::CorePoll
            | Name::CoreMigrate => Layer::Core,
            Name::AppHandler => Layer::App,
            Name::AppIdle => Layer::Idle,
            Name::DcsSend
            | Name::DcsSendBatch
            | Name::DcsTryRecv
            | Name::DcsTryRecvBatch
            | Name::DcsRecvTimeout => Layer::Dcs,
            _ => Layer::Sim,
        }
    }
}

/// Coarse layer of a span, for the per-rank time accounting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    Core,
    App,
    Idle,
    Dcs,
    Sim,
}

/// One recorded span. `parent` is the index of the enclosing span in the
/// same thread's buffer, or `u32::MAX` for a root span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub start: u64,
    pub end: u64,
    pub id: u64,
    pub parent: u32,
    pub name: Name,
    /// Rank the span belongs to (the transport's rank for `dcs.*` spans).
    pub rank: u8,
}

pub const NO_PARENT: u32 = u32::MAX;

/// What a thread does in the run, for telling app-thread transport calls
/// from poller-thread ones.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// A rank's application thread (the one calling `Runtime` methods).
    App(usize),
    /// Any other thread: the runtime's implicit pollers, the main thread.
    Other,
}

/// The spans one thread recorded.
pub struct ThreadSpans {
    pub role: Role,
    pub spans: Vec<Span>,
    /// Slots this thread has reserved against [`MAX_SPANS`] but not used.
    budget: usize,
    /// Spans not recorded because the cap was reached.
    dropped: u64,
}

struct Recorder {
    epoch: Instant,
    threads: Mutex<Vec<Arc<Mutex<ThreadSpans>>>>,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
/// Span slots reserved since the last drain, against [`MAX_SPANS`]. Threads
/// reserve in chunks so recording does not contend on one counter.
static RESERVED: AtomicUsize = AtomicUsize::new(0);
const CHUNK: usize = 1024;
/// Cap on spans buffered between drains (32 bytes each), so memory stays
/// bounded however fast the idle loops spin. Spans past it are counted as
/// dropped.
pub const MAX_SPANS: usize = 2_000_000;

fn recorder() -> &'static Recorder {
    static R: OnceLock<Recorder> = OnceLock::new();
    R.get_or_init(|| Recorder {
        epoch: Instant::now(),
        threads: Mutex::new(Vec::new()),
    })
}

thread_local! {
    static LOCAL: RefCell<Option<Arc<Mutex<ThreadSpans>>>> = const { RefCell::new(None) };
    static STACK: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
    static ROLE: Cell<Role> = const { Cell::new(Role::Other) };
    static CURRENT_ID: Cell<u64> = const { Cell::new(0) };
}

/// Nanoseconds since the benchmark's clock epoch. This clock also stamps
/// message payloads, so send and receive times are comparable across ranks.
pub fn now_ns() -> u64 {
    recorder().epoch.elapsed().as_nanos() as u64
}

pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Declare the calling thread's role (before it records anything).
pub fn set_role(role: Role) {
    ROLE.with(|r| r.set(role));
}

fn role() -> Role {
    ROLE.with(|r| r.get())
}

/// Set the id later spans on this thread carry (0 = none).
pub fn set_current_id(id: u64) {
    CURRENT_ID.with(|c| c.set(id));
}

/// Run `f` on the calling thread's span buffer, registering the buffer
/// (with the thread's current role) on first use.
fn with_buffer<R>(f: impl FnOnce(&mut ThreadSpans) -> R) -> R {
    LOCAL.with(|l| {
        let mut slot = l.borrow_mut();
        let buf = slot.get_or_insert_with(|| {
            let buf = Arc::new(Mutex::new(ThreadSpans {
                role: role(),
                spans: Vec::new(),
                budget: 0,
                dropped: 0,
            }));
            recorder()
                .threads
                .lock()
                .expect("span registry poisoned")
                .push(buf.clone());
            buf
        });
        let r = f(&mut buf.lock().expect("span buffer poisoned"));
        r
    })
}

fn open(name: Name, rank: usize) -> Option<u32> {
    let parent = STACK.with(|s| s.borrow().last().copied().unwrap_or(NO_PARENT));
    let id = CURRENT_ID.with(|c| c.get());
    let idx = with_buffer(|b| {
        if b.budget == 0 {
            if RESERVED.fetch_add(CHUNK, Ordering::Relaxed) + CHUNK > MAX_SPANS {
                b.dropped += 1;
                return None;
            }
            b.budget = CHUNK;
        }
        b.budget -= 1;
        b.spans.push(Span {
            start: now_ns(),
            end: 0,
            id,
            parent,
            name,
            rank: rank as u8,
        });
        Some((b.spans.len() - 1) as u32)
    })?;
    STACK.with(|s| s.borrow_mut().push(idx));
    Some(idx)
}

fn close(idx: u32) {
    let end = now_ns();
    let id = CURRENT_ID.with(|c| c.get());
    STACK.with(|s| s.borrow_mut().pop());
    with_buffer(|b| {
        let span = &mut b.spans[idx as usize];
        span.end = end;
        // A span that opened before its unit of work was known (a step that
        // went on to run a handler) takes the id that was current at its end.
        if span.id == 0 {
            span.id = id;
        }
    });
}

/// Run `f` inside a span when tracing is on.
pub fn span<R>(name: Name, rank: usize, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let Some(idx) = open(name, rank) else {
        return f();
    };
    let r = f();
    close(idx);
    r
}

/// Take every buffered span out of the recorder (buffers stay registered
/// for threads that are still alive) and return them with the number of
/// spans dropped at the cap since the last drain.
pub fn drain() -> (Vec<ThreadSpans>, u64) {
    let mut threads = recorder().threads.lock().expect("span registry poisoned");
    let mut dropped = 0;
    let out = threads
        .iter()
        .map(|t| {
            let mut t = t.lock().expect("span buffer poisoned");
            dropped += std::mem::take(&mut t.dropped);
            t.budget = 0;
            ThreadSpans {
                role: t.role,
                spans: std::mem::take(&mut t.spans),
                budget: 0,
                dropped: 0,
            }
        })
        .filter(|t| !t.spans.is_empty())
        .collect();
    // A buffer only the registry still holds belongs to a thread that has
    // exited.
    threads.retain(|t| Arc::strong_count(t) > 1);
    RESERVED.store(0, Ordering::SeqCst);
    (out, dropped)
}

/// Self time of every span: its duration minus the time its direct
/// children cover (children of one span never overlap: they nest on one
/// thread's call stack).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            child[s.parent as usize] += s.end.saturating_sub(s.start);
        }
    }
    spans
        .iter()
        .zip(&child)
        .map(|(s, c)| s.end.saturating_sub(s.start).saturating_sub(*c))
        .collect()
}
