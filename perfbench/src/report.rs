//! Result assembly: summary statistics, the metric list, and the one-line
//! JSON result the benchmark ends with.

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted: work units, token hops, or simulator checks.
    pub attempted: u64,
    /// Operations that did not run exactly once, ran out of order, failed
    /// a check, or missed the run's deadline.
    pub failed: u64,
    /// Human-readable notes printed ahead of the result line (sample
    /// counts, ratio bases, per-rank accounting, failure details).
    pub notes: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Record `n` failed operations with the reason.
    pub fn fail(&mut self, n: u64, why: impl Into<String>) {
        if n > 0 {
            self.failed += n;
            self.notes.push(format!("FAILED ({n}): {}", why.into()));
        }
    }

    /// The result line: `correct`, `attempted`, `failed` and every metric.
    /// A non-finite value is written as 0 rather than as invalid JSON.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(v),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite f64 as a JSON number with every digit Rust's shortest
/// round-trip formatting gives it.
fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') {
        s
    } else {
        format!("{s}.0")
    }
}

/// The `q`-quantile (0..=1) of `values` by linear interpolation between
/// closest ranks; 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Paces a run's iterations: the first always runs, and another starts
/// only while it should end within the requested time (judged by the
/// iterations so far), so every run measures about the same span.
pub struct Budget {
    begin: std::time::Instant,
    seconds: f64,
    done: u32,
}

impl Budget {
    pub fn new(seconds: f64) -> Self {
        Budget {
            begin: std::time::Instant::now(),
            seconds,
            done: 0,
        }
    }

    /// Whether to start another iteration; counts the one it admits.
    pub fn another(&mut self) -> bool {
        let elapsed = self.begin.elapsed().as_secs_f64();
        let per_iter = if self.done == 0 {
            0.0
        } else {
            elapsed / self.done as f64
        };
        let go = self.done == 0 || elapsed + per_iter / 2.0 < self.seconds;
        if go {
            self.done += 1;
        }
        go
    }
}

/// `num / den`, or 0 when the base is empty.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set size of this process in MB (`getrusage` high-water
/// mark).
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
pub fn peak_rss_mb() -> f64 {
    // struct rusage is 18 longs on x86-64 Linux; ru_maxrss (KiB) is the
    // fifth, after the two timevals.
    let mut usage = [0i64; 18];
    let ret: i64;
    // SAFETY: getrusage(RUSAGE_SELF, ptr) writes exactly one struct rusage
    // (144 bytes) to `ptr`, which points at a live 144-byte buffer. rcx and
    // r11 are clobbered by the syscall instruction itself.
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") 98i64 => ret, // __NR_getrusage
            in("rdi") 0i64,                // RUSAGE_SELF
            in("rsi") usage.as_mut_ptr(),
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    if ret != 0 {
        return 0.0;
    }
    usage[4] as f64 / 1024.0
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
pub fn peak_rss_mb() -> f64 {
    0.0
}

/// The seed of a run's `i`-th iteration. Mixing the run seed first keeps
/// the iteration seeds of different run seeds apart (with `seed ^ i`, runs
/// seeded 32 and 33 would share theirs).
pub fn iter_seed(seed: u64, i: u64) -> u64 {
    mix(mix(seed) ^ i)
}

/// Deterministic 64-bit mixer (splitmix64 finalizer) for deriving every
/// generated input from the workload seed.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}
