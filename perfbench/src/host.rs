//! Process and host facts: a counting allocator, peak RSS, the noise
//! probes and the host description printed with every run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use serde::Value;

/// Counts every heap allocation of the benchmark process, worker threads
/// included — `sim.serve.allocs_per_cycle` is a delta of this counter.
pub struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method delegates to the system allocator unchanged; the
// only addition is a relaxed atomic increment with no other side effects.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded under the caller's layout contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with the same layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded under the caller's layout contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocations since process start.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Peak resident set (`VmHWM`) of process `pid` in MiB, or of this
/// process for `None`.
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_owned(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// A fixed integer loop: stays within a few percent on a quiet host, so
/// a slow run with a normal ALU probe points at memory, not the CPU.
fn alu_probe_ms() -> f64 {
    let start = Instant::now();
    let mut x = black_box(0x9E37_79B9_7F4A_7C15_u64);
    for _ in 0..40_000_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x);
    crate::stats::ms_since(start)
}

/// Eight read-modify-write passes over a 32 MiB buffer: tracks the
/// memory bandwidth the MCKP table and the barrier encode depend on.
fn memory_probe_ms() -> f64 {
    let mut buffer = vec![1u64; 4 << 20];
    let start = Instant::now();
    for pass in 0..8u64 {
        for word in &mut buffer {
            *word = word.wrapping_mul(3).wrapping_add(pass);
        }
        black_box(&buffer);
    }
    crate::stats::ms_since(start)
}

/// Flag that makes the benchmark binary run the probes and exit.
pub const PROBE_FLAG: &str = "--probe";

/// Prints the ALU and memory probe times, in ms, on one line.
pub fn print_probes() {
    println!("{} {}", alu_probe_ms(), memory_probe_ms());
}

/// Runs the probes in a child process of this binary, so the probe's
/// 32 MiB buffer never counts towards the benchmark's own peak RSS.
/// Returns `(alu_ms, memory_ms)`, or NaN for a probe that did not run.
pub fn probes() -> (f64, f64) {
    let output = std::env::current_exe()
        .and_then(|exe| std::process::Command::new(exe).arg(PROBE_FLAG).output());
    let text = output
        .ok()
        .and_then(|output| String::from_utf8(output.stdout).ok())
        .unwrap_or_default();
    let mut times = text
        .split_whitespace()
        .map(|time| time.parse().unwrap_or(f64::NAN));
    (
        times.next().unwrap_or(f64::NAN),
        times.next().unwrap_or(f64::NAN),
    )
}

/// `nproc`, CPU model and build profile, as diagnostics fields.
pub fn description() -> Vec<(String, Value)> {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|line| line.starts_with("model name"))
                .and_then(|line| line.split(':').nth(1))
                .map(|model| model.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    vec![
        ("nproc".to_owned(), Value::UInt(nproc as u64)),
        ("cpu_model".to_owned(), Value::Str(model)),
        ("profile".to_owned(), Value::Str(profile.to_owned())),
    ]
}
