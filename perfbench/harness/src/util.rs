//! Shared helpers: the seeded generator, order statistics, process
//! accounting and the report parser every workload checks verdicts with.

use rela::net::content_hash128;
use std::collections::BTreeSet;
use std::io::{self, Read};
use std::path::Path;
use std::process::Child;

/// SplitMix64, seeded from `--seed`: the benchmark's only randomness.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x005e_ed0f_be4c_4a11)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let logs: f64 = values.iter().map(|v| v.max(f64::MIN_POSITIVE).ln()).sum();
    (logs / values.len() as f64).exp()
}

/// 32 lowercase hex digits of the workspace's 128-bit content hash.
pub fn hex128(bytes: &[u8]) -> String {
    format!("{:032x}", content_hash128(bytes))
}

/// Peak resident set (`VmHWM`) of `pid`, or of this process, in bytes.
pub fn vm_hwm(pid: Option<u32>) -> Option<u64> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_owned(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024)
}

#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// Reap `child` with `wait4`, returning its exit code (negated signal
/// number when killed) and its peak resident set in bytes. The child
/// must not be waited on through `std` afterwards.
pub fn wait_with_rusage(child: &Child) -> io::Result<(i32, u64)> {
    let mut status = 0i32;
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: `status` and `usage` are valid for writes, and
        // `Rusage` matches the kernel's `struct rusage` on 64-bit Linux.
        let rc = unsafe { wait4(child.id() as i32, &mut status, 0, &mut usage) };
        if rc >= 0 {
            break;
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    let code = if status & 0x7f == 0 {
        (status >> 8) & 0xff
    } else {
        -(status & 0x7f)
    };
    Ok((code, usage.maxrss.max(0) as u64 * 1024))
}

/// Total size of the regular files under `dir`, in bytes.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(_) => e.metadata().map(|m| m.len()).unwrap_or(0),
            Err(_) => 0,
        })
        .sum()
}

pub fn read_file(path: &Path) -> Vec<u8> {
    let mut out = Vec::new();
    std::fs::File::open(path)
        .and_then(|mut f| f.read_to_end(&mut out))
        .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    out
}

/// What a check report says: how many flows violate, and which.
#[derive(Debug, PartialEq, Eq)]
pub struct Verdict {
    pub violating: usize,
    pub flows: BTreeSet<String>,
}

/// Parse the violating-flow set out of a report's text (the `rela
/// check` stdout and the daemon's REPORT body print the same table).
pub fn parse_report(text: &str) -> Option<Verdict> {
    let head = text.lines().next()?;
    let violating = head
        .strip_suffix(" violating")?
        .rsplit(' ')
        .next()?
        .parse()
        .ok()?;
    let flows = text
        .lines()
        .filter(|l| l.starts_with('('))
        .filter_map(|l| l.split(" | ").next())
        .map(|fec| fec.trim_end().to_owned())
        .collect();
    Some(Verdict { violating, flows })
}

/// A reference violating-flow set as committed to a corpus file (one
/// flow per line).
pub fn read_reference(path: &Path) -> BTreeSet<String> {
    String::from_utf8(read_file(path))
        .expect("reference is UTF-8")
        .lines()
        .filter(|l| !l.is_empty())
        .map(str::to_owned)
        .collect()
}

/// The violating flows of an in-process report, as the report table
/// prints them.
pub fn report_flows(report: &rela::lang::CheckReport) -> BTreeSet<String> {
    report
        .violations
        .iter()
        .map(|v| v.flow.to_string())
        .collect()
}

/// Whether a parsed report matches the expected flow set.
pub fn verdict_matches(verdict: Option<&Verdict>, expected: &BTreeSet<String>) -> bool {
    verdict.is_some_and(|v| v.violating == expected.len() && &v.flows == expected)
}

/// The expected set with one flow removed (or a fake one added): a
/// planted wrong reference that every correct run must reject.
pub fn planted(expected: &BTreeSet<String>) -> BTreeSet<String> {
    let mut wrong = expected.clone();
    match expected.iter().next() {
        Some(first) => {
            wrong.remove(&first.clone());
        }
        None => {
            wrong.insert("(0.0.0.0/32, ingress=planted)".to_owned());
        }
    }
    wrong
}

extern "C" {
    fn malloc_trim(pad: usize) -> i32;
}

/// Return freed heap to the system and restart this process's peak
/// resident set (`VmHWM`) from its current size, so the next peak read
/// covers only what runs in between.
pub fn reset_peak_rss() {
    // SAFETY: glibc's malloc_trim only releases free memory.
    unsafe {
        malloc_trim(0);
    }
    std::fs::write("/proc/self/clear_refs", "5").ok();
}
