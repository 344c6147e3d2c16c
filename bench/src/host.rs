//! The machine the numbers were taken on: CPU pinning, process CPU time,
//! peak memory and the fingerprint written into every output file.
//!
//! Everything here reads `/proc` or calls libc directly; nothing in the
//! program under test is involved.

use std::process::Command;

/// `cpu_set_t` is 1024 bits on Linux.
const CPU_SET_WORDS: usize = 16;

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn sysconf(name: i32) -> i64;
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn mallopt(param: i32, value: i32) -> i32;
}

/// glibc's `M_ARENA_MAX`.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
const M_ARENA_MAX: i32 = -8;

/// Keep every thread on the allocator's main arena. With all threads on
/// one CPU there is nothing to contend for, and per-thread arenas make
/// `peak_rss_mb` depend on which thread happened to free what: each pass's
/// memory would be stranded in the arenas of threads that have exited.
/// Call before the first thread is spawned. Returns whether it took.
pub fn single_malloc_arena() -> bool {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        // SAFETY: mallopt takes two integers and no pointers.
        unsafe { mallopt(M_ARENA_MAX, 1) == 1 }
    }
    #[cfg(not(all(target_os = "linux", target_env = "gnu")))]
    {
        false
    }
}

/// `_SC_CLK_TCK` on Linux.
#[cfg(target_os = "linux")]
const SC_CLK_TCK: i32 = 2;

/// Pin the calling thread — and every thread it spawns afterwards — to the
/// lowest CPU of the affinity mask it inherited. Returns that CPU.
///
/// With the workers, servers and socket threads of a whole cluster in one
/// process, a cross-CPU wake-up costs more than the RPC being measured;
/// on one CPU the run measures the code (see `bench/README.md`).
#[cfg(target_os = "linux")]
pub fn pin_to_lowest_cpu() -> Result<usize, String> {
    let mut mask = [0u64; CPU_SET_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Err(format!("sched_getaffinity: {}", std::io::Error::last_os_error()));
    }
    let cpu = lowest_set_bit(&mask).ok_or("empty affinity mask")?;
    let mut one = [0u64; CPU_SET_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly the size passed.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    if rc != 0 {
        return Err(format!("sched_setaffinity: {}", std::io::Error::last_os_error()));
    }
    Ok(cpu)
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_lowest_cpu() -> Result<usize, String> {
    Err("CPU pinning is implemented for Linux only".into())
}

fn lowest_set_bit(mask: &[u64]) -> Option<usize> {
    mask.iter()
        .enumerate()
        .find(|(_, w)| **w != 0)
        .map(|(i, w)| i * 64 + w.trailing_zeros() as usize)
}

/// Clock ticks per second, the unit of `/proc/self/stat`'s CPU times.
fn ticks_per_second() -> f64 {
    #[cfg(target_os = "linux")]
    {
        // SAFETY: sysconf takes no pointers.
        let t = unsafe { sysconf(SC_CLK_TCK) };
        if t > 0 {
            return t as f64;
        }
    }
    100.0
}

/// User + system clock ticks from the text of `/proc/<pid>/stat`. The
/// command name (field 2) may itself contain spaces and parentheses, so
/// fields are counted from the *last* `)`: `utime` and `stime` are fields
/// 14 and 15 of the line, the 12th and 13th after the command.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Process CPU time (user + system, all threads) in microseconds.
pub fn process_cpu_us() -> u64 {
    let ticks = std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat_cpu_ticks(&s))
        .unwrap_or(0);
    (ticks as f64 * 1e6 / ticks_per_second()) as u64
}

/// A `kB` line of `/proc/<pid>/status` (e.g. `VmHWM`), in KiB.
pub fn parse_status_kib(status: &str, field: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse().ok())
}

/// Peak resident set size of this process so far, in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_status_kib(&s, "VmHWM"))
        .map_or(0.0, |kib| kib as f64 / 1024.0)
}

/// What every output file records about where it was produced.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    pub nproc: usize,
    pub cpu_model: String,
    pub kernel: String,
    pub rustc: String,
    pub git_sha: String,
    /// The CPU the run was pinned to, if pinning succeeded.
    pub pinned: Option<usize>,
}

impl Fingerprint {
    /// Collect the fingerprint. Call before pinning: afterwards the
    /// parallelism the OS reports is 1.
    pub fn collect() -> Fingerprint {
        let read = |p: &str| std::fs::read_to_string(p).unwrap_or_default();
        let cpu_model = read("/proc/cpuinfo")
            .lines()
            .find_map(|l| {
                l.strip_prefix("model name")?.split_once(':').map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let kernel = match read("/proc/sys/kernel/osrelease").trim() {
            "" => "unknown".to_string(),
            k => k.to_string(),
        };
        Fingerprint {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            kernel,
            rustc: command_line("rustc", &["--version"]),
            git_sha: command_line("git", &["rev-parse", "HEAD"]),
            pinned: None,
        }
    }
}

/// First line of a command's standard output, `unknown` if it cannot run
/// (the benchmark also runs from plain checkouts that are no repository).
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_parser_counts_fields_after_the_command_name() {
        // A hostile command name with spaces and a closing parenthesis.
        let stat = "4242 (nups ledger) x) S 1 4242 4242 0 -1 4194304 1000 0 0 0 \
                    1234 56 0 0 20 0 7 0 100 1000000 250 18446744073709551615";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(1234 + 56));
        assert_eq!(parse_stat_cpu_ticks("1 (x) S 1 2"), None, "truncated line");
        assert_eq!(parse_stat_cpu_ticks("garbage"), None);
    }

    #[test]
    fn stat_parser_reads_this_process() {
        let stat = std::fs::read_to_string("/proc/self/stat").expect("procfs");
        assert!(parse_stat_cpu_ticks(&stat).is_some());
    }

    #[test]
    fn status_parser_finds_the_named_field() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_status_kib(status, "VmHWM"), Some(2048));
        assert_eq!(parse_status_kib(status, "VmSwap"), None);
        assert!(peak_rss_mib() > 0.0);
    }

    #[test]
    fn lowest_cpu_of_a_mask() {
        assert_eq!(lowest_set_bit(&[0, 0]), None);
        assert_eq!(lowest_set_bit(&[0b1000, 1]), Some(3));
        assert_eq!(lowest_set_bit(&[0, 0b10]), Some(65));
    }
}
