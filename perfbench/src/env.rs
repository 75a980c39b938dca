//! Process and host readings from `/proc`, and the environment
//! fingerprint printed beside every result. The fingerprint is for
//! diagnosing a noisy run; nothing uses it to drop or adjust runs.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::time::{Duration, Instant};

/// Linux reports process CPU time in units of `USER_HZ`, which the
/// kernel ABI fixes at 100 per second.
const USER_HZ: f64 = 100.0;

/// Process user + system CPU time so far (all threads, live or
/// joined), from `/proc/self/stat`.
pub fn process_cpu() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name is parenthesised and may hold spaces: fields are
    // counted from the closing parenthesis (utime and stime are fields
    // 14 and 15 of the whole line, 12 and 13 after it).
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks: f64 =
        [11, 12].iter().filter_map(|&i| fields.get(i)?.parse::<f64>().ok()).sum::<f64>();
    Duration::from_secs_f64(ticks / USER_HZ)
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn malloc_trim(pad: usize) -> std::os::raw::c_int;
}

/// Start a new peak: hand the allocator's free pages back to the
/// kernel, so memory an earlier cluster freed does not count, then
/// reset `VmHWM` to the current resident set size (Linux 4.0 and later).
pub fn reset_peak_rss() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // SAFETY: `malloc_trim` only returns free heap pages to the kernel;
    // it has no preconditions and touches no live allocation.
    unsafe {
        malloc_trim(0);
    }
    // Without the reset the reading covers the whole run so far.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host-wide CPU time counters from the first line of `/proc/stat`:
/// (steal, total), in ticks.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostCpu {
    steal: u64,
    total: u64,
}

impl HostCpu {
    /// Read the counters now.
    pub fn now() -> HostCpu {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let fields: Vec<u64> = stat
            .lines()
            .next()
            .unwrap_or("")
            .split_whitespace()
            .skip(1)
            .filter_map(|f| f.parse().ok())
            .collect();
        // user nice system idle iowait irq softirq steal (guest time is
        // already inside user and nice).
        let total = fields.iter().take(8).sum();
        HostCpu { steal: fields.get(7).copied().unwrap_or(0), total }
    }

    /// Share of host CPU time stolen by the hypervisor since `earlier`.
    pub fn steal_share_since(&self, earlier: &HostCpu) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            return 0.0;
        }
        self.steal.saturating_sub(earlier.steal) as f64 / total as f64
    }
}

/// Median of `samples` (sorted in place); 0 when empty.
pub fn median(samples: &mut [f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2.0
    }
}

/// Median latency, in microseconds, of a 4 KiB write plus `fdatasync`
/// in `dir`.
pub fn fdatasync_p50_us(dir: &Path) -> f64 {
    let path = dir.join("fingerprint-fsync");
    let Ok(mut file) = std::fs::File::create(&path) else { return 0.0 };
    let block = [0u8; 4096];
    let mut samples: Vec<f64> = (0..32)
        .filter_map(|_| {
            let t0 = Instant::now();
            file.write_all(&block).ok()?;
            file.sync_data().ok()?;
            Some(t0.elapsed().as_secs_f64() * 1e6)
        })
        .collect();
    drop(file);
    let _ = std::fs::remove_file(&path);
    median(&mut samples)
}

/// Median round trip, in microseconds, of one byte over loopback TCP.
pub fn loopback_rtt_us() -> f64 {
    let rtt = || -> std::io::Result<f64> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let mut client = TcpStream::connect(listener.local_addr()?)?;
        let (mut server, _) = listener.accept()?;
        client.set_nodelay(true)?;
        server.set_nodelay(true)?;
        let echo = std::thread::spawn(move || -> std::io::Result<()> {
            let mut b = [0u8; 1];
            while server.read(&mut b)? == 1 {
                server.write_all(&b)?;
            }
            Ok(())
        });
        let mut samples = Vec::with_capacity(200);
        let mut b = [7u8; 1];
        for _ in 0..200 {
            let t0 = Instant::now();
            client.write_all(&b)?;
            client.read_exact(&mut b)?;
            samples.push(t0.elapsed().as_secs_f64() * 1e6);
        }
        drop(client);
        echo.join().map_err(|_| std::io::Error::other("echo thread panicked"))??;
        Ok(median(&mut samples))
    };
    rtt().unwrap_or(0.0)
}

/// Nanoseconds per step of a fixed single-threaded integer loop: how
/// fast this processor runs at the moment (a busy sibling thread or a
/// lower clock shows here).
pub fn cpu_loop_ns() -> f64 {
    let mut samples: Vec<f64> = (0..5)
        .map(|_| {
            let mut rng = crate::workload::Rng::new(1, 2);
            let t0 = Instant::now();
            let mut acc = 0u64;
            for _ in 0..2_000_000 {
                acc ^= std::hint::black_box(rng.next_u64());
            }
            std::hint::black_box(acc);
            t0.elapsed().as_nanos() as f64 / 2e6
        })
        .collect();
    median(&mut samples)
}

/// The commit the checkout was made from, when it carries git metadata
/// (read directly, so no parent directory's repository is consulted).
pub fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(".git/HEAD") else { return "unknown".into() };
    let Some(reference) = head.strip_prefix("ref: ") else { return head };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(String::from))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Host readings taken around a run, printed beside its result.
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint {
    /// Share of host CPU time stolen by the hypervisor over the run.
    pub steal_share: f64,
    /// `fdatasync` p50 in the benchmark's scratch directory, µs.
    pub fdatasync_p50_us: f64,
    /// Loopback TCP round trip p50, µs.
    pub loopback_rtt_us: f64,
    /// [`cpu_loop_ns`] at the start and the end of the run.
    pub cpu_loop_ns: [f64; 2],
}

impl Fingerprint {
    /// The fingerprint as one JSON object, with processors and commit.
    pub fn json(&self) -> String {
        let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
        format!(
            "{{\"nproc\": {nproc}, \"steal_share\": {:.4}, \"fdatasync_p50_us\": {:.1}, \
             \"loopback_rtt_us\": {:.1}, \"cpu_loop_ns\": [{:.3}, {:.3}], \"git_commit\": \"{}\"}}",
            self.steal_share,
            self.fdatasync_p50_us,
            self.loopback_rtt_us,
            self.cpu_loop_ns[0],
            self.cpu_loop_ns[1],
            git_commit()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_plausible() {
        let spin = Instant::now();
        while spin.elapsed() < Duration::from_millis(30) {
            std::hint::black_box(0u64);
        }
        assert!(process_cpu() > Duration::ZERO);
        assert!(peak_rss_mb() > 0.0);
        let a = HostCpu::now();
        let b = HostCpu::now();
        assert!((0.0..=1.0).contains(&b.steal_share_since(&a)));
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
    }
}
