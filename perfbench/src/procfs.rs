//! Process counters read from `/proc/self`: peak resident memory, minor
//! page faults and CPU time.

use std::fs;

/// Linux reports `/proc/<pid>/stat` times in USER_HZ ticks, fixed at 100
/// per second by the kernel ABI.
const TICK_MS: f64 = 10.0;

/// `VmHWM` (peak resident set) of this process in MB; 0 when unreadable.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A snapshot of this process's fault and CPU counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cpu {
    pub minor_faults: u64,
    pub user_ms: f64,
    pub sys_ms: f64,
}

impl Cpu {
    pub fn now() -> Cpu {
        let Ok(stat) = fs::read_to_string("/proc/self/stat") else {
            return Cpu::default();
        };
        // Fields after the parenthesised command name, which may itself
        // contain spaces: state is field 3, minflt 10, utime 14, stime 15.
        let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
        let f: Vec<u64> = rest
            .split_whitespace()
            .skip(1)
            .map(|v| v.parse().unwrap_or(0))
            .collect();
        let at = |field: usize| f.get(field - 4).copied().unwrap_or(0);
        Cpu {
            minor_faults: at(10),
            user_ms: at(14) as f64 * TICK_MS,
            sys_ms: at(15) as f64 * TICK_MS,
        }
    }

    /// Counters accumulated since `earlier`.
    pub fn since(&self, earlier: &Cpu) -> Cpu {
        Cpu {
            minor_faults: self.minor_faults.saturating_sub(earlier.minor_faults),
            user_ms: self.user_ms - earlier.user_ms,
            sys_ms: self.sys_ms - earlier.sys_ms,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_read_and_grow() {
        let before = Cpu::now();
        let v: Vec<u8> = vec![1; 64 << 20];
        std::hint::black_box(&v);
        let d = Cpu::now().since(&before);
        assert!(d.minor_faults > 0, "touching 64 MB must fault pages in");
        assert!(peak_rss_mb() >= 64.0);
    }
}
