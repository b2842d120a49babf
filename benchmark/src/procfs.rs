//! Host facts from `/proc`: peak resident memory, CPU time, core count.
//!
//! The parsers take the file's text, so unit tests feed them fixed
//! samples; the readers return `None` where `/proc` is absent.

/// Kernel clock ticks per second as `/proc/*/stat` reports them. Linux
/// fixes the user-visible rate (`USER_HZ`) at 100 on every architecture.
const TICKS_PER_S: f64 = 100.0;

/// `VmHWM` (peak resident set) in KiB from `/proc/<pid>/status` text.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// `utime + stime` in seconds from `/proc/<pid>/stat` text. The command
/// name (field 2) may hold spaces and parentheses, so fields are counted
/// from the last `)`.
pub fn parse_cpu_s(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // After the command: state is field 3, utime field 14, stime field 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / TICKS_PER_S)
}

pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_kib(&status).map(|kib| kib as f64 / 1024.0)
}

/// CPU seconds of the whole process so far.
pub fn process_cpu_s() -> Option<f64> {
    parse_cpu_s(&std::fs::read_to_string("/proc/self/stat").ok()?)
}

/// CPU seconds of the calling thread so far.
pub fn thread_cpu_s() -> Option<f64> {
    parse_cpu_s(&std::fs::read_to_string("/proc/thread-self/stat").ok()?)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_is_read_in_kib() {
        let status = "Name:\tbenchmark\nVmPeak:\t  999 kB\nVmHWM:\t   51234 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(51234));
        assert_eq!(parse_vm_hwm_kib("Name:\tx\n"), None);
    }

    #[test]
    fn cpu_time_survives_a_hostile_command_name() {
        // utime = 250 ticks, stime = 50 ticks; the command holds ") R 1".
        let stat = "4242 (evil) R 1 (x) S 1 4242 4242 0 -1 4194560 100 0 0 0 250 50 0 0 20 0 3 0 12345 1000 10";
        assert_eq!(parse_cpu_s(stat), Some(3.0));
        assert_eq!(parse_cpu_s("no parenthesis here"), None);
        assert_eq!(parse_cpu_s("1 (short) R 1 2"), None);
    }

    #[test]
    fn live_proc_readers_agree_with_the_parsers() {
        if let Some(mb) = peak_rss_mb() {
            assert!(mb > 0.0);
        }
        if let (Some(p), Some(t)) = (process_cpu_s(), thread_cpu_s()) {
            assert!(p >= 0.0 && t >= 0.0);
        }
        assert!(nproc() >= 1);
    }
}
